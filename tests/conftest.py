import itertools
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest

from lovasz_abstain import make_jaccard, make_modular, make_sqrt_card, make_zero_one
from lovasz_abstain.targets import _report_id_table


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def builtin_collections(k):
    """The running-example collections at dimension k."""
    return {
        "zero_one": make_zero_one(k),
        "modular": make_modular(np.arange(1, k + 1, dtype=float)),
        "sqrt_card": make_sqrt_card(k),
        "jaccard": make_jaccard(k),
    }


def symmetric_builtins(k):
    return {
        "zero_one": make_zero_one(k),
        "modular": make_modular(np.arange(1, k + 1, dtype=float)),
        "sqrt_card": make_sqrt_card(k),
    }


def _chains_ending_at(top, k):
    subs = [s for s in range(1 << k) if s & top == s and s != top]
    chains = [(top,)]
    for s in subs:
        for c in _chains_ending_at(s, k):
            chains.append(c + (top,))
    return chains


@lru_cache(maxsize=None)
def ref_chain_faces(k):
    """Every signed chain face at dimension k, one record at a time, with
    supports (a strictly nested tuple of bitmasks), sigma (the sign bitmask
    over the top support) and member_ids (the sorted report ids of its
    supports, each signed by sigma). Chains by top ascending, each top's
    chains recursively; signs in itertools.product order over the top's bits,
    ascending. The face order links.chain_faces must reproduce."""
    ids = _report_id_table(k).tolist()
    full = (1 << k) - 1
    faces = []
    for top in range(1 << k):
        bits = [i for i in range(k) if top >> i & 1]
        for chain in _chains_ending_at(top, k):
            for combo in itertools.product([0, 1], repeat=len(bits)):
                sigma = sum(1 << i for b, i in zip(combo, bits) if b)
                member_ids = np.array(sorted(ids[t & sigma][full & ~t] for t in chain))
                faces.append(SimpleNamespace(supports=chain, sigma=sigma, member_ids=member_ids))
    return tuple(faces)


def unpacked_members(words, n):
    """(rows, n) bool matrix of uint64 member words: column r is bit r % 64 of
    word r // 64, as links._member_words packs them."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=n, bitorder="little").astype(bool)


@lru_cache(maxsize=None)
def ref_face_plans(k):
    """Per face of ref_chain_faces(k), in its order: (sign, prefix, suffix,
    block_coords, block_starts). sign is -1 on the top support outside sigma
    and +1 elsewhere; prefix holds the coordinates of the first support and
    suffix those outside the top. The free blocks (the differences of
    consecutive supports, each nonempty) are laid end to end in block_coords,
    block j starting at block_starts[j]."""
    full = (1 << k) - 1
    plans = []
    for f in ref_chain_faces(k):
        top = f.supports[-1]
        sign = np.array([-1.0 if top >> j & 1 and not f.sigma >> j & 1 else 1.0 for j in range(k)])
        blocks = [_coords(t & ~p, k) for p, t in zip(f.supports, f.supports[1:])]
        coords = np.concatenate([np.zeros(0, dtype=np.intp), *blocks])
        starts = np.cumsum([0] + [len(b) for b in blocks])[:-1]
        plans.append((sign, _coords(f.supports[0], k), _coords(full & ~top, k), coords, starts))
    return tuple(plans)


def ref_face_distances(x_rows):
    """Exact d_inf from each row of x_rows to each face hull of ref_chain_faces(k),
    one face at a time through its ref_face_plans entry: flip the signs outside
    sigma on the top support, take the largest |1 - s_j| over the forced prefix
    (the first support) and |x_j| over the forced-zero suffix, and for the free
    blocks (the differences of consecutive supports) the largest of (max of a
    block - running min of the block minima) / 2, max - 1 and -min, clamped at 0."""
    n, k = x_rows.shape
    plans = ref_face_plans(k)
    out = np.empty((n, len(plans)))
    for fi, (sign, prefix, suffix, block_coords, block_starts) in enumerate(plans):
        s = x_rows * sign
        d = np.zeros(n)
        if len(prefix):
            d = np.abs(1.0 - s[:, prefix]).max(axis=1)
        if len(suffix):
            d = np.maximum(d, np.abs(x_rows[:, suffix]).max(axis=1))
        if len(block_starts):
            sb = s[:, block_coords]
            ms = np.minimum.reduceat(sb, block_starts, axis=1)
            Ms = np.maximum.reduceat(sb, block_starts, axis=1)
            run_min = np.minimum.accumulate(ms, axis=1)
            chain = ((Ms - run_min) / 2.0).max(axis=1)
            chain = np.maximum(chain, (Ms - 1.0).max(axis=1))
            chain = np.maximum(chain, (-ms).max(axis=1))
            d = np.maximum(d, np.maximum(chain, 0.0))
        out[:, fi] = d
    return out


def _coords(mask, k):
    return np.array([j for j in range(k) if mask >> j & 1], dtype=np.intp)
