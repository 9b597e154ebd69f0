"""The batched face-distance kernel against the per-face loop it replaced.

The reference below is the loop ``links.face_distances`` ran before it read
every face from subset tables: for each chain face, flip the signs outside
sigma on its top support, take the largest |1 - s_j| over the forced prefix
(the first support) and |x_j| over the forced-zero suffix, and for the free
blocks (the differences of consecutive supports) the largest of
(max of a block - running min of the block minima) / 2, max - 1 and -min,
clamped at 0. Min, max and monotone rounding commute, so the batched kernel
must agree with it bit for bit, on report corners, exact 0, +-1 and -0.0,
ties, and clipped coordinates (|x_i| > 1 before clipping).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lovasz_abstain.links import (
    chain_faces,
    clip,
    envelope_members_gap,
    envelope_members_oracle,
    face_distances,
)


def _coords(mask, k):
    return np.array([j for j in range(k) if mask >> j & 1], dtype=np.intp)


def ref_face_distances(x_rows):
    n, k = x_rows.shape
    faces = chain_faces(k)
    full = (1 << k) - 1
    out = np.empty((n, len(faces)))
    for fi, f in enumerate(faces):
        top = f.supports[-1]
        sign = np.array([-1.0 if top >> j & 1 and not f.sigma >> j & 1 else 1.0 for j in range(k)])
        prefix, suffix = _coords(f.supports[0], k), _coords(full & ~top, k)
        blocks = [_coords(t & ~p, k) for p, t in zip(f.supports, f.supports[1:])]
        s = x_rows * sign
        d = np.zeros(n)
        if len(prefix):
            d = np.abs(1.0 - s[:, prefix]).max(axis=1)
        if len(suffix):
            d = np.maximum(d, np.abs(x_rows[:, suffix]).max(axis=1))
        if blocks:
            ms = np.stack([s[:, b].min(axis=1) for b in blocks], axis=1)
            Ms = np.stack([s[:, b].max(axis=1) for b in blocks], axis=1)
            run_min = np.minimum.accumulate(ms, axis=1)
            chain = ((Ms - run_min) / 2.0).max(axis=1)
            chain = np.maximum(chain, (Ms - 1.0).max(axis=1))
            chain = np.maximum(chain, (-ms).max(axis=1))
            d = np.maximum(d, np.maximum(chain, 0.0))
        out[:, fi] = d
    return out


SPECIAL = [-1.5, -1.0, -0.5, -0.25, -0.0, 0.0, 0.25, 0.5, 1.0, 1.5]
coord = st.one_of(st.sampled_from(SPECIAL), st.floats(-2.0, 2.0, allow_nan=False))


@st.composite
def point_rows(draw):
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    return np.array(draw(st.lists(st.lists(coord, min_size=k, max_size=k), min_size=n, max_size=n)))


def _corners(k):
    return np.array(np.meshgrid(*[[-1.0, 0.0, 1.0]] * k)).reshape(k, -1).T


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_face_distances_match_loop_at_report_corners(k):
    x = _corners(k)
    x = np.vstack([x, np.where(x == 0.0, -0.0, x)])
    assert np.array_equal(face_distances(x), ref_face_distances(x))


@settings(max_examples=60, deadline=None)
@given(point_rows())
@example(np.array([[0.5, 0.5, -0.5, 0.5]]))
@example(np.array([[-0.0, 0.0, 1.5, -1.5]]))
@example(np.array([[0.25, -0.25, 0.25]]))
def test_face_distances_match_loop(u):
    x = clip(u)
    got = face_distances(x)
    assert got.shape == (len(x), len(chain_faces(x.shape[1])))
    assert np.array_equal(got, ref_face_distances(x))


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 1000])
def test_envelope_members_oracle_matches_gap_route_across_row_blocks(n):
    rng = np.random.default_rng(n)
    us = np.vstack([_corners(4), rng.uniform(-1.5, 1.5, (n, 4))])[:n]
    for eps in (0.05, 1.0 / 8):
        got = envelope_members_oracle(us, eps)
        assert got.shape == (n, 81)
        assert np.array_equal(got, envelope_members_gap(us, eps))
