"""The batched chain kernel against the per-sample chain loops it replaced.

The reference functions below are the scalar sorted-chain loops the library
used before every chain evaluation went through ``lovasz.chain_gains``. The
batched forms must agree with them to 1e-12 on exact ties, exact kinks
(1 - u_i y_i = 0, which stay inactive), clipped coordinates (|u_i| > 1) and
zero margins, for symmetric, per-label and partial per-label collections.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lovasz_abstain import PolymatroidCollection, random_polymatroid
from lovasz_abstain.bench import _mean_subgradient, mean_hinge
from lovasz_abstain.lovasz import extension_batch, subgradient_rows
from lovasz_abstain.setfn import as_collection

from conftest import builtin_collections

TOL = 1e-12


def loop_extension(f, x):
    total, mask, prev = 0.0, 0, float(f.values[0])
    for i in np.argsort(-x, kind="stable"):
        mask |= 1 << int(i)
        cur = f.values[mask]
        total += x[i] * (cur - prev)
        prev = cur
    return total


def loop_subgradient(f, u, signs):
    margins = 1.0 - u * signs
    w = np.maximum(margins, 0.0)
    g = np.zeros(len(u))
    mask, prev = 0, float(f.values[0])
    for i in np.argsort(-w, kind="stable"):
        i = int(i)
        mask |= 1 << i
        cur = f.values[mask]
        if margins[i] > 0.0:
            g[i] = -signs[i] * (cur - prev)
        prev = cur
    return g


def signs_of(y, k):
    return np.where((y >> np.arange(k)) & 1 == 1, 1.0, -1.0)


def partial_collection(k):
    """Tables only for the labels y with y % 3 != 1 (label 0 always present)."""
    rng = np.random.default_rng(100 + k)
    per_label = {y: random_polymatroid(k, rng) for y in range(1 << k) if y % 3 != 1}
    return PolymatroidCollection.from_per_label(k, per_label)


COLLECTIONS = {
    k: {**{name: as_collection(f) for name, f in builtin_collections(k).items()},
        "partial": partial_collection(k)}
    for k in (1, 2, 3, 4)
}
NAMES = ("zero_one", "modular", "sqrt_card", "jaccard", "partial")

# Exact values make ties, kinks (u = +-1) and clipped coordinates (|u| > 1) common.
entry = st.one_of(
    st.sampled_from([-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0]),
    st.floats(-3, 3, allow_nan=False),
)


@st.composite
def batches(draw):
    k = draw(st.integers(1, 4))
    name = draw(st.sampled_from(NAMES))
    fc = COLLECTIONS[k][name]
    n = draw(st.integers(1, 8))
    U = np.array(draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=n, max_size=n)))
    y_bits = np.array(draw(st.lists(st.sampled_from(fc.labels()), min_size=n, max_size=n)))
    return fc, U, y_bits


KINKS = (COLLECTIONS[3]["sqrt_card"], np.array([[1.0, -1.0, 0.5], [1.0, 1.0, 1.0]]), np.array([7, 5]))
TIES = (COLLECTIONS[3]["jaccard"], np.array([[0.5, 0.5, -0.5], [2.0, -2.0, 0.0]]), np.array([3, 0]))


@settings(max_examples=300, deadline=None)
@given(batches())
@example(KINKS)
@example(TIES)
def test_subgradient_rows_match_loop(batch):
    fc, U, y_bits = batch
    G = subgradient_rows(fc, U, y_bits)
    for u, y, g in zip(U, y_bits, G):
        ref = loop_subgradient(fc.for_label(int(y)), u, signs_of(int(y), fc.k))
        assert np.abs(g - ref).max() <= TOL
        kinks = 1.0 - u * signs_of(int(y), fc.k) == 0.0
        assert np.all(g[kinks] == 0.0)


@settings(max_examples=200, deadline=None)
@given(batches(), st.booleans())
@example(KINKS, True)
@example(TIES, True)
def test_trainer_matches_loop(batch, identity):
    """mean_hinge and the mean subgradient against the per-sample loops. With
    identity weights the scores are the drawn rows exactly, kinks included."""
    fc, X, y_bits = batch
    k = fc.k
    W = np.eye(k) if identity else np.random.default_rng(len(X)).standard_normal((k, k))
    U = X @ W.T
    refs = [
        (loop_extension(fc.for_label(int(y)), np.maximum(1.0 - u * signs_of(int(y), k), 0.0)),
         loop_subgradient(fc.for_label(int(y)), u, signs_of(int(y), k)))
        for u, y in zip(U, y_bits)
    ]
    ref_loss = np.mean([h for h, _ in refs])
    ref_grad = sum(np.outer(g, x) for (_, g), x in zip(refs, X)) / len(X)
    assert abs(mean_hinge(fc, W, X, y_bits) - ref_loss) <= TOL
    assert np.abs(_mean_subgradient(fc, W, X, y_bits) - ref_grad).max() <= TOL


@settings(max_examples=200, deadline=None)
@given(batches())
@example(TIES)
def test_extension_batch_matches_loop(batch):
    fc, U, y_bits = batch
    xs = np.abs(U) * (U > -1.0)  # nonnegative with exact zeros and ties
    for y in set(y_bits.tolist()):
        f = fc.for_label(y)
        vals = extension_batch(f, xs)
        assert np.abs(vals - [loop_extension(f, x) for x in xs]).max() <= TOL
