"""The batched chain kernel against the per-sample chain loops it replaced.

The reference functions below are the scalar sorted-chain loops the library
used before every chain evaluation went through ``lovasz.chain_gains``. The
batched forms must agree with them to 1e-12 on exact ties, exact kinks
(1 - u_i y_i = 0, which stay inactive), clipped coordinates (|u_i| > 1) and
zero margins, for symmetric, per-label and partial per-label collections.

The joint hinge-and-subgradient call is held bit for bit to the separate
routes it replaced: the batched subgradient route and the trainer's loop of
three chain-kernel calls per epoch, both copied below. The extension reads
the margins through chain_gains' order, bit for bit what sorting them again
with np.sort gave, and the trainer runs with np.sort refused.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lovasz_abstain import PolymatroidCollection, TrainConfig, hinge, hinge_subgradient, random_polymatroid, train
from lovasz_abstain.bench import _mean_subgradient, mean_hinge, split_indices, synth_data
from lovasz_abstain.lovasz import chain_gains, extension_batch, hinge_and_subgradient_rows, hinge_rows, subgradient_rows
from lovasz_abstain.serialize import collection_from_obj
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


def separate_subgradient_rows(fc, U, y_bits):
    """The batched subgradient route with a chain_gains call of its own."""
    signs = np.where((y_bits[:, None] >> np.arange(fc.k)) & 1 == 1, 1.0, -1.0)
    margins = 1.0 - U * signs
    order, gains = chain_gains(fc, np.maximum(margins, 0.0), y_bits)
    g = np.empty_like(margins)
    g[np.arange(len(g))[:, None], order] = gains
    return np.where(margins > 0.0, -signs * g, 0.0)


@settings(max_examples=300, deadline=None)
@given(batches())
@example(KINKS)
@example(TIES)
def test_hinge_and_subgradient_rows_match_the_separate_routes(batch):
    """Bit for bit, with the scalar hinge and hinge_subgradient as one-row views."""
    fc, U, y_bits = batch
    h, G = hinge_and_subgradient_rows(fc, U, y_bits)
    assert np.array_equal(h, hinge_rows(fc, U, y_bits))
    assert np.array_equal(G, separate_subgradient_rows(fc, U, y_bits))
    assert np.array_equal(subgradient_rows(fc, U, y_bits), G)
    for u, y, hj, g in zip(U, y_bits.tolist(), h, G):
        assert hinge(fc, u, y) == hj
        assert np.array_equal(hinge_subgradient(fc, u, y), g)


def resorted_hinge_rows(fc, U, y_bits):
    """hinge_rows as it was computed before the extension read chain_gains'
    order: the margins sorted again with np.sort, descending."""
    signs = np.where((y_bits[:, None] >> np.arange(fc.k)) & 1 == 1, 1.0, -1.0)
    W = np.maximum(1.0 - U * signs, 0.0)
    return (np.sort(W, axis=1)[:, ::-1] * chain_gains(fc, W, y_bits)[1]).sum(axis=1)


@settings(max_examples=200, deadline=None)
@given(batches())
@example(KINKS)
@example(TIES)
def test_hinge_reads_the_chain_order_bit_for_bit(batch):
    fc, U, y_bits = batch
    want = resorted_hinge_rows(fc, U, y_bits)
    assert np.array_equal(hinge_rows(fc, U, y_bits), want)
    assert np.array_equal(hinge_and_subgradient_rows(fc, U, y_bits)[0], want)


def three_call_train(cfg, fc):
    """bench.train with three chain-kernel calls per epoch: the train hinge,
    the validation hinge and the train subgradient, each on its own rows."""
    data = synth_data(cfg)
    tr, va, _ = split_indices(cfg.n_samples, cfg.seed)
    W = np.zeros((cfg.k, cfg.feature_dim))
    best_W, best_val, best_epoch = W.copy(), np.inf, 0
    train_trace, val_trace = [], []
    for epoch in range(cfg.epochs):
        loss = mean_hinge(fc, W, data.X[tr], data.y_bits[tr])
        val = mean_hinge(fc, W, data.X[va], data.y_bits[va])
        train_trace.append(loss)
        val_trace.append(val)
        if val < best_val:
            best_val, best_W, best_epoch = val, W.copy(), epoch
        X, y_bits = data.X[tr], data.y_bits[tr]
        G = separate_subgradient_rows(fc, X @ W.T, y_bits).T @ X / len(X)
        np.clip(G, -1.0, 1.0, out=G)
        W = W - cfg.lr_init * G
    train_trace.append(mean_hinge(fc, W, data.X[tr], data.y_bits[tr]))
    val_trace.append(mean_hinge(fc, W, data.X[va], data.y_bits[va]))
    if val_trace[-1] < best_val:
        best_W, best_epoch = W.copy(), cfg.epochs
    return W, best_W, best_epoch, train_trace, val_trace


TRAINER_RUNS = {
    "sqrt_card4": (dict(k=4, feature_dim=8, n_samples=500, epochs=25, noise=[0.0, 0.4, 1.0, 2.5]),
                   {"kind": "concave_card", "k": 4, "exponent": 0.5}),
    "jaccard10": (dict(k=10, feature_dim=16, n_samples=250, epochs=30), {"kind": "jaccard", "k": 10}),
    "modular1234": (dict(k=4, feature_dim=8, n_samples=300, epochs=30, noise=1.0),
                    {"kind": "modular", "weights": [1, 2, 3, 4]}),
    "jaccard20": (dict(k=20, feature_dim=40, n_samples=200, epochs=15, noise=0.5), {"kind": "jaccard", "k": 20}),
}


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("run", list(TRAINER_RUNS))
def test_one_call_trainer_is_bit_identical_to_three_calls(run, seed):
    fields, spec = TRAINER_RUNS[run]
    cfg = TrainConfig(**fields, seed=seed)
    fc = collection_from_obj(spec)
    res = train(cfg, fc)
    W, best_W, best_epoch, train_trace, val_trace = three_call_train(cfg, fc)
    assert res.train_trace == train_trace and res.val_trace == val_trace
    assert np.array_equal(res.weights, W) and np.array_equal(res.best_weights, best_W)
    assert res.best_epoch == best_epoch


def test_trainer_sorts_each_epoch_once(monkeypatch):
    """With np.sort refused, the trainer still gives the three-call traces:
    its loss and subgradient come from chain_gains' one argsort per epoch."""
    fields, spec = TRAINER_RUNS["sqrt_card4"]
    cfg = TrainConfig(**fields, seed=0)
    fc = collection_from_obj(spec)
    want = three_call_train(cfg, fc)

    def refuse(*args, **kwargs):
        raise AssertionError("the trainer sorted the margins again")

    monkeypatch.setattr(np, "sort", refuse)
    res = train(cfg, fc)
    assert (res.train_trace, res.val_trace) == (want[3], want[4])
