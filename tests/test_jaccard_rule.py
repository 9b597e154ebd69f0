"""The Jaccard family read from its rule against the dense tables it replaced.

``dense_jaccard`` below is a copy of the ``make_jaccard`` that built the full
(2^k, 2^k) value matrix. ``make_jaccard`` now evaluates J_y(S) from its rule,
so every read (``at``, the dense ``values`` view, ``chain_gains``, the hinge
and its subgradient) must be bit-identical to reading that matrix, at every k
the matrix existed for. Above k = 12 the rule still runs the hinge and the
trainer; only the dense views refuse.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lovasz_abstain import PolymatroidCollection, bench, make_jaccard, setfn
from lovasz_abstain.lovasz import chain_gains, hinge_rows, subgradient_rows
from lovasz_abstain.serialize import collection_to_obj


@lru_cache(maxsize=1)  # the k = 12 matrix is 128 MiB: keep one k at a time
def dense_jaccard(k):
    masks = np.arange(1 << k, dtype=np.uint16)
    union = np.bitwise_count(masks[:, None] | masks)  # row y, column S
    values = np.bitwise_count(masks) / np.maximum(union, 1)
    return values, PolymatroidCollection(k, values, np.arange(1 << k))


# Exact values make ties, kinks (u = +-1, margin 0) and zero margins (|u| >= 1 on the label's side) common.
entry = st.one_of(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]), st.floats(-3, 3, allow_nan=False))


@pytest.mark.parametrize("k", range(1, 13))
def test_dense_values_are_the_old_matrix(k):
    values, old = dense_jaccard(k)
    fc = make_jaccard(k)
    assert fc.values.dtype == values.dtype and np.array_equal(fc.values, values)
    assert np.array_equal(fc.rows, old.rows) and fc.labels() == old.labels()
    assert not fc.values.flags.writeable and not fc.rows.flags.writeable
    assert fc.values is fc.values  # built once


@pytest.mark.parametrize("k", range(1, 13))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_reads_match_the_dense_matrix(k, data):
    values, old = dense_jaccard(k)
    fc = make_jaccard(k)
    n = data.draw(st.integers(1, 12))
    U = np.array(data.draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=n, max_size=n)))
    y_bits = np.array(data.draw(st.lists(st.integers(0, (1 << k) - 1), min_size=n, max_size=n)))
    S = np.array(data.draw(st.lists(st.integers(0, (1 << k) - 1), min_size=n, max_size=n)))
    assert np.array_equal(fc.at(y_bits, S), values[y_bits, S])
    assert np.array_equal(fc.at(y_bits[:, None], S), values[y_bits[:, None], S])
    assert fc.at(int(y_bits[0]), int(S[0])) == values[y_bits[0], S[0]]
    W = np.maximum(1.0 - U * np.where((y_bits[:, None] >> np.arange(k)) & 1 == 1, 1.0, -1.0), 0.0)
    for y in (y_bits, int(y_bits[0])):
        got, want = chain_gains(fc, W, y), chain_gains(old, W, y)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert np.array_equal(hinge_rows(fc, U, y_bits), hinge_rows(old, U, y_bits))
    assert np.array_equal(subgradient_rows(fc, U, y_bits), subgradient_rows(old, U, y_bits))


def test_the_trainer_path_builds_no_dense_matrix(monkeypatch):
    def refuse(self):
        raise AssertionError("a dense view of the Jaccard family was built")

    monkeypatch.setattr(setfn._JaccardCollection, "_subsets", refuse)
    fc = make_jaccard(10)
    cfg = bench.TrainConfig(k=10, feature_dim=16, n_samples=60, epochs=3, seed=0)
    result = bench.train(cfg, fc)
    U = np.random.default_rng(0).uniform(-2, 2, (20, 10))
    y_bits = np.arange(20) * 37
    assert np.isfinite(hinge_rows(fc, U, y_bits)).all() and np.isfinite(result.train_trace).all()
    subgradient_rows(fc, U, y_bits)
    assert collection_to_obj(fc) == {"kind": "jaccard", "k": 10}
    with pytest.raises(AssertionError, match="dense view"):
        fc.values


def chain_sum(k, u, y):
    """The hinge of one row as a direct sum over its sorted chain, J_y(S) = |S| / |S u y|."""
    w = np.maximum(1.0 - u * np.where((y >> np.arange(k)) & 1 == 1, 1.0, -1.0), 0.0)
    total, S, prev = 0.0, 0, 0.0
    for i in sorted(range(k), key=lambda i: -w[i]):  # stable: ties by ascending index
        S |= 1 << i
        cur = bin(S).count("1") / bin(S | y).count("1")
        total += w[i] * (cur - prev)
        prev = cur
    return total


def test_hinge_above_the_dense_cap_matches_the_chain_sum():
    k = 20
    rng = np.random.default_rng(3)
    U = rng.choice([-1.0, 0.0, 0.5, 1.0, 2.0], size=(40, k)) + rng.normal(0, 1, (40, k)) * (rng.random((40, k)) < 0.5)
    y_bits = rng.integers(0, 1 << k, 40)
    y_bits[:2] = (0, (1 << k) - 1)
    got = hinge_rows(make_jaccard(k), U, y_bits)
    want = [chain_sum(k, u, int(y)) for u, y in zip(U, y_bits)]
    assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("k", (13, 20, 62))
def test_dense_views_above_k12_name_k(k):
    fc = make_jaccard(k)
    assert fc.at(1, 3) == 1.0 and not fc.symmetric
    for view in (lambda: fc.values, lambda: fc.rows, fc.labels, lambda: fc.for_label(0), fc.table_matrix):
        with pytest.raises(ValueError, match=f"capped at k <= 12, got k={k}"):
            view()
