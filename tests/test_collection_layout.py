"""The one-matrix collection layout against the dict-based layout it replaced.

``DictCollection`` below is a copy of the collection class the library used
before every collection became a (R, 2^k) value matrix plus a label -> row
index read through ``PolymatroidCollection.at``: a ``shared`` table, or a
``per_label`` dict of tables that may be partial. The constructors next to it are
copies of the dict-filling ones. Every view of the new layout must be
bit-identical to the old one on symmetric, total per-label and partial
collections, and a missing label must raise the same KeyError.
"""

import json
from dataclasses import dataclass

import numpy as np
import pytest

from lovasz_abstain import make_jaccard, make_sqrt_card, make_zero_one, random_polymatroid
from lovasz_abstain.lovasz import chain_gains, descending_order
from lovasz_abstain.multiclass import (
    BlockCodec,
    ClassCosts,
    ClassLabel,
    encode_bep,
    lift_polymatroid,
    onehot_encode,
    onehot_lift,
    ova_jaccard_costs,
)
from lovasz_abstain.serialize import collection_from_obj, collection_to_obj, setfn_to_obj
from lovasz_abstain.setfn import PolymatroidCollection, SetFunction, popcounts, random_collection


@dataclass(frozen=True)
class DictCollection:
    k: int
    shared: SetFunction | None = None
    per_label: dict | None = None

    @property
    def symmetric(self):
        return self.shared is not None

    def for_label(self, label_bits):
        if not (0 <= label_bits < (1 << self.k)):
            raise ValueError(f"label bitmask {label_bits} out of range for k={self.k}")
        if self.shared is not None:
            return self.shared
        try:
            return self.per_label[label_bits]
        except KeyError:
            raise KeyError(f"collection has no table for label bitmask {label_bits}")

    def labels(self):
        if self.shared is not None:
            return list(range(1 << self.k))
        return sorted(self.per_label)

    def table_matrix(self):
        if self.shared is not None:
            return np.broadcast_to(self.shared.values, (1 << self.k, 1 << self.k))
        return np.stack([self.for_label(y).values for y in range(1 << self.k)])


def dict_chain_gains(fc, W, y_bits=0):
    order = descending_order(W)
    bits = 1 << order
    masks = np.bitwise_or.accumulate(bits, axis=1)
    if fc.symmetric or np.ndim(y_bits) == 0:
        table = fc.for_label(0 if fc.symmetric else int(y_bits)).values
        return order, table[masks] - table[masks ^ bits]
    labels, inv = np.unique(y_bits, return_inverse=True)
    tables = np.stack([fc.for_label(int(y)).values for y in labels])
    return order, tables[inv[:, None], masks] - tables[inv[:, None], masks ^ bits]


def table_obj(f):
    """The set function writer of that layout: always a table, never a spec."""
    return {"k": f.k, "kind": "table", "values": f.values.tolist()}


def dict_collection_to_obj(fc):
    if fc.symmetric:
        return {"k": fc.k, "symmetric": True, "per_label": {"0": table_obj(fc.for_label(0))}}
    return {
        "k": fc.k,
        "symmetric": False,
        "per_label": {str(y): table_obj(fc.for_label(y)) for y in fc.labels()},
    }


def dict_jaccard(k):
    masks = np.arange(1 << k)
    sizes = popcounts(masks)
    per_label = {}
    for y in range(1 << k):
        union = popcounts(masks | y)
        with np.errstate(invalid="ignore"):
            per_label[y] = SetFunction(k, np.where(union > 0, sizes / np.maximum(union, 1), 0.0))
    return DictCollection(k, per_label=per_label)


def dict_random_collection(k, rng):
    return DictCollection(k, per_label={y: random_polymatroid(k, rng) for y in range(1 << k)})


def dict_lift(g, codec, k):
    d, C = codec.d, codec.C
    n = d * k
    masks = np.arange(1 << n)
    touched = np.zeros((1 << n, k), dtype=bool)
    for i in range(k):
        touched[:, i] = (masks >> (i * d)) & ((1 << d) - 1) != 0

    def lift_one(gk):
        return SetFunction(n, gk.values[touched @ (1 << np.arange(k))])

    if g.shared is not None:
        return DictCollection(n, shared=lift_one(g.shared))
    per_label = {}
    for class_tuple in np.ndindex(*([C] * k)):
        y = ClassLabel(C, tuple(c + 1 for c in class_tuple))
        per_label[encode_bep(y, codec)] = lift_one(g.for_label(y))
    return DictCollection(n, per_label=per_label)


def dict_onehot_lift(g_by_class, C, k):
    n = C * k
    masks = np.arange(1 << n)
    per_label = {}
    for class_tuple in np.ndindex(*([C] * k)):
        y = ClassLabel(C, tuple(c + 1 for c in class_tuple))
        total = np.zeros(1 << n)
        for c in range(1, C + 1):
            proj = np.zeros(1 << n, dtype=np.int64)
            for i in range(k):
                proj |= ((masks >> (i * C + c - 1)) & 1) << i
            total += g_by_class(c, y).values[proj]
        per_label[onehot_encode(y)] = SetFunction(n, total / C)
    return DictCollection(n, per_label=per_label)


def cases():
    sqrt4 = make_sqrt_card(4)
    yield "symmetric-sqrt4", PolymatroidCollection.from_setfn(sqrt4), DictCollection(4, shared=sqrt4)
    z1 = make_zero_one(1)
    yield "symmetric-zero-one1", PolymatroidCollection.from_setfn(z1), DictCollection(1, shared=z1)
    for k in (1, 3, 5):
        yield f"jaccard{k}", make_jaccard(k), dict_jaccard(k)
    yield "random3", random_collection(3, np.random.default_rng(5)), \
        dict_random_collection(3, np.random.default_rng(5))
    rng = np.random.default_rng(9)
    part = {y: random_polymatroid(3, rng) for y in (0, 2, 3, 6)}
    yield "partial-per-label3", PolymatroidCollection.from_per_label(3, part), DictCollection(3, per_label=part)
    costs = ClassCosts(2, weights_by_class=[1.0, 2.0, 0.5, 3.0])
    yield "lift-weights", lift_polymatroid(costs, BlockCodec(4), 2), dict_lift(costs, BlockCodec(4), 2)
    shared = ClassCosts.from_setfn(make_sqrt_card(2))
    yield "lift-shared", lift_polymatroid(shared, BlockCodec(4), 2), dict_lift(shared, BlockCodec(4), 2)
    g = ova_jaccard_costs(3, 2)
    yield "onehot", onehot_lift(g, 3, 2), dict_onehot_lift(g, 3, 2)


CASES = list(cases())
IDS = [name for name, _, _ in CASES]
# What cases built by a spec-recording constructor serialize to; the rest write tables.
SPEC_FORMS = {
    "symmetric-zero-one1": {"k": 1, "symmetric": True, "per_label": {"0": {"k": 1, "kind": "zero_one"}}},
    **{f"jaccard{k}": {"kind": "jaccard", "k": k} for k in (1, 3, 5)},
}


def key_error(fn):
    with pytest.raises(KeyError) as exc:
        fn()
    return str(exc.value)


@pytest.mark.parametrize("name, fc, old", CASES, ids=IDS)
def test_views_are_bit_identical(name, fc, old):
    k, subsets = fc.k, np.arange(1 << old.k)
    assert fc.labels() == old.labels() and fc.symmetric == old.symmetric
    for y in range(1 << k):
        if y in old.labels():
            assert np.array_equal(fc.for_label(y).values, old.for_label(y).values)
            assert np.array_equal(fc.at(y, subsets), old.for_label(y).values)
        else:
            want = key_error(lambda: old.for_label(y))
            assert key_error(lambda: fc.for_label(y)) == want
            assert key_error(lambda: fc.at(y, subsets)) == want
    with pytest.raises(ValueError, match=rf"^y has a bitmask {1 << k} outside \[0, {1 << k}\) for k={k}$"):
        fc.for_label(1 << k)
    if len(old.labels()) == 1 << k:
        assert np.array_equal(fc.table_matrix(), old.table_matrix())
    else:
        assert key_error(fc.table_matrix) == key_error(old.table_matrix)
    spec_less = PolymatroidCollection(fc.k, fc.values, fc.rows)  # pins the table writer
    assert json.dumps(collection_to_obj(spec_less)) == json.dumps(dict_collection_to_obj(old))
    assert collection_to_obj(fc) == SPEC_FORMS.get(name, collection_to_obj(spec_less))


@pytest.mark.parametrize("name, fc, old", CASES, ids=IDS)
def test_chain_gains_are_bit_identical(name, fc, old):
    rng = np.random.default_rng(len(name))
    k, n = fc.k, 200
    noise = rng.normal(0, 1, (n, k)) * (rng.random((n, k)) < 0.5)  # half the entries tie exactly
    W = np.maximum(rng.choice([0.0, 0.25, 0.5, 1.0, 1.5], size=(n, k)) + noise, 0.0)
    labels = np.array(old.labels())
    y_bits = rng.choice(labels, size=n)
    for y in (y_bits, int(labels[-1]), y_bits[:1]):
        got, want = chain_gains(fc, W, y), dict_chain_gains(old, W, y)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    missing = sorted(set(range(1 << k)) - set(old.labels()))
    if missing:
        bad = np.concatenate([y_bits, missing[::-1]])
        W2 = np.vstack([W, W[:len(missing)]])
        assert key_error(lambda: chain_gains(fc, W2, bad)) == key_error(lambda: dict_chain_gains(old, W2, bad))


def test_symmetric_index_is_a_broadcast():
    fc = PolymatroidCollection.from_setfn(make_sqrt_card(10))
    assert fc.values.shape == (1, 1024) and fc.rows.strides == (0,)
    assert not fc.values.flags.writeable and not fc.rows.flags.writeable


@pytest.mark.parametrize("fc", [make_jaccard(3), PolymatroidCollection.from_setfn(make_sqrt_card(3)),
                                random_collection(3, np.random.default_rng(1))],
                         ids=["rule", "shared-table", "per-label"])
def test_at_rejects_bitmasks_outside_the_range(fc):
    """A subset past 2^k used to read the next label's row, and a negative label wrapped to the last one."""
    for y, S, name, bad in ((0, 9, "S", 9), (-1, 0, "y", -1), (8, 0, "y", 8), (0, -1, "S", -1),
                            (np.array([0, 8]), np.array([1, 2]), "y", 8), (0, np.array([[3], [8]]), "S", 8)):
        with pytest.raises(ValueError, match=rf"^{name} has a bitmask {bad} outside \[0, 8\) for k=3$"):
            fc.at(y, S)
    with pytest.raises(ValueError, match="S must be integer bitmasks, got dtype float64"):
        fc.at(0, 1.0)
    assert fc.at(7, 7) == fc.for_label(7).values[7]


def test_from_per_label_rejects_labels_outside_the_range():
    f = make_zero_one(2)
    for bad in (7, -1, 4):
        with pytest.raises(ValueError, match=rf"^label has a bitmask {bad} outside \[0, 4\) for k=2$"):
            PolymatroidCollection.from_per_label(2, {0: f, bad: f})


def test_collection_loader_rejects_labels_outside_the_range():
    table = setfn_to_obj(make_zero_one(2))
    with pytest.raises(ValueError, match=r"^label has a bitmask -1 outside \[0, 4\) for k=2$"):
        collection_from_obj({"k": 2, "per_label": {"7": table, "-1": table}})
    with pytest.raises(ValueError, match=r"^label has a bitmask 4 outside \[0, 4\) for k=2$"):
        collection_from_obj({"k": 2, "per_label": {"0": table, "4": table}})
    with pytest.raises(ValueError, match=r"^label has a bitmask 9 outside \[0, 4\) for k=2$"):
        collection_from_obj({"k": 2, "symmetric": True, "per_label": {"9": table}})
    with pytest.raises(ValueError, match=r"^per_label\[0\] has k=2, but the collection has k=3$"):
        collection_from_obj({"k": 3, "symmetric": True, "per_label": {"0": table}})
