"""The block code table and the class-label array against per-label loops.

BlockCodec holds its code as one table, the lift and the block domination
sweep read all C^k class labels as one array, and the surrogate lifts only its
own label's table. Each is held here to a test-local copy of the loop it
replaced, bit for bit, and the sweeps are checked to build no ClassLabel.
"""

import numpy as np
import pytest

from lovasz_abstain import make_modular, make_sqrt_card, make_zero_one, multiclass
from lovasz_abstain.lovasz import hinge
from lovasz_abstain.multiclass import (
    BlockCodec,
    ClassCosts,
    ClassLabel,
    lift_polymatroid,
    multiclass_surrogate,
    verify_block_domination,
)
from lovasz_abstain.setfn import PolymatroidCollection, SetFunction

SIZES = [(2, 1), (2, 2), (2, 3), (2, 4), (4, 1), (4, 2), (4, 3), (8, 1), (8, 2)]


def loop_code(c, C):
    """Class c's code word: the digits of c mod C, most significant at bit 0."""
    d = C.bit_length() - 1
    return sum(((c % C) >> (d - 1 - j) & 1) << j for j in range(d))


def loop_labels(C, k):
    """Every class label in np.ndindex order, and its concatenated code words."""
    d = C.bit_length() - 1
    ys = [tuple(c + 1 for c in t) for t in np.ndindex(*([C] * k))]
    return ys, [sum(loop_code(c, C) << (i * d) for i, c in enumerate(y)) for y in ys]


def loop_lift(g, C, k):
    """The lift as one table per class label, read through ClassCosts.for_label."""
    d = C.bit_length() - 1
    n = d * k
    block_sets = [sum(1 << i for i in range(k) if s >> (i * d) & ((1 << d) - 1)) for s in range(1 << n)]
    ys, labels = loop_labels(C, k)
    if g.weights is None:
        return PolymatroidCollection.from_setfn(SetFunction(n, g.shared.values[block_sets]))
    values = np.array([g.for_label(ClassLabel(C, y)).values for y in ys])[:, block_sets]
    return PolymatroidCollection.from_tables(n, labels, values)


def costs(C, k, rng):
    return {"shared": ClassCosts.from_setfn(make_sqrt_card(k)),
            "weights": ClassCosts(k, weights_by_class=rng.uniform(0.0, 3.0, C) ** 3)}


@pytest.mark.parametrize("C", [2, 4, 8, 16, 1 << 10])
def test_code_table_matches_the_digit_loop(C):
    codec = BlockCodec(C)
    want = [loop_code(c, C) for c in range(1, C + 1)]
    assert codec.codes.dtype == codec.classes.dtype == np.int64
    assert codec.codes.tolist() == want and [codec.code_bits(c) for c in range(1, C + 1)] == want
    assert [codec.decode_bits(b) for b in want] == list(range(1, C + 1))
    assert codec.classes[want].tolist() == list(range(1, C + 1))
    assert all(type(codec.code_bits(c)) is int and type(codec.decode_bits(c - 1)) is int for c in (1, C))


def test_code_table_is_built_up_to_its_cap():
    codec = BlockCodec(1 << 20)
    assert codec.codes.nbytes == codec.classes.nbytes == 8 << 20
    assert [codec.code_bits(c) for c in (1, 5, 1 << 20)] == [loop_code(c, 1 << 20) for c in (1, 5, 1 << 20)]
    assert codec.decode_bits(loop_code(12345, 1 << 20)) == 12345
    with pytest.raises(ValueError, match=r"^code table of C=2097152 classes capped at d <= 20, got d=21$"):
        BlockCodec(1 << 21)


@pytest.mark.parametrize("C, k", SIZES)
def test_label_array_matches_the_label_loop(C, k):
    classes = multiclass._class_labels(C, k)
    ys, labels = loop_labels(C, k)
    assert classes.shape == (C**k, k) and [tuple(row) for row in classes.tolist()] == ys
    assert np.array_equal(multiclass._label_bits(classes, BlockCodec(C)), labels)


@pytest.mark.parametrize("C, k", SIZES)
def test_lift_and_surrogate_match_the_per_label_loop(C, k, rng):
    codec = BlockCodec(C)
    ys, labels = loop_labels(C, k)
    for name, g in costs(C, k, rng).items():
        got, want = lift_polymatroid(g, codec, k), loop_lift(g, C, k)
        assert np.array_equal(got.values, want.values) and np.array_equal(got.rows, want.rows), name
        for i in rng.choice(len(ys), size=min(len(ys), 6), replace=False):
            u = rng.uniform(-1.5, 1.5, codec.d * k)
            assert multiclass_surrogate(g, codec, u, ClassLabel(C, ys[i])) == hinge(want, u, labels[i]), (name, ys[i])


def counting(monkeypatch, cls, name):
    calls = []
    real = getattr(cls, name)

    def wrapper(self, *args, **kwargs):
        calls.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, wrapper)
    return calls


def test_the_lift_and_the_domination_sweep_build_no_class_label(monkeypatch, rng):
    calls = counting(monkeypatch, ClassLabel, "__init__")
    for C, k in ((2, 3), (4, 2), (8, 1)):
        lift_polymatroid(ClassCosts.from_setfn(make_zero_one(k)), BlockCodec(C), k)
        for g in costs(C, k, rng).values():
            assert verify_block_domination(g, BlockCodec(C), k).passed
    assert calls == []


def test_the_surrogate_reads_one_label_table(monkeypatch, rng):
    calls = counting(monkeypatch, ClassCosts, "for_label")
    codec, y = BlockCodec(4), ClassLabel(4, (3, 1))
    for g in costs(4, 2, rng).values():
        calls.clear()
        multiclass_surrogate(g, codec, [0.2, -0.4, 0.9, 0.0], y)
        assert calls == [(y,)]


def test_the_surrogate_needs_weights_for_its_own_label_only():
    g, codec = ClassCosts(1, weights_by_class=[1.0, 2.0]), BlockCodec(4)
    with pytest.raises(ValueError, match=r"^weights_by_class has 2 weights, none for class 3$"):
        lift_polymatroid(g, codec, 1)
    u = [0.3, -0.2]
    want = hinge(lift_polymatroid(make_modular([2.0]), codec, 1), u, loop_code(2, 4))
    assert multiclass_surrogate(g, codec, u, ClassLabel(4, (2,))) == want


def test_costs_are_refused_unless_one_kind_is_given():
    with pytest.raises(ValueError, match="^exactly one of shared / weights_by_class must be given$"):
        ClassCosts(1)
    with pytest.raises(TypeError, match="^expected ClassCosts or SetFunction"):
        lift_polymatroid([1.0], BlockCodec(2), 1)
