import itertools

import numpy as np
import pytest

from lovasz_abstain import (
    BlockCodec,
    ClassCosts,
    ClassLabel,
    LinkConfig,
    MulticlassReport,
    bep_ova_incompatibility,
    encode_bep,
    hinge,
    lift_polymatroid,
    make_modular,
    make_sqrt_card,
    make_zero_one,
    multiclass_surrogate,
    multiclass_target,
    onehot_lift,
    trimmed_link,
    validate_polymatroid,
    verify_block_domination,
)
from lovasz_abstain import multiclass
from lovasz_abstain.multiclass import (
    bep_loss,
    decode_bep,
    mis_class,
    onehot_encode,
    ova_jaccard_costs,
    ova_target,
)
from lovasz_abstain.links import threshold_abstain_link
from lovasz_abstain.oracle import argmin_ids
from lovasz_abstain.targets import enumerate_reports, target_abstain


def test_codec_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        BlockCodec(3)
    with pytest.raises(ValueError):
        BlockCodec(1)


def test_code_round_trip():
    for C in (2, 4, 8, 16):
        codec = BlockCodec(C)
        seen = set()
        for c in range(1, C + 1):
            bits = codec.code_bits(c)
            assert codec.decode_bits(bits) == c
            seen.add(bits)
        assert len(seen) == C


def test_paper_code_words():
    codec = BlockCodec(8)
    assert codec.code_signs(7).tolist() == [1, 1, 1]
    assert codec.code_signs(5).tolist() == [1, -1, 1]
    assert codec.code_signs(1).tolist() == [-1, -1, 1]
    assert codec.code_signs(2).tolist() == [-1, 1, -1]
    assert codec.code_signs(8).tolist() == [-1, -1, -1]


def test_encode_bep():
    codec = BlockCodec(8)
    assert encode_bep(ClassLabel(8, (7,)), codec) == 0b111
    assert encode_bep(ClassLabel(8, (5,)), codec) == 0b101
    y = ClassLabel(8, (7, 3))
    bits = encode_bep(y, codec)
    assert decode_bep(bits, 2, codec).classes == (7, 3)
    two = BlockCodec(2)
    assert encode_bep(ClassLabel(2, (1, 2, 1)), two) == 0b101


def test_lift_blocks_touched():
    codec = BlockCodec(4)
    g = ClassCosts.from_setfn(make_sqrt_card(2))
    lifted = lift_polymatroid(g, codec, 2)
    f = lifted.for_label(0)
    assert f.k == 4
    for s in range(16):
        touched = sum(1 for i in (0, 1) if (s >> (2 * i)) & 0b11)
        assert f.eval(s) == pytest.approx(np.sqrt(touched))
    assert f.eval(0) == 0.0
    assert f.eval(0b1111) == pytest.approx(g.shared.full())
    assert validate_polymatroid(f).valid


def test_lift_asymmetric_class_weighted():
    codec = BlockCodec(2)
    g = ClassCosts(2, weights_by_class=[1.0, 3.0])
    lifted = lift_polymatroid(g, codec, 2)
    y = ClassLabel(2, (2, 1))
    fy = lifted.for_label(encode_bep(y, codec))
    assert fy.eval(0b01) == pytest.approx(3.0)  # block 1 touched, class 2
    assert fy.eval(0b10) == pytest.approx(1.0)
    assert validate_polymatroid(fy).valid


def test_multiclass_target_examples():
    g = ClassCosts.from_setfn(make_sqrt_card(4))
    y = ClassLabel(4, (1, 2, 3, 4))
    assert multiclass_target(g, MulticlassReport(4, (1, 2, 3, 4)), y) == 0.0
    assert multiclass_target(g, MulticlassReport(4, (0, 0, 0, 0)), y) == pytest.approx(2.0)
    gw = ClassCosts(2, weights_by_class=[0.5, 2.0])
    y2 = ClassLabel(4, (1, 2))
    v2 = MulticlassReport(4, (0, 3))
    # mis = {1,2}, abs = {1}: w(y_2) + (w(y_1) + w(y_2))
    assert multiclass_target(gw, v2, y2) == pytest.approx(2.0 + 2.5)


def test_multiclass_surrogate_reductions():
    codec = BlockCodec(4)
    g = ClassCosts.from_setfn(make_sqrt_card(2))
    y = ClassLabel(4, (3, 1))
    bits = encode_bep(y, codec)
    signs = np.where((bits >> np.arange(4)) & 1 == 1, 1.0, -1.0)
    assert multiclass_surrogate(g, codec, signs, y) == 0.0
    assert multiclass_surrogate(g, codec, np.zeros(4), y) == pytest.approx(
        g.shared.full()
    )
    # binary case degenerates to the plain hinge
    two = BlockCodec(2)
    gz = ClassCosts.from_setfn(make_zero_one(1))
    yb = ClassLabel(2, (2,))
    for u in ([-0.7], [0.3], [1.4]):
        assert multiclass_surrogate(gz, two, u, yb) == pytest.approx(
            hinge(make_zero_one(1), u, encode_bep(yb, two))
        )


def test_trimmed_link():
    codec = BlockCodec(8)
    cfg = LinkConfig(epsilon=1 / 6, tau=0.0)
    out = trimmed_link([0.7, -0.7, 0.7], cfg, codec)
    assert out.entries == (5,)
    cfg_abstain = LinkConfig(epsilon=1 / 6, tau=1.0)
    out = trimmed_link([0.7, -0.7, 0.7], cfg_abstain, codec)
    assert out.entries == (0,)
    # a partially confident block abstains as a whole
    out = trimmed_link([0.9, 0.05, 0.9], LinkConfig(epsilon=1 / 6, tau=0.5), codec)
    assert out.entries == (0,)
    with pytest.raises(ValueError):
        trimmed_link([0.9, 0.9, 0.9], LinkConfig(epsilon=0.5, tau=0.5), codec)


@pytest.mark.parametrize("u", [[], [[0.7, -0.7, 0.7]], [0.7, np.nan, 0.7]], ids=["empty", "2-d", "nan"])
def test_trimmed_link_rejects_bad_u(u):
    with pytest.raises(ValueError, match="^u has"):
        trimmed_link(u, LinkConfig(epsilon=0.1), BlockCodec(4))


def test_block_domination():
    cases = [
        (ClassCosts.from_setfn(make_sqrt_card(2)), BlockCodec(2), 2),
        (ClassCosts.from_setfn(make_sqrt_card(1)), BlockCodec(4), 1),
        (ClassCosts.from_setfn(make_sqrt_card(2)), BlockCodec(4), 2),
        (ClassCosts.from_setfn(make_zero_one(2)), BlockCodec(4), 2),
        (ClassCosts(1, weights_by_class=[0.5, 1, 2, 0.25]), BlockCodec(4), 1),
    ]
    for g, codec, k in cases:
        assert verify_block_domination(g, codec, k).passed


def test_onehot_worked_example():
    """Two predictions over dog/cat/bird: a cat-vs-bird confusion on the first
    prediction shows up on exactly the cat and bird score bits."""
    C, k = 3, 2
    yp = ClassLabel(C, (3, 3))
    y = ClassLabel(C, (2, 3))
    assert mis_class(yp, y, 1) == 0
    assert mis_class(yp, y, 2) == 0b01
    assert mis_class(yp, y, 3) == 0b01
    vb, yb = onehot_encode(yp), onehot_encode(y)
    bit_mis = vb ^ yb
    assert bit_mis == (1 << 1) | (1 << 2)  # the cat bit and the bird bit


def test_onehot_lift_equality():
    """The averaged lift reading encoded mispredictions reproduces the
    one-vs-all target, exhaustively for small C and k."""
    for C, k in ((2, 1), (2, 2), (3, 2)):
        g = ova_jaccard_costs(C, k)
        lifted = onehot_lift(g, C, k)
        labels = [ClassLabel(C, t) for t in itertools.product(range(1, C + 1), repeat=k)]
        for y in labels:
            fy = lifted.for_label(onehot_encode(y))
            for yp in labels:
                lhs = fy.eval(onehot_encode(yp) ^ onehot_encode(y))
                rhs = ova_target(g, yp, y)
                assert lhs == pytest.approx(rhs, abs=1e-12), (C, k, yp, y)
            assert fy.eval(0) == 0.0


def test_end_to_end_multiclass_calibration(rng):
    """Optimal reports perturbed inside the thickening link back into the
    multiclass optimal set after trimming."""
    C, k = 4, 1
    codec = BlockCodec(C)
    g = ClassCosts.from_setfn(make_sqrt_card(k))
    lifted = lift_polymatroid(g, codec, k)
    n = codec.d * k
    eps = 1 / (2 * n)
    reports = enumerate_reports(n, "V")
    mc_reports = [MulticlassReport(C, (c,)) for c in range(0, C + 1)]
    labels = [ClassLabel(C, (c,)) for c in range(1, C + 1)]

    from lovasz_abstain.oracle import grid_distributions

    for p4 in grid_distributions(2, 6):  # 2^2 labels = 4 classes
        p_bits = np.zeros(1 << n)
        for c, y in enumerate(labels):
            p_bits[encode_bep(y, codec)] = p4[c]
        bit_vals = np.array(
            [sum(p_bits[encode_bep(y, codec)] * target_abstain(lifted, v, encode_bep(y, codec))
                 for y in labels) for v in reports]
        )
        mc_vals = np.array(
            [sum(p4[c] * multiclass_target(g, v, y) for c, y in enumerate(labels))
             for v in mc_reports]
        )
        mc_opt = argmin_ids(mc_vals)
        for vid in argmin_ids(bit_vals):
            vec = reports[vid].vector()
            for _ in range(6):
                u = vec + rng.uniform(-0.99 * eps, 0.99 * eps, n)
                for tau in (0.0, 0.5, 1.0):
                    out = trimmed_link(u, LinkConfig(epsilon=eps, tau=tau), codec)
                    out_id = mc_reports.index(
                        next(m for m in mc_reports if m.entries == out.entries)
                    )
                    assert out_id in mc_opt


def test_bep_ova_incompatibility():
    rep = bep_ova_incompatibility(make_zero_one(1))
    assert rep.incompatible
    assert "no submodular f exists" in rep.message
    assert rep.bit_mis_close == 0b010 and rep.bit_mis_far == 0b110
    assert rep.forced_far < rep.forced_close
    trivial = bep_ova_incompatibility(make_modular([0.0]))
    assert not trivial.incompatible


def test_bep_ova_incompatibility_checks_its_worked_example(monkeypatch):
    monkeypatch.setattr(multiclass, "mis_class", lambda v, y, c: 0)
    with pytest.raises(RuntimeError, match="one-vs-all"):
        bep_ova_incompatibility(make_zero_one(1))


def test_class_label_parsing():
    y = ClassLabel.from_string(8, "7,3")
    assert y.classes == (7, 3) and str(y) == "7,3"
    v = MulticlassReport.from_string(8, "5,_")
    assert v.entries == (5, 0) and str(v) == "5,_"
    with pytest.raises(ValueError):
        ClassLabel(4, (0,))
    with pytest.raises(ValueError):
        MulticlassReport(4, (5,))


@pytest.mark.parametrize("call, message", [
    (lambda: ClassLabel(4, (1.5, 2)), "classes must be an integer in [1, 4], got classes=1.5"),
    (lambda: ClassLabel(4, (True, 2)), "classes must be an integer in [1, 4], got classes=True"),
    (lambda: ClassLabel(4, ("2",)), "classes must be an integer in [1, 4], got classes='2'"),
    (lambda: MulticlassReport(4, (True, 0)), "entries must be an integer in [0, 4], got entries=True"),
    (lambda: MulticlassReport(4, (2.0, 0)), "entries must be an integer in [0, 4], got entries=2.0"),
    (lambda: bep_loss(1.5, 1, 4), "r must be an integer in [1, 4], got r=1.5"),
    (lambda: bep_loss(True, 1, 4), "r must be an integer in [1, 4], got r=True"),
    (lambda: bep_loss(1, 2.0, 4), "y must be an integer in [1, 4], got y=2.0"),
    (lambda: bep_loss(None, 5, 4), "y must be an integer in [1, 4], got y=5"),
    (lambda: ClassLabel.from_string(4, "1,x"), "s must be comma-separated integers, got '1,x'"),
    (lambda: ClassLabel.from_string(4, "1,"), "s must be comma-separated integers, got '1,'"),
    (lambda: ClassLabel.from_string(4, "1.5,2"), "s must be comma-separated integers, got '1.5,2'"),
    (lambda: MulticlassReport.from_string(4, "1_0,_"), "s must be comma-separated integers or _, got '1_0,_'"),
    (lambda: ClassLabel(4.5, (1,)), "C must be an integer >= 1, got C=4.5"),
    (lambda: ClassLabel(True, (1,)), "C must be an integer >= 1, got C=True"),
    (lambda: MulticlassReport(0, ()), "C must be an integer >= 1, got C=0"),
    (lambda: MulticlassReport(0, (0,)), "C must be an integer >= 1, got C=0"),
    (lambda: ClassLabel(4, 3), "classes must be a sequence of integers, got 3"),
    (lambda: MulticlassReport(4, None), "entries must be a sequence of integers, got None"),
    (lambda: BlockCodec(4).decode_bits(7), "bits must be an integer in [0, 3], got bits=7"),
    (lambda: BlockCodec(8).decode_bits(-1), "bits must be an integer in [0, 7], got bits=-1"),
    (lambda: BlockCodec(4.0), "C must be an integer >= 1, got C=4.0"),
    (lambda: BlockCodec(True), "C must be an integer >= 1, got C=True"),
    (lambda: BlockCodec("4"), "C must be an integer >= 1, got C='4'"),
    (lambda: BlockCodec(np.int64(6)), "block codec needs a power-of-two class count, got 6"),
    (lambda: BlockCodec(4).code_bits(2.5), "c must be an integer in [1, 4], got c=2.5"),  # numpy's TypeError before
    (lambda: BlockCodec(4).code_bits(True), "c must be an integer in [1, 4], got c=True"),
    (lambda: BlockCodec(4).code_bits(5), "c must be an integer in [1, 4], got c=5"),
    (lambda: BlockCodec(4).decode_bits(2.0), "bits must be an integer in [0, 3], got bits=2.0"),
    (lambda: BlockCodec(4).decode_bits(True), "bits must be an integer in [0, 3], got bits=True"),
], ids=["float-class", "bool-class", "string-class", "bool-entry", "float-entry", "float-r", "bool-r", "float-y",
        "y-out-of-range", "label-word", "label-empty-token", "label-float", "report-underscore-digits",
        "fractional-C", "bool-C", "zero-C", "zero-C-abstain-entry", "scalar-classes", "none-entries",
        "bits-outside-the-code", "negative-bits", "float-codec-C", "bool-codec-C", "string-codec-C",
        "numpy-codec-C-not-a-power-of-two", "float-code-class", "bool-code-class", "code-class-out-of-range",
        "float-bits", "bool-bits"])
def test_class_values_must_be_integers(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_class_values_accept_integers():
    assert ClassLabel(4, (np.int64(2), 4)).classes == (2, 4)
    assert ClassLabel(np.int64(1), (1,)).classes == (1,)
    codec = BlockCodec(np.int64(4))  # once raised AttributeError
    assert (codec.C, codec.d, type(codec.C)) == (4, 2, int) and codec.decode_bits(codec.code_bits(3)) == 3
    # a list is stored as a tuple: hash() of ClassLabel(4, [1, 2]) once raised TypeError
    assert ClassLabel(4, [1, 2]) == ClassLabel(4, (1, 2)) and hash(ClassLabel(4, [1, 2])) == hash(ClassLabel(4, (1, 2)))
    assert MulticlassReport(4, np.array([0, 3])).entries == (0, 3)
    assert hash(MulticlassReport(4, [0, 3])) == hash(MulticlassReport(4, (0, 3)))
    assert ClassLabel.from_string(8, " 7,+3").classes == (7, 3)
    assert bep_loss(None, 2, 4) == 0.5 and bep_loss(2, 2, 4) == 0.0 and bep_loss(3, 2, 4) == 1.0


@pytest.mark.parametrize("call, message", [
    (lambda: MulticlassReport(4, (1,)).mis_abs(ClassLabel(4, (2, 3, 4))),  # once (1, 0): the common prefix
     "y has k=3 and C=4, but v has k=1 and C=4"),
    (lambda: MulticlassReport(4, (1, 2)).mis_abs(ClassLabel(8, (1, 2))), "y has k=2 and C=8, but v has k=2 and C=4"),
    (lambda: mis_class(ClassLabel(4, (1,)), ClassLabel(4, (2, 1, 1)), 1),  # once 1
     "y has k=3 and C=4, but yp has k=1 and C=4"),
    (lambda: mis_class(ClassLabel(4, (1,)), ClassLabel(2, (1,)), 1), "y has k=1 and C=2, but yp has k=1 and C=4"),
    (lambda: ova_target(ova_jaccard_costs(4, 2), ClassLabel(4, (1,)), ClassLabel(4, (2, 1))),
     "y has k=2 and C=4, but yp has k=1 and C=4"),
    (lambda: ova_target(ova_jaccard_costs(4, 2), ClassLabel(4, (1, 2)), ClassLabel(8, (1, 2))),
     "y has k=2 and C=8, but yp has k=2 and C=4"),
    (lambda: multiclass_target(make_sqrt_card(2), MulticlassReport(4, (1, 2)), ClassLabel(8, (1, 2))),  # once 0.0
     "y has k=2 and C=8, but v has k=2 and C=4"),
    (lambda: multiclass_target(make_sqrt_card(2), MulticlassReport(4, (1,)), ClassLabel(4, (1, 2))),
     "y has k=2 and C=4, but v has k=1 and C=4"),
    (lambda: multiclass_target(make_sqrt_card(3), MulticlassReport(4, (1, 2)), ClassLabel(4, (1, 2))),
     "y has k=2, but ClassCosts has k=3"),
    (lambda: ClassCosts(2, weights_by_class=[1.0, 2.0]).for_label(ClassLabel(2, (1,))),
     "y has k=1, but ClassCosts has k=2"),
    (lambda: ClassCosts.from_setfn(make_sqrt_card(2)).for_label(ClassLabel(4, (1, 2, 3))),
     "y has k=3, but ClassCosts has k=2"),
], ids=["mis-abs-k", "mis-abs-C", "mis-class-k", "mis-class-C", "ova-k", "ova-C", "target-C", "target-k",
        "target-cost-k", "weights-k", "shared-k"])
def test_labels_must_match_the_report_and_the_costs(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize("call", [
    lambda: lift_polymatroid(make_sqrt_card(3), BlockCodec(4), 2),
    lambda: multiclass_surrogate(make_sqrt_card(3), BlockCodec(4), [0, 0, 0, 0], ClassLabel(4, (1, 2))),
    lambda: verify_block_domination(make_sqrt_card(2), BlockCodec(4), 3),
    lambda: verify_block_domination(ClassCosts(2, weights_by_class=[1.0, 2.0, 3.0, 4.0]), BlockCodec(4), 1),
], ids=["lift", "surrogate", "block-domination", "block-domination-class-weights"])
def test_costs_must_match_the_lifted_k(call):
    with pytest.raises(ValueError, match=r"^g has k=\d+, but the lift has k=\d+$"):
        call()


def test_class_weights_must_cover_the_label():
    gw = ClassCosts(2, weights_by_class=[0.5, 2.0])
    assert multiclass_target(gw, MulticlassReport(4, (0, 2)), ClassLabel(4, (1, 2))) == pytest.approx(0.5)
    with pytest.raises(ValueError, match="weights_by_class has 2 weights, none for class 3"):
        multiclass_target(gw, MulticlassReport(4, (0, 2)), ClassLabel(4, (3, 2)))


def test_trimmed_link_matches_the_block_loop_over_the_link(rng):
    """trimmed_link against the plain link's report, decoded one block at a time."""
    codec = BlockCodec(4)
    points = rng.uniform(-1.2, 1.2, (300, 6))
    points[rng.random(points.shape) < 0.2] = 0.0
    for tau in (0.0, 0.5, 1.0):
        cfg = LinkConfig(epsilon=1 / 12, tau=tau)
        for u in points:
            v = threshold_abstain_link(u, cfg)
            blocks = [((v.pos >> (2 * i)) & 3, (v.zeros >> (2 * i)) & 3) for i in range(3)]
            want = tuple(0 if z else codec.decode_bits(p) for p, z in blocks)
            assert trimmed_link(u, cfg, codec).entries == want
