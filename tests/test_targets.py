import itertools

import numpy as np
import pytest

from lovasz_abstain import (
    AbstainReport,
    Label,
    abs_set,
    bep_loss,
    enumerate_reports,
    hinge,
    make_modular,
    make_sqrt_card,
    make_zero_one,
    mean_value,
    mis,
    random_collection,
    target_abstain,
    target_plain,
)
from lovasz_abstain.multiclass import bep_surrogate
from lovasz_abstain.oracle import argmin_ids, grid_distributions, point_mass, uniform
from lovasz_abstain.setfn import PolymatroidCollection, as_collection
from lovasz_abstain.targets import (
    _report_at,
    _report_id_table,
    _report_masks,
    _report_signs,
    abstain_loss_table,
    plain_loss_table,
    report_index,
)

from conftest import builtin_collections


def test_mis_examples():
    y = Label.from_string("++")
    assert mis(AbstainReport.from_string("+0"), y) == 0b10
    assert mis(AbstainReport.from_string("++"), y) == 0
    assert mis(AbstainReport.from_string("00"), Label.from_string("-+")) == 0b11
    assert mis(Label.from_string("+-"), Label.from_string("-+")) == 0b11


def test_abs_set():
    assert abs_set(AbstainReport.from_string("+0-")) == 0b010
    assert abs_set(AbstainReport.from_string("00")) == 0b11
    assert abs_set(Label.from_string("+-")) == 0


def test_target_plain():
    zo = make_zero_one(3)
    y = Label.from_string("+-+")
    assert target_plain(zo, y, y) == 0.0
    assert target_plain(zo, Label.from_string("-++"), y) == 1.0
    w = [0.5, 2.0, 1.5]
    f = make_modular(w)
    r = Label.from_string("--+")
    expected = sum(wi for wi, ri, yi in zip(w, r.signs(), y.signs()) if ri != yi)
    assert target_plain(f, r, y) == pytest.approx(expected)
    with pytest.raises(ValueError):
        target_plain(zo, AbstainReport.from_string("+0+"), y)


def test_target_abstain_examples():
    zo = make_zero_one(2)
    y = Label.from_string("++")
    assert target_abstain(zo, AbstainReport.from_string("00"), y) == pytest.approx(1.0)
    assert target_abstain(zo, AbstainReport.from_string("++"), y) == 0.0
    assert target_abstain(zo, AbstainReport.from_string("--"), y) == pytest.approx(2.0)


def test_abstain_doubles_plain_on_labels(rng):
    for k in (1, 2, 3):
        fc = random_collection(k, rng)
        for r in range(1 << k):
            for y in range(1 << k):
                rep = AbstainReport(k, r, 0)
                assert target_abstain(fc, rep, y) == pytest.approx(
                    2 * target_plain(fc, rep, y), abs=1e-12
                )


def test_embedding_identity(rng):
    """The hinge evaluated at a report equals the two-term discrete loss."""
    for k in (1, 2, 3, 4):
        collections = list(builtin_collections(k).values())
        collections += [random_collection(k, rng) for _ in range(3)]
        for fc in collections:
            for v in enumerate_reports(k, "V"):
                vec = v.vector()
                for y in range(1 << k):
                    assert hinge(fc, vec, y) == pytest.approx(
                        target_abstain(fc, v, y), abs=1e-12
                    )


def test_bep_loss():
    assert bep_loss(3, 3, 4) == 0.0
    assert bep_loss(None, 2, 4) == 0.5
    assert bep_loss(1, 2, 4) == 1.0
    with pytest.raises(ValueError):
        bep_loss(5, 1, 4)


def test_bep_reduction():
    """The nonempty-indicator hinge is the max-margin codeword surrogate after
    substituting the negated code as the label."""
    for k in (2, 3, 4):
        f = make_zero_one(k)
        codes = list(itertools.product([-1.0, 1.0], repeat=k))
        grid = [-1.0, -0.5, 0.0, 0.5, 1.0]
        rng = np.random.default_rng(k)
        points = [np.array(p) for p in itertools.product(grid, repeat=k)] if k <= 2 else [
            rng.choice(grid, size=k) for _ in range(60)
        ]
        for code in codes:
            y = Label.from_signs([-c for c in code])
            for u in points:
                assert hinge(f, u, y) == pytest.approx(bep_surrogate(u, code), abs=1e-12)


def test_enumerate_reports_counts():
    assert len(enumerate_reports(1, "V")) == 3
    assert len(enumerate_reports(2, "V0")) == 5
    assert len(enumerate_reports(2, "Y")) == 4
    assert len(enumerate_reports(3, "V")) == 27
    v0 = enumerate_reports(3, "V0")
    assert len(v0) == 27 - 12 and all(v.n_abstain() != 1 for v in v0)
    with pytest.raises(ValueError):
        enumerate_reports(13, "V")
    with pytest.raises(ValueError):
        enumerate_reports(2, "W")


def test_enumerate_reports_deterministic():
    a = [str(v) for v in enumerate_reports(3, "V")]
    b = [str(v) for v in enumerate_reports(3, "V")]
    assert a == b
    assert sorted(set(a)) == sorted(a)


def loop_reports(k, family):
    """The nested-loop enumeration the array form replaced, kept as its reference."""
    if family == "Y":
        return [AbstainReport(k, pos, 0) for pos in range(1 << k)]
    out = []
    for zeros in range(1 << k):
        if family == "V0" and zeros.bit_count() == 1:
            continue
        free = [i for i in range(k) if not zeros >> i & 1]
        for combo in range(1 << len(free)):
            pos = 0
            for b, i in enumerate(free):
                if combo >> b & 1:
                    pos |= 1 << i
            out.append(AbstainReport(k, pos, zeros))
    out.sort(key=lambda v: (v.zeros, v.pos))
    return out


@pytest.mark.parametrize("k", range(1, 9))
def test_enumerate_reports_matches_the_loop(k):
    for family in ("V", "V0", "Y"):
        got, want = enumerate_reports(k, family), loop_reports(k, family)
        assert [(v.k, v.pos, v.zeros) for v in got] == [(v.k, v.pos, v.zeros) for v in want]
    ridx, ids = report_index(k), _report_id_table(k)
    assert len(ridx) == 3**k == (ids >= 0).sum()
    for i, v in enumerate(enumerate_reports(k, "V")):
        assert ridx[(v.pos, v.zeros)] == ids[v.pos, v.zeros] == i


@pytest.mark.parametrize("k", range(1, 9))
def test_report_signs_are_the_report_vectors(k):
    reports = enumerate_reports(k, "V")
    signs = _report_signs(k)
    assert np.array_equal(signs, np.stack([v.vector() for v in reports]))
    assert not signs.flags.writeable
    assert all(_report_at(k, i) == v for i, v in enumerate(reports))


def test_expected_target_point_mass(rng):
    f = make_sqrt_card(3)
    reports = enumerate_reports(3, "V")
    y = 0b101
    argmin = argmin_ids(abstain_loss_table(f) @ point_mass(y, 3))
    assert [str(reports[i]) for i in argmin] == [str(AbstainReport(3, y, 0))]


def test_expected_target_uniform_zero_one():
    f = make_zero_one(3)
    reports = enumerate_reports(3, "V")
    values = abstain_loss_table(f) @ uniform(3)
    zero = AbstainReport(3, 0, 0b111)
    idx = [i for i, v in enumerate(reports) if str(v) == str(zero)][0]
    assert values[idx] == pytest.approx(1.0)
    assert idx in argmin_ids(values)
    assert values.min() >= f.full() - 1e-12


def test_expected_target_uniform_modular_ties():
    w = [0.5, 1.25]
    f = make_modular(w)
    labels = np.arange(4)  # the "Y" reports: +-1 reports, no abstention
    values = abstain_loss_table(f)[_report_id_table(2)[labels, 0]] @ uniform(2)
    assert np.allclose(values, 2 * mean_value(f))
    assert np.allclose(values, f.full())
    assert len(argmin_ids(values)) == 4


def test_one_zero_domination_on_grid(rng):
    """Whenever a lone-abstention report is optimal, both sign completions are."""
    for k in (2, 3):
        f = make_sqrt_card(k)
        reports = enumerate_reports(k, "V")
        table = abstain_loss_table(f)
        m = 8 if k == 2 else 4
        for p in grid_distributions(k, m):
            values = table @ p
            best = values.min()
            for i, v in enumerate(reports):
                if v.n_abstain() == 1 and values[i] <= best + 1e-9:
                    plus = AbstainReport(k, v.pos | v.zeros, 0)
                    minus = AbstainReport(k, v.pos, 0)
                    for comp in (plus, minus):
                        j = [a for a, r in enumerate(reports) if str(r) == str(comp)][0]
                        assert values[j] <= best + 1e-9


def test_cross_dimension_rejected():
    zo = make_zero_one(3)
    with pytest.raises(ValueError):
        target_abstain(zo, AbstainReport.from_string("+0"), Label.from_string("+++"))
    with pytest.raises(ValueError):
        target_abstain(zo, AbstainReport.from_string("+0-"), Label.from_string("++"))
    with pytest.raises(ValueError):
        mis(AbstainReport.from_string("+0"), Label.from_string("+++"))
    with pytest.raises(ValueError):
        target_plain(zo, Label.from_string("+-"), Label.from_string("+-+"))


def test_report_round_trip():
    for s in ("+0-", "000", "++", "-"):
        assert str(AbstainReport.from_string(s)) == s
    v = AbstainReport.from_string("+0-")
    assert v.vector().tolist() == [1.0, 0.0, -1.0]
    assert AbstainReport.from_vector(v.vector()).pos == v.pos
    with pytest.raises(ValueError):
        AbstainReport(2, 0b01, 0b01)


def test_report_and_label_strings_reject_bad_characters():
    with pytest.raises(ValueError, match="'x'"):
        Label.from_string("+x")
    with pytest.raises(ValueError, match="'x'"):
        AbstainReport.from_string("+0x")


def _loss_table_by_agreement(fc):
    """abstain_loss_table written out through the agreement set of each cell."""
    fc = as_collection(fc)
    full = (1 << fc.k) - 1
    pos, zeros = _report_masks(fc.k)
    y, pos, zeros = np.arange(full + 1), pos[:, None], zeros[:, None]
    neg = full & ~(pos | zeros)
    m = full & ~((pos & y) | (neg & ~y & full))
    return fc.at(y, m & ~zeros) + fc.at(y, m)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_abstain_loss_table_matches_the_agreement_formula(k):
    rng = np.random.default_rng(k)
    collections = [*builtin_collections(k).values(), random_collection(k, rng, symmetric=False)]
    for fc in collections:
        assert np.array_equal(abstain_loss_table(fc), _loss_table_by_agreement(fc))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_loss_tables_skip_the_checked_read(k, monkeypatch):
    """Both tables build their masks in range, so they read the collection
    without at's range checks, and give the same tables as the checked read."""
    rng = np.random.default_rng(10 + k)
    collections = [as_collection(f) for f in builtin_collections(k).values()]
    collections.append(random_collection(k, rng, symmetric=False))
    y = np.arange(1 << k)
    expected = [(_loss_table_by_agreement(fc), fc.at(y, y[:, None] ^ y)) for fc in collections]

    def checked_read(self, y, S):
        raise AssertionError("the loss tables must not pay for at's range checks")

    monkeypatch.setattr(PolymatroidCollection, "at", checked_read)
    for fc, (abstain, plain) in zip(collections, expected):
        assert np.array_equal(abstain_loss_table(fc), abstain)
        assert np.array_equal(plain_loss_table(fc), plain)
