import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lovasz_abstain import (
    Label,
    PolymatroidCollection,
    SetFunction,
    check_condition1,
    enumerate_reports,
    hinge,
    make_concave_card,
    make_jaccard,
    make_modular,
    make_sqrt_card,
    make_zero_one,
    mean_value,
    random_collection,
    random_polymatroid,
    validate_polymatroid,
    verify_representative,
)
from lovasz_abstain import setfn
from lovasz_abstain.oracle import calibration_sweep, thickened_envelope_grid

from conftest import symmetric_builtins


def brute_force_submodular(f, strict=False):
    """All-pairs oracle for the submodular inequality, independent of the
    exchange-based validator."""
    n = 1 << f.k
    ok = True
    strict_ok = True
    for s in range(n):
        for t in range(n):
            lhs = f.values[s] + f.values[t]
            rhs = f.values[s | t] + f.values[s & t]
            if lhs < rhs - 1e-9:
                ok = False
            incomparable = (s & ~t) and (t & ~s)
            if incomparable and lhs <= rhs + 1e-9:
                strict_ok = False
    return (ok, strict_ok) if strict else ok


def brute_force_increasing(f, strict=False):
    n = 1 << f.k
    ok = True
    strict_ok = True
    for s in range(n):
        for t in range(n):
            if s & t:
                continue
            if f.values[s | t] < f.values[s] - 1e-9:
                ok = False
            if t and f.values[s | t] <= f.values[s] + 1e-9:
                strict_ok = False
    return (ok, strict_ok) if strict else ok


def test_eval_examples():
    zo = make_zero_one(2)
    assert zo.eval(0b00) == 0.0
    assert zo.eval(0b01) == 1.0
    assert make_modular([2, 3]).eval(0b11) == 5.0


def test_eval_range_error():
    with pytest.raises(ValueError):
        make_zero_one(2).eval(4)


def test_modular_examples():
    assert make_modular([1, 1]).eval(0b11) == 2.0
    assert make_modular([2, 3]).eval(0b10) == 3.0
    assert make_modular([0, 5]).eval(0b01) == 0.0
    with pytest.raises(ValueError):
        make_modular([1, -0.5])


def test_blocked_modular_table_matches_the_single_product():
    """make_modular builds its table in blocks of _MODULAR_ROWS subsets; at
    k = 14 the table spans more than one block, and each value equals the one
    product over all 2^k rows bit for bit."""
    k = 14
    assert 1 << k > setfn._MODULAR_ROWS
    for seed in range(3):
        w = np.random.default_rng(seed).uniform(0, 2, k)
        assert np.array_equal(make_modular(w).values, setfn._bit_rows(np.arange(1 << k), k) @ w)


def test_zero_one_table():
    zo = make_zero_one(3)
    assert zo.eval(0) == 0.0
    assert zo.eval(0b010) == 1.0
    assert zo.eval(0b111) == 1.0


def test_jaccard_values():
    jac = make_jaccard(3)
    y = Label.from_string("++-")
    # |S|=1 committed miss against a 2-element foreground: 1 / |{3} u {1,2}|
    assert jac.for_label(y.bits).eval(0b100) == pytest.approx(1 / 3)
    for bits in range(8):
        assert jac.for_label(bits).eval(0) == 0.0
    jac2 = make_jaccard(2)
    assert jac2.for_label(Label.from_string("--").bits).eval(0b11) == pytest.approx(1.0)


def test_jaccard_full_is_one_and_condition1():
    for k in (1, 2, 3, 4):
        jac = make_jaccard(k)
        for y in range(1 << k):
            assert jac.for_label(y).full() == pytest.approx(1.0)
        assert check_condition1(jac).passed
    with pytest.raises(ValueError, match="k=13"):
        make_jaccard(13).values  # the rule reads past k = 12; the dense views do not
    for k in (0, 63):
        with pytest.raises(ValueError, match=f"k={k}"):
            make_jaccard(k)


def test_builtins_validate_up_to_k6(rng):
    for k in range(1, 7):
        for f in (make_zero_one(k), make_sqrt_card(k),
                  make_modular(rng.uniform(0, 2, k))):
            assert validate_polymatroid(f).valid


def test_concave_card():
    f = make_sqrt_card(4)
    assert f.eval(0b1111) == pytest.approx(2.0)
    assert f.eval(0) == 0.0
    assert f.eval(0b0101) == pytest.approx(math.sqrt(2), abs=1e-12)
    with pytest.raises(ValueError):
        make_concave_card(3, lambda c: c * c)  # convex
    with pytest.raises(ValueError):
        make_concave_card(3, lambda c: -c)  # decreasing
    with pytest.raises(ValueError):
        make_concave_card(3, lambda c: c + 1)  # not normalized
    with pytest.raises(ValueError, match="^g has a non-finite entry$"):
        make_concave_card(2, lambda c: math.nan * c)  # once returned a NaN table


def test_validate_modular():
    rep = validate_polymatroid(make_modular([1, 2]), strict=True)
    assert rep.valid and rep.modular
    assert rep.strictly_submodular is False


def test_validate_zero_one():
    rep = validate_polymatroid(make_zero_one(2), strict=True)
    assert rep.valid and not rep.modular
    # k=2 has a single incomparable pair and it is strict
    assert rep.strictly_submodular is True
    assert rep.strictly_increasing is False
    rep3 = validate_polymatroid(make_zero_one(3), strict=True)
    assert rep3.valid and not rep3.modular
    assert rep3.strictly_submodular is False  # {1,2} vs {2,3} ties


def test_validate_sqrt():
    rep = validate_polymatroid(make_sqrt_card(3), strict=True)
    assert rep.valid and rep.strictly_submodular and rep.strictly_increasing


def test_validator_matches_all_pairs_oracle(rng):
    for k in (2, 3, 4):
        for _ in range(10):
            f = random_polymatroid(k, rng)
            rep = validate_polymatroid(f, strict=True)
            sub, strict_sub = brute_force_submodular(f, strict=True)
            inc, strict_inc = brute_force_increasing(f, strict=True)
            assert rep.submodular == sub
            assert rep.increasing == inc
            assert rep.strictly_submodular == strict_sub
            assert rep.strictly_increasing == strict_inc


def test_validator_catches_non_submodular():
    # indicator of containing {1,2}: supermodular at the corner
    vals = np.zeros(8)
    vals[0b011] = vals[0b111] = 1.0
    vals[0b011] = 1.0
    bad = SetFunction.from_values(3, [0, 0, 0, 1, 0, 1, 1, 1])
    rep = validate_polymatroid(bad)
    assert not rep.submodular and not brute_force_submodular(bad)
    assert rep.violations


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_validator_reports_non_finite_values(bad):
    """The validator never sees a NaN or infinite value: SetFunction refuses
    the table, with the words the validator once reported it in."""
    with pytest.raises(ValueError, match=rf"^non-finite value {bad} at S=0x2$"):
        SetFunction(2, np.array([0.0, 1.0, bad, 2.0]))


def _nan_at_0b01():
    """make_sqrt_card(2)'s table with a NaN at S = 0b01."""
    values = make_sqrt_card(2).values.copy()
    values[0b01] = np.nan
    return SetFunction(2, values)


@pytest.mark.parametrize(
    "build, message",
    [(lambda: calibration_sweep(_nan_at_0b01(), 2), "non-finite value nan at S=0x1"),
     (lambda: thickened_envelope_grid(_nan_at_0b01(), [0.5, 0.2], 0.25), "non-finite value nan at S=0x1"),
     (lambda: verify_representative(_nan_at_0b01(), enumerate_reports(2, "V0")), "non-finite value nan at S=0x1"),
     (lambda: check_condition1(_nan_at_0b01()), "non-finite value nan at S=0x1"),
     (lambda: hinge(_nan_at_0b01(), [0.0, 0.0], 3), "non-finite value nan at S=0x1"),
     (lambda: make_modular([1e308, 1e308]), re.escape("sum(weights) must lie in [0, inf), got inf")),
     (lambda: PolymatroidCollection.from_tables(2, [2, 1], [[0.0, 1.0, 1.0, np.nan], [0.0, 1.0, 1.0, 1.0]]),
      "label 2: non-finite value nan at S=0x3")],
    ids=["calibration-sweep-passed-with-0-cases", "thickened-envelope-returned-all-9-reports",
         "representative-failed-at-a-point-mass", "condition1-passed", "hinge-returned-nan",
         "modular-overflowed-to-inf", "from-tables-kept-a-nan-row"],
)
def test_a_non_finite_table_is_refused_where_it_is_built(build, message):
    """Each consumer read a NaN or inf table without a check of its own: every
    comparison with NaN is False, so a sweep passed or failed on no evidence."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


# Lines of the non-finite checks that consumers wrote for themselves before
# SetFunction and PolymatroidCollection refused such tables.
FINITE_CHECK_COPIES = [
    '            raise ValueError(f"non-finite value {values.flat[bad[0]]} at S={bad[0]:#x}")',
    '        raise ValueError(f"collection has the non-finite value {F[y, s]} at f_y(S) with y={y:#x}, S={s:#x}")',
    '                                violations=[f"non-finite value {vals[s]} at S={s:#x}"])',
]


def test_only_setfn_refuses_a_non_finite_table():
    """The words "non-finite value" appear in no module but setfn.py, whose
    constructors check every table once, where it is built."""
    package = Path(setfn.__file__).parent
    hits = [f"{path.name}:{n}" for path in sorted(package.glob("*.py")) if path.name != "setfn.py"
            for n, line in enumerate(path.read_text().splitlines(), 1) if "non-finite value" in line]
    assert hits == []
    assert all("non-finite value" in line for line in FINITE_CHECK_COPIES)


def test_zero_singletons_reported():
    f = SetFunction.from_values(2, [0, 0, 1, 1])
    assert validate_polymatroid(f).zero_singletons == [1]


def test_condition1_modular_fails():
    rep = check_condition1(make_modular([1, 1, 1]))
    assert not rep.passed
    assert rep.reason == "strictness fails"


def test_condition1_perfect_recall_fails():
    # f_y(S) = 1 iff the +1 set of y is inside S: degenerate, not normalized at
    # the all-minus label, and rejected by the condition check.
    k = 2
    per_label = {}
    for y in range(1 << k):
        vals = np.array([1.0 if (s & y) == y else 0.0 for s in range(1 << k)])
        per_label[y] = SetFunction(k, vals)
    fc = PolymatroidCollection.from_per_label(k, per_label)
    assert not check_condition1(fc).passed


def loop_condition1(fc):
    """The per-(y, S) loop check_condition1 replaced, kept as its reference."""
    from lovasz_abstain.setfn import ATOL, as_collection

    fc = as_collection(fc)
    full = (1 << fc.k) - 1
    for y in range(1 << fc.k):
        fy = fc.for_label(y)
        if not fy.values[full] > fy.values[0] + ATOL:
            return False, (y, full), "f_y([k]) > f_y(empty) fails"
        fneg = fc.for_label(full ^ y)
        for s in range(1 << fc.k):
            lhs = fy.values[s] + fneg.values[full ^ s]
            rhs = fy.values[full]
            if lhs < rhs - ATOL:
                return False, (y, s), "complementary sum below f_y([k])"
            exempt = s in (0, full) or y in (0, full, full ^ s)
            if not exempt and lhs <= rhs + ATOL:
                return False, (y, s), "strictness fails"
    return True, None, ""


def condition1_cases():
    rng = np.random.default_rng(7)
    for k in range(1, 7):
        yield f"jaccard{k}", make_jaccard(k)
        yield f"sqrt{k}", make_sqrt_card(k)
    for k in (2, 3, 4):
        yield f"modular{k}", make_modular(np.arange(1, k + 1, dtype=float))
        yield f"random{k}", random_collection(k, rng)
    jac = make_jaccard(3)
    flat = {y: jac.for_label(y) for y in jac.labels()}
    flat[0b010] = SetFunction(3, np.zeros(8))  # f_y([k]) = f_y(empty) at one label
    yield "flat-label", PolymatroidCollection.from_per_label(3, flat)


@pytest.mark.parametrize("fc", [pytest.param(fc, id=name) for name, fc in condition1_cases()])
def test_condition1_matches_the_loop(fc):
    rep = check_condition1(fc)
    assert (rep.passed, rep.witness, rep.reason) == loop_condition1(fc)


def test_condition1_parity_cases_cover_every_verdict():
    verdicts = {name.rstrip("0123456789"): loop_condition1(fc) for name, fc in condition1_cases()}
    assert verdicts["jaccard"][0] and verdicts["sqrt"][0]
    assert verdicts["modular"][2] == "strictness fails"
    assert verdicts["flat-label"] == (False, (0b010, 0b111), "f_y([k]) > f_y(empty) fails")
    assert not verdicts["random"][0]


def test_mean_value():
    assert mean_value(make_zero_one(2)) == pytest.approx(0.75)
    w = [0.5, 2.0, 3.25]
    assert mean_value(make_modular(w)) == pytest.approx(sum(w) / 2)
    assert mean_value(SetFunction.from_values(2, [0, 0, 0, 0])) == 0.0


def test_mean_value_lemma(rng):
    """mean >= f([k])/2 always, equality exactly in the modular case."""
    for k in (2, 3, 4, 5):
        for name, f in symmetric_builtins(k).items():
            gap = mean_value(f) - f.full() / 2
            if validate_polymatroid(f).modular:
                assert abs(gap) < 1e-9, name
            else:
                assert gap > 1e-9, name
        for _ in range(5):
            f = random_polymatroid(k, rng)
            gap = mean_value(f) - f.full() / 2
            if validate_polymatroid(f).modular:
                assert abs(gap) < 1e-9
            else:
                assert gap > 1e-9


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0, 10, allow_nan=False), min_size=1, max_size=6))
def test_modular_always_validates_modular(w):
    rep = validate_polymatroid(make_modular(w))
    assert rep.valid and rep.modular


def test_random_polymatroid_valid(rng):
    for k in (1, 2, 3, 4, 5, 6):
        rep = validate_polymatroid(random_polymatroid(k, rng))
        assert rep.valid


def test_label_round_trip():
    for s in ("+", "-", "+-+", "---", "++++"):
        assert str(Label.from_string(s)) == s
    y = Label.from_string("+-+")
    assert list(y.signs()) == [1.0, -1.0, 1.0]
    assert Label.from_signs(y.signs()).bits == y.bits
    assert Label(3, 0).signs().tolist() == [-1.0, -1.0, -1.0]


def test_setfn_construction_errors():
    with pytest.raises(ValueError):
        SetFunction.from_values(2, [0.5, 0, 0, 0])  # not normalized
    with pytest.raises(ValueError):
        SetFunction.from_values(2, [0, -1, 0, 0])  # negative
    with pytest.raises(ValueError):
        SetFunction.from_values(2, [0, 1, 1])  # wrong length
    # escape hatch for deliberately degenerate tables
    f = SetFunction(2, np.array([1.0, 1, 1, 1]))
    assert f.eval(0) == 1.0


def test_from_values_names_values_within_atol():
    """Both table checks name values and keep the ATOL slack: a violation
    within ATOL loads, one beyond it does not."""
    SetFunction.from_values(2, [1e-10, 0, -1e-10, 0])
    with pytest.raises(ValueError) as err:
        SetFunction.from_values(2, [0.5, 0, 0, 0])
    assert str(err.value) == "values must be normalized within ATOL=1e-09, got f(empty) = 0.5"
    with pytest.raises(ValueError) as err:
        SetFunction.from_values(2, [0, -1, 0, 0])
    assert str(err.value) == "values must be nonnegative within ATOL=1e-09, got -1.0"
