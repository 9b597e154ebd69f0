"""The sign-bitmask codec of setfn against the label and report objects.

Labels y in {-1,1}^k and reports v in {-1,0,1}^k are (pos, zeros) bitmasks:
bit i-1 of pos <=> v_i = +1, bit i-1 of zeros <=> v_i = 0, and the string has
one of +, - or 0 per coordinate. The references below are written out
coordinate by coordinate, independent of the helpers, and every route (string,
masks, float rows) must round-trip at k = 1, 2, 7 and MAX_K.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lovasz_abstain import AbstainReport, Label
from lovasz_abstain.setfn import MAX_K, _bit_rows, _checked_k, _format, _pack, _parse, _sign_rows

KS = [1, 2, 7, MAX_K]
CHAR = {1: "+", -1: "-", 0: "0"}


def reference(v: list[int]) -> tuple[int, int, str]:
    """(pos, zeros, string) of a {-1,0,1} vector, one coordinate at a time."""
    pos = sum(1 << i for i, x in enumerate(v) if x == 1)
    zeros = sum(1 << i for i, x in enumerate(v) if x == 0)
    return pos, zeros, "".join(CHAR[x] for x in v)


def vectors(values):
    return st.sampled_from(KS).flatmap(lambda k: st.lists(st.sampled_from(values), min_size=k, max_size=k))


@settings(max_examples=200, deadline=None)
@given(v=vectors([-1, 0, 1]))
@example(v=[0] * MAX_K)
@example(v=[1] * MAX_K)
def test_reports_round_trip_through_the_codec(v):
    k = len(v)
    pos, zeros, s = reference(v)
    rows = np.array(v, dtype=float)
    report = AbstainReport(k, pos, zeros)
    assert _format(k, pos, zeros) == str(report) == s
    assert _parse(s, "report", zero=True) == (k, pos, zeros)
    assert AbstainReport.from_string(s) == report
    assert np.array_equal(_sign_rows(pos, k, zeros), rows) and np.array_equal(report.vector(), rows)
    assert _pack(rows, "report", zero=True) == (k, pos, zeros)  # float rows
    assert _pack(np.where(rows == 0, -0.0, rows), "report", zero=True) == (k, pos, zeros)  # -0.0 abstains too
    assert AbstainReport.from_vector(rows) == AbstainReport.from_vector(v) == report
    assert np.array_equal(_bit_rows(zeros, k), rows == 0)


@settings(max_examples=200, deadline=None)
@given(v=vectors([-1, 1]))
@example(v=[-1] * MAX_K)
@example(v=[1] * MAX_K)
def test_labels_round_trip_through_the_codec(v):
    k = len(v)
    bits, _, s = reference(v)
    rows = np.array(v, dtype=float)
    y = Label(k, bits)
    assert _format(k, bits) == str(y) == s
    assert _parse(s, "label") == (k, bits, 0)
    assert Label.from_string(s) == y
    assert np.array_equal(_sign_rows(bits, k), rows) and np.array_equal(y.signs(), rows)
    assert _pack(rows, "label") == (k, bits, 0)
    assert Label.from_signs(rows) == Label.from_signs(v) == y
    assert np.array_equal(_bit_rows(bits, k), rows > 0)
    assert AbstainReport.from_label(y) == AbstainReport.from_string(s)


@pytest.mark.parametrize("k", KS)
def test_rows_of_a_mask_array_are_the_rows_of_each_mask(k):
    rng = np.random.default_rng(k)
    pos = rng.integers(0, 1 << k, size=(3, 5), dtype=np.int64)
    zeros = rng.integers(0, 1 << k, size=(3, 5), dtype=np.int64) & ~pos
    rows = _sign_rows(pos, k, zeros)
    assert rows.shape == (3, 5, k) and _bit_rows(pos, k).shape == (3, 5, k)
    for i, j in np.ndindex(3, 5):
        report = AbstainReport(k, int(pos[i, j]), int(zeros[i, j]))
        assert np.array_equal(rows[i, j], report.vector())
        assert np.array_equal(_sign_rows(pos, k)[i, j], Label(k, int(pos[i, j])).signs())


@pytest.mark.parametrize("k", [0, MAX_K + 1])
def test_k_outside_1_to_max_k_is_rejected_by_name(k):
    calls = [lambda: _checked_k(k), lambda: Label(k, 0), lambda: AbstainReport(k, 0, 0),
             lambda: Label.from_string("+" * k), lambda: AbstainReport.from_string("0" * k),
             lambda: Label.from_signs(np.ones(k)), lambda: AbstainReport.from_vector(np.zeros(k))]
    for call in calls:
        with pytest.raises(ValueError, match=rf"^k must lie in \[1, {MAX_K}\], got k={k}$"):
            call()


@pytest.mark.parametrize("call, message", [
    (lambda: Label.from_string("+x"), "label '+x' has the character 'x'; expected + or -"),
    (lambda: Label.from_string("+0"), "label '+0' has the character '0'; expected + or -"),
    (lambda: AbstainReport.from_string("0-1"), "report '0-1' has the character '1'; expected +, - or 0"),
    (lambda: Label.from_signs([1.0, 0.5]), "label entries must be +-1, got 0.5"),
    (lambda: Label.from_signs([1, 0]), "label entries must be +-1, got 0"),
    (lambda: AbstainReport.from_vector([0, np.nan]), "report entries must be in {-1,0,1}, got nan"),
    (lambda: AbstainReport.from_vector([[1, 0]]), "report must be a vector, got shape (1, 2)"),
    (lambda: Label.from_signs(1), "label must be a vector, got shape ()"),
], ids=["label-char", "label-zero-char", "report-char", "label-half", "label-zero", "report-nan",
        "report-matrix", "label-scalar"])
def test_malformed_labels_and_reports_are_rejected_by_name(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
