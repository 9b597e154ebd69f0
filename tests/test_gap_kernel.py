"""The batched gap kernel against the per-point gap loops it replaced.

The reference functions below are the scalar gap rule the library used before
every link and envelope went through ``links.gap_levels``: clip, sort the
magnitudes descending with ties by ascending index, pad them with the
sentinels 1+eps and -eps, keep the levels whose gap is >= 2 eps - 1e-9, and
link to the kept level whose gap midpoint is closest to tau, ties to the
largest index. The batched functions and their one-row views must agree with
them exactly, on exact ties, exact zeros, clipped coordinates (|u_i| > 1),
magnitudes exactly 2 eps apart, and tau on a gap midpoint or halfway between
two of them.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lovasz_abstain import AbstainReport, LinkConfig, envelope, threshold_abstain_link, trim_single_abstain
from lovasz_abstain.links import envelope_members_gap, link_rows, trim_rows
from lovasz_abstain.targets import report_index

REF_GAP_TOL = 1e-9  # a literal, so that a change to links.GAP_TOL shows up here


def ref_sorted_gaps(u, eps):
    x = np.clip(np.asarray(u, dtype=float), -1.0, 1.0)
    a = np.abs(x)
    order = np.argsort(-a, kind="stable")
    seq = np.concatenate([[1.0 + eps], a[order], [-eps]])
    return x, order, seq, seq[:-1] - seq[1:]


def ref_prefix_report(order, i, signs):
    k = len(order)
    pos = zeros = 0
    chosen = set(int(j) for j in order[:i])
    for j in range(k):
        if j in chosen:
            if signs[j] > 0:
                pos |= 1 << j
            elif signs[j] == 0:
                zeros |= 1 << j
        else:
            zeros |= 1 << j
    return AbstainReport(k, pos, zeros)


def ref_link(u, eps, tau):
    """The old threshold_abstain_link; None where no level qualifies."""
    x, order, seq, gaps = ref_sorted_gaps(u, eps)
    candidates = [i for i in range(len(u) + 1) if gaps[i] >= 2 * eps - REF_GAP_TOL]
    if not candidates:
        return None
    best_i, best_d = candidates[0], None
    for i in candidates:
        d = abs(tau - (seq[i] + seq[i + 1]) / 2.0)
        if best_d is None or d <= best_d:  # ties move to the larger index
            best_i, best_d = i, d
    return ref_prefix_report(order, best_i, np.sign(x))


def ref_envelope(u, eps):
    x, order, _, gaps = ref_sorted_gaps(u, eps)
    signs = np.where(x >= 0.0, 1.0, -1.0)
    return {ref_prefix_report(order, i, signs) for i in range(len(u) + 1) if gaps[i] >= 2 * eps - REF_GAP_TOL}


def ref_nonempty_batch(us, eps):
    a = np.abs(np.clip(np.asarray(us, dtype=float), -1.0, 1.0))
    a.sort(axis=1)
    seq = np.concatenate([np.full((len(a), 1), 1.0 + eps), a[:, ::-1], np.full((len(a), 1), -eps)], axis=1)
    return (seq[:, :-1] - seq[:, 1:] >= 2 * eps - REF_GAP_TOL).any(axis=1)


def ref_trim(v, u):
    if v.n_abstain() != 1:
        return v
    i = v.zeros.bit_length() - 1
    return AbstainReport(v.k, v.pos | (v.zeros if u[i] >= 0 else 0), 0)


def midpoints(u, eps):
    _, _, seq, _ = ref_sorted_gaps(u, eps)
    return (seq[:-1] + seq[1:]) / 2.0


@st.composite
def batches(draw):
    """(us, eps, taus): rows at one k and eps, with one tau per row."""
    k = draw(st.integers(1, 6))
    eps = draw(st.sampled_from([1 / (2 * k), 1 / (4 * k), 1 / 16, 1 / (2 * k) + 0.05]))
    entry = st.one_of(
        st.sampled_from([0.0, -0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0, 1.5, -2.0]),
        st.integers(-6, 6).map(lambda m: m * 2 * eps),  # magnitudes exactly 2 eps apart
        st.floats(-1.5, 1.5, allow_nan=False),
    )
    n = draw(st.integers(1, 6))
    us = np.array(draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=n, max_size=n)))
    taus = []
    for u in us:
        mids = np.clip(midpoints(u, eps), 0.0, 1.0)
        i, j = draw(st.integers(0, k)), draw(st.integers(0, k))
        taus.append(draw(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, mids[i], (mids[i] + mids[j]) / 2.0])))
    return us, eps, np.array(taus)


@st.composite
def reported_batches(draw):
    """A batch with one arbitrary report per row, as (pos, zeros) bitmasks."""
    us, eps, taus = draw(batches())
    n, k = us.shape
    zeros = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=n, max_size=n))
    pos = [draw(st.integers(0, (1 << k) - 1)) & ~z for z in zeros]
    return us, eps, taus, np.array(pos), np.array(zeros)


# tau = 0.71875 lies exactly halfway between the midpoints 0.9375 and 0.5 of levels 0 and 1.
TIE = (np.array([[0.75, 0.25]]), 1 / 8, np.array([0.71875]))
# 0.7 - 0.5 is 0.19999999999999996 in floats, just under 2 eps; tau = 0.6 is that level's midpoint.
NEAR_GAP = (np.array([[0.7, 0.5], [-0.5, 0.7]]), 0.1, np.array([0.6, 0.6]))
ZEROS = (np.array([[0.0, 0.9, -0.0], [2.0, 0.0, -2.0]]), 1 / 6, np.array([0.0, 0.0]))


@settings(max_examples=200, deadline=None)
@given(batches())
@example(TIE)
@example(NEAR_GAP)
@example(ZEROS)
def test_link_matches_reference(batch):
    us, eps, taus = batch
    refs = [ref_link(u, eps, tau) for u, tau in zip(us, taus)]
    if None in refs:
        with pytest.raises(ValueError, match="no gap of size 2"):
            link_rows(us, eps, taus)
        return
    pos, zeros = link_rows(us, eps, taus)
    assert [AbstainReport(us.shape[1], p, z) for p, z in zip(pos.tolist(), zeros.tolist())] == refs
    for u, tau, ref in zip(us, taus, refs):
        assert threshold_abstain_link(u, LinkConfig(epsilon=eps, tau=float(tau))) == ref
    pos, zeros = link_rows(us, eps, taus[0])  # one tau for every row
    assert [AbstainReport(us.shape[1], p, z) for p, z in zip(pos.tolist(), zeros.tolist())] == [
        ref_link(u, eps, taus[0]) for u in us
    ]


@settings(max_examples=200, deadline=None)
@given(batches())
@example(TIE)
@example(NEAR_GAP)
@example(ZEROS)
def test_envelopes_match_reference(batch):
    us, eps, _ = batch
    k = us.shape[1]
    refs = [ref_envelope(u, eps) for u in us]
    ridx = report_index(k)
    members = envelope_members_gap(us, eps)
    for u, ref, row in zip(us, refs, members):
        assert envelope(u, LinkConfig(epsilon=eps)) == ref
        assert set(np.flatnonzero(row).tolist()) == {ridx[(v.pos, v.zeros)] for v in ref}
    assert (members.any(axis=1) == ref_nonempty_batch(us, eps)).all()
    assert members.any(axis=1).tolist() == [bool(ref) for ref in refs]


@settings(max_examples=200, deadline=None)
@given(reported_batches())
@example((*ZEROS, np.array([0b001, 0b001]), np.array([0b100, 0b010])))  # lone abstentions on -0.0 and 0.0
def test_trim_matches_reference(batch):
    """Trim of arbitrary reports and of the linked ones, row by row."""
    us, eps, taus, pos, zeros = batch
    k = us.shape[1]
    cases = [(pos, zeros)]
    if all(ref_link(u, eps, tau) is not None for u, tau in zip(us, taus)):
        cases.append(link_rows(us, eps, taus))
    for pos, zeros in cases:
        got_pos, got_zeros = trim_rows(pos, zeros, us)
        for p, z, u, gp, gz in zip(pos.tolist(), zeros.tolist(), us, got_pos.tolist(), got_zeros.tolist()):
            ref = ref_trim(AbstainReport(k, p, z), u)
            assert AbstainReport(k, gp, gz) == ref
            assert trim_single_abstain(AbstainReport(k, p, z), u) == ref
