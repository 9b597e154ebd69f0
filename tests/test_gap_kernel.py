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

A (1, T) or (n, T) tau grid must give, column by column, what T one-tau
calls give, and the sweeps must sort each point once for all their taus.

The link picks each row's level before building any mask. It is also held
bit for bit to ``ref_all_levels_link``, the batched link as it was when it
built the masks of all k+1 levels and kept one column per row, up to
k = MAX_K; and the links run with ``links._level_masks`` refused, which only
the envelope routes may call.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lovasz_abstain import (AbstainReport, LinkConfig, envelope, links, oracle, threshold_abstain_link,
                           trim_single_abstain)
from lovasz_abstain.bench import TrainConfig, split_indices, synth_data, tau_sweep, train
from lovasz_abstain.links import envelope_members_gap, link_rows, trim_rows
from lovasz_abstain.multiclass import ABSTAIN, BlockCodec, trimmed_link
from lovasz_abstain.oracle import calibration_sweep
from lovasz_abstain.setfn import MAX_K, make_sqrt_card
from lovasz_abstain.targets import abstain_loss_table, report_index

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


# ---------------------------------------------------------------------------
# The one-level link against the all-levels link it replaced
# ---------------------------------------------------------------------------


def ref_all_levels_link(us, eps, tau):
    """(pos, zeros, qualifies) of the batched link that built the (pos, zeros)
    masks of all k+1 levels by two cumsums and gathered one column per row.
    pos and zeros hold -1 on the rows with no qualifying level."""
    us = np.asarray(us, dtype=float)
    n, k = us.shape
    x = np.clip(us, -1.0, 1.0)
    a = np.abs(x)
    order = np.argsort(-a, kind="stable")
    seq = np.concatenate([np.full((n, 1), 1.0 + eps), a[np.arange(n)[:, None], order], np.full((n, 1), -eps)], axis=1)
    qualify = seq[:, :-1] - seq[:, 1:] >= 2 * eps - REF_GAP_TOL
    dist = np.where(qualify, np.abs(np.reshape(tau, (-1, 1)) - (seq[:, :-1] + seq[:, 1:]) / 2.0), np.inf)
    level = k - np.argmax(dist[:, ::-1] == dist.min(axis=1, keepdims=True), axis=1)
    level = np.minimum(level, (x != 0.0).sum(axis=1))
    bits = 1 << order
    kept = np.zeros((n, k + 1), dtype=np.int64)
    pos = np.zeros_like(kept)
    np.cumsum(bits, axis=1, out=kept[:, 1:])
    np.cumsum(bits * (x[np.arange(n)[:, None], order] >= 0), axis=1, out=pos[:, 1:])
    zeros = ((1 << k) - 1) ^ kept
    qualifies = qualify.any(axis=1)
    rows = np.arange(n)
    return np.where(qualifies, pos[rows, level], -1), np.where(qualifies, zeros[rows, level], -1), qualifies


def assert_link_matches_all_levels(us, eps, tau):
    """link_rows equals ref_all_levels_link on the qualifying rows, with int64
    masks, and raises on any batch holding a row with no qualifying level."""
    want_pos, want_zeros, ok = ref_all_levels_link(us, eps, tau)
    per_row = np.ndim(tau) == 1
    if not ok.all():
        with pytest.raises(ValueError, match="no gap of size 2"):
            link_rows(us, eps, tau)
    if ok.any():
        pos, zeros = link_rows(us[ok], eps, tau[ok] if per_row else tau)
        assert pos.dtype == zeros.dtype == np.int64
        assert np.array_equal(pos, want_pos[ok]) and np.array_equal(zeros, want_zeros[ok])
    return int(ok.sum())


SPECIAL = np.array([0.0, -0.0, 1.0, -1.0, 1.5, -2.0, 0.5, -0.5, 0.25, -0.125, 1e-300, -1e-300])


@pytest.mark.parametrize("k", [*range(1, 13), MAX_K])
def test_link_rows_match_the_all_levels_link(rng, k):
    """Random, 1/8-grid, special-value (+-0, clipped) and tied rows, at eps
    from 1/(2k) down to 1e-12, with one tau and with one tau per row."""
    n = 200
    signs = rng.choice([1.0, -1.0], (n, k))
    sets = [
        rng.uniform(-1.5, 1.5, (n, k)),
        rng.integers(-9, 10, (n, k)) / 8.0,
        rng.choice(SPECIAL, (n, k)),
        np.repeat(rng.uniform(-1.2, 1.2, (n, 1)), k, axis=1) * signs,  # one magnitude per row
        rng.choice([0.0, 0.5, 0.75], (n, k)) * signs,  # a few magnitudes, many ties and zeros
    ]
    linked = 0
    for eps in (1 / (2 * k), 1 / (4 * k), 1 / 16, 1e-3, 1e-12):
        for us in sets:
            for tau in (0.0, 0.5, 1.0, rng.uniform(0.0, 1.0, n), rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], n)):
                linked += assert_link_matches_all_levels(us, eps, tau)
    assert linked >= 25 * n  # eps = 1/(2k) leaves every row a qualifying level


@st.composite
def wide_batches(draw):
    """(us, eps, tau) at k in 1..12 or MAX_K; entries from a small pool, so
    magnitudes tie, sit exactly 2 eps apart, clip or are +-0; tau is one
    number or one per row, on a gap midpoint or not."""
    k = draw(st.sampled_from([*range(1, 13), MAX_K]))
    eps = draw(st.sampled_from([1 / (2 * k), 1 / (4 * k), 1 / 16, 1e-3]))
    pool = np.array([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -2.0, 2 * eps, -4 * eps, 6 * eps, 1 - 2 * eps,
                     draw(st.floats(-1.5, 1.5, allow_nan=False))])
    n = draw(st.integers(1, 6))
    us = pool[draw(arrays(np.intp, (n, k), elements=st.integers(0, len(pool) - 1)))]
    mids = [np.clip(midpoints(u, eps), 0.0, 1.0) for u in us]
    per_row = [draw(st.sampled_from([0.0, 0.5, 1.0, *m[: k + 1 : max(k // 4, 1)]])) for m in mids]
    tau = draw(st.sampled_from([np.array(per_row), float(per_row[0])]))
    return us, eps, tau


@settings(max_examples=200, deadline=None)
@given(wide_batches())
@example((np.array([[0.0, -0.0, 0.5], [2.0, 0.0, -2.0]]), 1 / 6, np.array([0.0, 0.0])))
@example((np.array([[0.75, 0.25]]), 1 / 8, 0.71875))  # tau halfway between two midpoints
@example((np.full((2, MAX_K), -0.5), 1 / (2 * MAX_K), 0.5))  # one tie over every coordinate
def test_link_rows_match_the_all_levels_link_on_drawn_batches(batch):
    assert_link_matches_all_levels(*batch)


def test_links_never_build_every_level(monkeypatch, rng):
    """With links._level_masks refused, the link and its callers still give the
    all-levels answers, and the k = 3 sweep keeps its pinned case count."""
    us = rng.uniform(-1.5, 1.5, (1000, 6))
    taus = rng.uniform(0.0, 1.0, 1000)
    codec = BlockCodec(4)
    cfg = LinkConfig(epsilon=1 / 12, tau=0.5)
    want_pos, want_zeros, ok = ref_all_levels_link(us, 1 / 12, taus)
    half_pos, half_zeros, ok_half = ref_all_levels_link(us, 1 / 12, 0.5)
    assert ok.all() and ok_half.all()
    want_trim = [
        tuple(ABSTAIN if z >> i & 3 else codec.decode_bits(p >> i & 3) for i in range(0, 6, 2))
        for p, z in zip(half_pos.tolist(), half_zeros.tolist())
    ]

    def refuse(*args):
        raise AssertionError("the link built every level")

    monkeypatch.setattr(links, "_level_masks", refuse)
    pos, zeros = link_rows(us, 1 / 12, taus)
    assert np.array_equal(pos, want_pos) and np.array_equal(zeros, want_zeros)
    got = [threshold_abstain_link(u, cfg) for u in us]
    assert [(v.pos, v.zeros) for v in got] == list(zip(half_pos.tolist(), half_zeros.tolist()))
    assert [trimmed_link(u, cfg, codec).entries for u in us] == want_trim
    rep = calibration_sweep(make_sqrt_card(3), grid_m=4, taus=(0.0, 0.5, 1.0), n_perturb=20,
                            rng=np.random.default_rng([0, 0]))
    assert (rep.passed, rep.cases) == (True, 26_040)
    with pytest.raises(AssertionError, match="every level"):
        envelope_members_gap(us[:, :4], 1 / 8)


# ---------------------------------------------------------------------------
# The tau grid: one sort per row for every tau
# ---------------------------------------------------------------------------


def assert_grid_matches_one_tau_calls(us, eps, grid):
    """link_rows over a (1, T) or (n, T) grid equals T one-tau calls, column
    by column (one number for a (1, T) grid, one tau per row for an (n, T)
    one), and raises where they raise. Returns whether the rows linked."""
    cols = [float(grid[0, t]) if len(grid) == 1 else grid[:, t] for t in range(grid.shape[1])]
    if not ref_all_levels_link(us, eps, 0.5)[2].all():  # a row with no level raises at every tau
        with pytest.raises(ValueError, match="no gap of size 2"):
            link_rows(us, eps, grid)
        return False
    pos, zeros = link_rows(us, eps, grid)
    assert pos.shape == zeros.shape == (len(us), grid.shape[1])
    assert pos.dtype == zeros.dtype == np.int64
    for t, tau in enumerate(cols):
        want_pos, want_zeros = link_rows(us, eps, tau)
        assert np.array_equal(pos[:, t], want_pos) and np.array_equal(zeros[:, t], want_zeros)
    return True


@pytest.mark.parametrize("k", [1, 2, 3, 4, 7, MAX_K])
def test_tau_grids_match_one_tau_calls(rng, k):
    """Random, special-value (+-0, clipped) and tied rows, against shared and
    per-row grids of up to 7 taus, some of them on gap midpoints."""
    n = 100
    signs = rng.choice([1.0, -1.0], (n, k))
    sets = [
        rng.uniform(-1.5, 1.5, (n, k)),
        rng.choice(SPECIAL, (n, k)),
        np.repeat(rng.uniform(-1.2, 1.2, (n, 1)), k, axis=1) * signs,
        rng.choice([0.0, 0.5, 0.75], (n, k)) * signs,
    ]
    linked = 0
    for eps in (1 / (2 * k), 1 / 16, 1e-3):
        for us in sets:
            mids = np.clip(np.array([midpoints(u, eps) for u in us]), 0.0, 1.0)
            grids = [
                np.array([[0.0, 0.25, 0.5, 0.75, 1.0]]),
                np.array([[1.0, 0.0, 0.5, 0.5]]),  # unsorted, with a repeat
                rng.uniform(0.0, 1.0, (1, 7)),
                rng.uniform(0.0, 1.0, (n, 3)),
                mids[:, rng.integers(0, k + 1, 4)],  # per-row taus on gap midpoints
                np.array([[0.5]]),
            ]
            for grid in grids:
                linked += assert_grid_matches_one_tau_calls(us, eps, grid)
    assert linked >= len(sets) * 6  # eps = 1/(2k) leaves every row a qualifying level


@st.composite
def tau_grids(draw):
    """(us, eps, grid): a drawn batch of wide_batches with a (1, T) or (n, T)
    grid of 1..5 taus from 0, 1/2, 1 and the rows' gap midpoints."""
    us, eps, _ = draw(wide_batches())
    rows = us[:1] if draw(st.booleans()) else us
    width = draw(st.integers(1, 5))
    pools = [[0.0, 0.5, 1.0, *np.clip(midpoints(u, eps), 0.0, 1.0)] for u in rows]
    return us, eps, np.array([[draw(st.sampled_from(pool)) for _ in range(width)] for pool in pools])


@settings(max_examples=200, deadline=None)
@given(tau_grids())
@example((np.array([[0.0, -0.0, 0.5], [2.0, 0.0, -2.0]]), 1 / 6, np.array([[0.0, 1.0], [0.5, 0.0]])))
@example((np.array([[0.75, 0.25]]), 1 / 8, np.array([[0.71875, 0.9375, 0.5]])))  # halfway, then on midpoints
def test_tau_grids_match_one_tau_calls_on_drawn_batches(batch):
    assert_grid_matches_one_tau_calls(*batch)


def test_an_empty_tau_grid_gives_empty_masks():
    pos, zeros = link_rows(np.array([[0.5, 0.2], [0.0, 1.0]]), 0.25, np.empty((1, 0)))
    assert pos.shape == zeros.shape == (2, 0)


def count_sorts(monkeypatch) -> list[int]:
    """Patch links.gap_levels to record the number of rows of each call."""
    calls = []
    gap_levels = links.gap_levels

    def counting(us, eps):
        calls.append(len(us))
        return gap_levels(us, eps)

    monkeypatch.setattr(links, "gap_levels", counting)
    return calls


@pytest.mark.parametrize("taus", [[0.5], [0.0, 0.5, 1.0], list(np.linspace(0.0, 1.0, 11))], ids=["1", "3", "11"])
def test_sweeps_sort_each_point_once_for_every_tau(monkeypatch, taus):
    """tau_sweep makes one gap_levels call over its test points, and
    calibration_sweep one per chunk of each grid block's perturbed points,
    whatever the number of taus."""
    cfg = TrainConfig(k=3, feature_dim=6, n_samples=100, epochs=5, seed=1)
    data = synth_data(cfg)
    res = train(cfg, make_sqrt_card(3), data)
    calls = count_sorts(monkeypatch)
    for trim in (False, True):
        calls.clear()
        assert [row["tau"] for row in tau_sweep(res, data, taus, trim=trim)] == sorted(taus)
        assert calls == [len(split_indices(cfg.n_samples, cfg.seed)[2])]
    calls.clear()
    rep = calibration_sweep(make_sqrt_card(3), grid_m=4, taus=taus, n_perturb=5, rng=np.random.default_rng(3))
    assert rep.passed and rep.cases == sum(calls) * len(taus)
    step, table = oracle._SWEEP_CELLS // oracle._LINK_CELLS, abstain_loss_table(make_sqrt_card(3))
    points = [5 * oracle._argmin_mask(P @ table.T).sum() for P in oracle._grid_blocks(3, 4)]
    assert len(calls) == sum(-(-n // step) for n in points)
