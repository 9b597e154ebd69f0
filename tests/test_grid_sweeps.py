"""Batched grid sweeps and loss tables against their scalar references.

The loss tables are bitmask arithmetic over the (report, label) grid and the
oracle sweeps take argmin masks over blocks of the distribution grid. Each is
held here to a test-local copy of the scalar loop it replaced: the tables bit
for bit, the sweeps by verdict, case count and witness, also when a patched
table makes a sweep fail in the middle of the grid.
"""

import ast
import itertools
import re
from pathlib import Path

import numpy as np
import pytest

from lovasz_abstain import make_jaccard, make_sqrt_card, make_zero_one
from lovasz_abstain import multiclass, oracle
from lovasz_abstain.links import GAP_TOL, _report_id_table
from lovasz_abstain.links import naive_threshold_link
from lovasz_abstain.lovasz import clip, expected_hinge, hinge_rows
from lovasz_abstain.multiclass import BlockCodec, ClassCosts, ClassLabel, encode_bep
from lovasz_abstain.oracle import (
    MARGIN,
    VerificationReport,
    argmin_ids,
    calibration_sweep,
    grid_distributions,
    surrogate_loss_table,
    thickened_envelope_grid,
    verify_embedding,
    verify_representative,
    verify_tightness,
)
from lovasz_abstain.setfn import PolymatroidCollection, SetFunction, random_collection
from lovasz_abstain.targets import (
    AbstainReport,
    _report_masks,
    abstain_loss_table,
    enumerate_reports,
    plain_loss_table,
    report_index,
    target_abstain,
    target_plain,
)

from conftest import builtin_collections, ref_chain_faces, ref_face_distances


# ---------------------------------------------------------------------------
# Scalar references: the loops the batched code replaced
# ---------------------------------------------------------------------------


def loop_abstain_table(fc, reports=None):
    reports = enumerate_reports(fc.k, "V") if reports is None else reports
    table = np.empty((len(reports), 1 << fc.k))
    for i, v in enumerate(reports):
        for y in range(1 << fc.k):
            table[i, y] = target_abstain(fc, v, y)
    return table


def loop_hinge_table(fc, points):
    """The per-label loop the hinge tables replaced: one batched hinge call per label."""
    return np.stack([hinge_rows(fc, points, y) for y in range(1 << fc.k)], axis=1)


def loop_plain_table(fc):
    n = 1 << fc.k
    table = np.empty((n, n))
    for r in range(n):
        for y in range(n):
            table[r, y] = target_plain(fc, AbstainReport(fc.k, r, 0), y)
    return table


def loop_grid(k, m):
    n = 1 << k
    for cuts in itertools.combinations(range(m + n - 1), n - 1):
        parts, prev = [], -1
        for c in cuts:
            parts.append(c - prev - 1)
            prev = c
        parts.append(m + n - 2 - prev)
        yield np.array(parts, dtype=float) / m


def loop_embedding_grid(fc, m):
    """verify_embedding's grid part as one loop over distributions."""
    k = fc.k
    surr = oracle.surrogate_loss_table(fc)
    disc = oracle.abstain_loss_table(fc)
    cases = surr.size
    lat_table = oracle._hinge_table(fc, oracle._lattice(k))
    for p in loop_grid(k, m):
        cases += 1
        if argmin_ids(surr @ p) != argmin_ids(disc @ p):
            return VerificationReport("embedding", False, cases, {"p": p.tolist(), "mismatch": True})
        if (disc @ p).min() - (lat_table @ p).min() > MARGIN:
            return VerificationReport("embedding", False, cases,
                                      {"p": p.tolist(), "lattice_beats_reports": True})
    return None


def loop_representative(fc, reports, m):
    ridx = report_index(fc.k)
    candidate_ids = {ridx[(v.pos, v.zeros)] for v in reports}
    surr = oracle.surrogate_loss_table(fc)
    cases = 0
    for p in loop_grid(fc.k, m):
        cases += 1
        if not (argmin_ids(surr @ p) & candidate_ids):
            return VerificationReport("representative", False, cases, {"p": p.tolist()})
    return VerificationReport("representative", True, cases)


def loop_witness(v):
    committed = ((1 << v.k) - 1) & ~v.zeros
    p = np.zeros(1 << v.k)
    for y in range(1 << v.k):
        if y & committed == v.pos:
            p[y] = 1.0 / (1 << v.n_abstain())
    return p


def loop_tightness(f, m):
    k = f.k
    reports = enumerate_reports(k, "V")
    ridx = report_index(k)
    table = oracle.abstain_loss_table(f)
    cases = 0
    for v in enumerate_reports(k, "V0"):
        cases += 1
        p = loop_witness(v)
        vals = table @ p
        vid = ridx[(v.pos, v.zeros)]
        if not vals[vid] < np.delete(vals, vid).min() - MARGIN:
            return VerificationReport("tightness", False, cases,
                                      {"v": str(v), "p": p.tolist(), "unique": False})
    one_zero = [v for v in reports if v.n_abstain() == 1]
    for p in loop_grid(k, m):
        vals = table @ p
        for v in one_zero:
            cases += 1
            vid = ridx[(v.pos, v.zeros)]
            plus, minus = ridx[(v.pos | v.zeros, 0)], ridx[(v.pos, 0)]
            if min(vals[plus], vals[minus]) > vals[vid] + 1e-12:
                return VerificationReport("tightness", False, cases,
                                          {"v": str(v), "p": p.tolist(), "dominated": False})
    return VerificationReport("tightness", True, cases)


def loop_block_domination(g, codec, k):
    """The (report, partial block, label) loop, reading the lifted table from
    the loss kernel multiclass calls instead of calling target_abstain."""
    d, n = codec.d, codec.d * k
    lifted = multiclass.lift_polymatroid(g, codec, k)
    table = multiclass._abstain_losses(lifted, *_report_masks(n), np.arange(1 << n))
    ridx = report_index(n)
    labels = [encode_bep(ClassLabel(codec.C, tuple(c + 1 for c in t)), codec)
              for t in np.ndindex(*([codec.C] * k))]
    block = (1 << d) - 1
    cases = 0
    for v in enumerate_reports(n, "V"):
        for i in range(k):
            zb = (v.zeros >> (i * d)) & block
            if not 0 < zb < block:
                continue
            shifted = block << (i * d)
            full_id = ridx[(v.pos & ~shifted, v.zeros | shifted)]
            for y in labels:
                cases += 1
                if table[full_id, y] > table[ridx[(v.pos, v.zeros)], y] + 1e-12:
                    return VerificationReport("block-domination", False, cases,
                                              {"v": str(v), "block": i, "y": y})
    return VerificationReport("block-domination", True, cases)


def loop_thickened(fc, u, epsilon, m):
    faces = ref_chain_faces(fc.k)
    table = surrogate_loss_table(fc)
    optimal_sets = {frozenset(argmin_ids(table @ p)) for p in loop_grid(fc.k, m)}
    d_faces = ref_face_distances(clip(np.asarray(u, dtype=float))[None, :])[0]
    out = set(range(len(enumerate_reports(fc.k, "V"))))
    for ids in optimal_sets:
        inside = [fi for fi, f in enumerate(faces) if set(f.member_ids.tolist()) <= ids]
        if inside and d_faces[inside].min() < epsilon - GAP_TOL:
            out &= ids
    return out


# ---------------------------------------------------------------------------
# Loss tables
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("name", ["zero_one", "modular", "sqrt_card", "jaccard"])
def test_loss_tables_match_the_scalar_loops(k, name):
    fc = builtin_collections(k)[name]
    fc = fc if isinstance(fc, PolymatroidCollection) else PolymatroidCollection.from_setfn(fc)
    assert np.array_equal(abstain_loss_table(fc), loop_abstain_table(fc))
    assert np.array_equal(plain_loss_table(fc), loop_plain_table(fc))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_hinge_tables_match_the_per_label_loop(k):
    collections = {**builtin_collections(k), "random": random_collection(k, np.random.default_rng(k))}
    vectors = np.stack([v.vector() for v in enumerate_reports(k, "V")])
    lattice = oracle._lattice(k)
    for fc in collections.values():
        assert np.array_equal(surrogate_loss_table(fc), loop_hinge_table(fc, vectors))
        assert np.array_equal(oracle._hinge_table(fc, lattice), loop_hinge_table(fc, lattice))


def _rows(table, reports):
    """Rows of a canonical-order loss table for a list of reports."""
    return table[_report_id_table(reports[0].k)[[v.pos for v in reports], [v.zeros for v in reports]]]


def test_abstain_table_on_custom_report_lists():
    jac = make_jaccard(3)
    reports = [AbstainReport.from_string(s) for s in ("0+-", "+++", "000", "-0+", "0+-")]
    assert np.array_equal(_rows(abstain_loss_table(jac), reports), loop_abstain_table(jac, reports))
    v0 = enumerate_reports(4, "V0")
    sq = make_sqrt_card(4)
    assert np.array_equal(_rows(abstain_loss_table(sq), v0), loop_abstain_table(sq, v0))


def test_loss_tables_keep_the_scalar_errors():
    jac = make_jaccard(2)
    partial = PolymatroidCollection.from_per_label(2, {y: jac.for_label(y) for y in (0, 1, 3)})
    errors = []
    for table in (lambda: abstain_loss_table(partial), lambda: loop_abstain_table(partial),
                  lambda: plain_loss_table(partial), lambda: loop_plain_table(partial)):
        with pytest.raises(KeyError) as exc:
            table()
        errors.append(str(exc.value))
    assert len(set(errors)) == 1 and "label bitmask 2" in errors[0]
    with pytest.raises(ValueError, match="v has k=2, but fc has k=3"):
        loop_abstain_table(make_zero_one(3), [AbstainReport.from_string("+0")])
    with pytest.raises(ValueError, match="entries must be in"):
        target_abstain(make_zero_one(2), [2, 0], 0)


# ---------------------------------------------------------------------------
# The distribution grid and the argmin masks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k, m", [(1, 1), (1, 7), (2, 5), (3, 8), (4, 2)])
def test_grid_matches_the_scalar_generator(k, m):
    got = list(grid_distributions(k, m))
    want = list(loop_grid(k, m))
    assert len(got) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    blocks = list(oracle._grid_blocks(k, m))
    assert all(len(b) == oracle._GRID_ROWS for b in blocks[:-1])
    assert 0 < len(blocks[-1]) <= oracle._GRID_ROWS


@pytest.mark.parametrize("k, m, word", [(2, 0, "m=0"), (2, -3, "m=-3"), (0, 4, "k=0"), (5, 2, "k <= 4")])
def test_grid_rejects_bad_sizes(k, m, word):
    with pytest.raises(ValueError, match=word):
        list(grid_distributions(k, m))


def test_empty_grid_is_an_error_not_a_pass():
    with pytest.raises(ValueError, match="m=0"):
        verify_representative(make_zero_one(2), [], 0)
    with pytest.raises(ValueError, match="m=0"):
        verify_embedding(make_zero_one(2), 0)
    with pytest.raises(ValueError, match="m=-1"):
        verify_embedding(make_zero_one(2), -1)
    with pytest.raises(ValueError, match="m=0"):
        calibration_sweep(make_zero_one(2), 0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_argmin_masks_match_argmin_ids(k):
    for fc in builtin_collections(k).values():
        for table in (abstain_loss_table(fc), surrogate_loss_table(fc)):
            for P in oracle._grid_blocks(k, 8):
                mask = oracle._argmin_mask(P @ table.T)
                for p, row in zip(P, mask):
                    assert set(np.flatnonzero(row).tolist()) == argmin_ids(table @ p)


# ---------------------------------------------------------------------------
# Sweeps: passing verdicts and forced failures in the middle of the grid
# ---------------------------------------------------------------------------


def test_passing_sweeps_match_the_loops():
    for fc in builtin_collections(3).values():
        assert verify_embedding(fc, 5).passed and loop_embedding_grid(fc, 5) is None
        for family in ("V0", "Y"):
            reports = enumerate_reports(3, family)
            assert (verify_representative(fc, reports, 6).to_dict()
                    == loop_representative(fc, reports, 6).to_dict())
    for k in (2, 3):
        f = make_sqrt_card(k)
        assert verify_tightness(f, 8).to_dict() == loop_tightness(f, 8).to_dict()


def _tables_with_a_near_tie(fc, y_star):
    """(surrogate, discrete) tables a pointwise gap of 2^-40 apart: report 1 is
    within ARGMIN_TOL of the minimum for the discrete table only, and only at
    the point mass on label y_star."""
    n = 1 << fc.k
    disc = np.full((len(enumerate_reports(fc.k, "V")), n), 2.0)
    disc[0] = 1.0
    disc[1] = 1.5
    disc[1, y_star] = 1.0 + oracle.ARGMIN_TOL
    surr = disc.copy()
    surr[1, y_star] += 2.0**-40
    return surr, disc


@pytest.mark.parametrize("y_star", [3, 1])
def test_embedding_mismatch_mid_grid(monkeypatch, y_star):
    fc = make_zero_one(3)
    surr, disc = _tables_with_a_near_tie(fc, y_star)
    monkeypatch.setattr(oracle, "surrogate_loss_table", lambda fc: surr)
    monkeypatch.setattr(oracle, "abstain_loss_table", lambda fc: disc)
    monkeypatch.setattr(oracle, "_hinge_table", lambda fc, lat: np.full((len(lat), 1 << fc.k), 5.0))
    got, want = verify_embedding(fc, 8), loop_embedding_grid(fc, 8)
    assert got.witness["mismatch"] and got.cases > surr.size + 1
    assert (got.passed, got.cases, got.witness) == (want.passed, want.cases, want.witness)


def test_embedding_lattice_shortfall_mid_grid(monkeypatch):
    fc = make_zero_one(3)
    disc = np.full((27, 8), 2.0)
    disc[0] = 1.0
    monkeypatch.setattr(oracle, "surrogate_loss_table", lambda fc: disc)
    monkeypatch.setattr(oracle, "abstain_loss_table", lambda fc: disc)

    def lattice_values(fc, lat):
        vals = np.full((len(lat), 1 << fc.k), 2.0)
        vals[100, 1] = 1.0 - 1e-8
        return vals

    monkeypatch.setattr(oracle, "_hinge_table", lattice_values)
    got, want = verify_embedding(fc, 8), loop_embedding_grid(fc, 8)
    assert got.witness["lattice_beats_reports"] and got.cases > disc.size + 1024
    assert (got.passed, got.cases, got.witness) == (want.passed, want.cases, want.witness)


def test_representative_miss_in_a_later_block():
    """Candidates are the optimal reports of the first 2,000 grid points, so the
    first miss lies past the first block."""
    fc = make_sqrt_card(3)
    surr = surrogate_loss_table(fc)
    reports = enumerate_reports(3, "V")
    ids = set().union(*(argmin_ids(surr @ p) for p in itertools.islice(loop_grid(3, 8), 2000)))
    candidates = [reports[i] for i in sorted(ids)]
    got, want = verify_representative(fc, candidates, 8), loop_representative(fc, candidates, 8)
    assert not got.passed and got.cases > 2000
    assert got.to_dict() == want.to_dict()


@pytest.mark.parametrize("report, label, drop, stage", [
    ("0+-", 0b010, 0.3, "dominated"),   # one report cheaper at one label
    ("+0-", 0b111, 0.05, "dominated"),
    ("0+-", 0b010, 3.0, "unique"),      # so cheap that a V0 witness loses uniqueness
])
def test_tightness_failures_match_the_loop(monkeypatch, report, label, drop, stage):
    f = make_sqrt_card(3)
    table = abstain_loss_table(f)
    vid = report_index(3)[(AbstainReport.from_string(report).pos, AbstainReport.from_string(report).zeros)]
    table[vid, label] -= drop
    monkeypatch.setattr(oracle, "abstain_loss_table", lambda fc: table)
    got, want = verify_tightness(f, 8), loop_tightness(f, 8)
    assert not got.passed and stage in got.witness
    assert got.to_dict() == want.to_dict()
    if stage == "dominated":
        assert got.cases > 15 + 12  # past the 15 witnesses and the first grid point


@pytest.mark.parametrize("C, k, full_report, label", [(4, 3, "00++-+", 0b101101), (4, 2, "+-00", 0b0110)])
def test_block_domination_violation_matches_the_loop(monkeypatch, C, k, full_report, label):
    real = multiclass._abstain_losses
    v = AbstainReport.from_string(full_report)

    def raised(fc, pos, zeros, y):
        losses = real(fc, pos, zeros, y)
        losses[np.ix_((pos == v.pos) & (zeros == v.zeros), y == label)] += 1.0
        return losses

    monkeypatch.setattr(multiclass, "_abstain_losses", raised)
    g = ClassCosts.from_setfn(make_sqrt_card(k))
    got, want = multiclass.verify_block_domination(g, BlockCodec(C), k), loop_block_domination(g, BlockCodec(C), k)
    assert not got.passed and got.cases > 1
    assert got.to_dict() == want.to_dict()


def test_block_domination_passes_like_the_loop():
    for C, k in ((2, 3), (4, 2), (8, 2)):
        g = ClassCosts(k, weights_by_class=np.arange(1.0, C + 1))
        got = multiclass.verify_block_domination(g, BlockCodec(C), k)
        assert got.to_dict() == loop_block_domination(g, BlockCodec(C), k).to_dict()


@pytest.mark.parametrize("k", [2, 3])
def test_thickened_envelope_matches_the_face_loop(k):
    rng = np.random.default_rng(k)
    sizes = []
    for fc in builtin_collections(k).values():
        for eps in (1 / (2 * k), 0.4):
            for u in rng.uniform(-1.2, 1.2, (4, k)):
                got = thickened_envelope_grid(fc, u, eps, 5)
                assert got == loop_thickened(fc, u, eps, 5)
                sizes.append(len(got))
    assert min(sizes) < 3**k  # some optimal set cut the envelope down


def test_restrict_to_coords_matches_the_loop():
    f = SetFunction(4, make_sqrt_card(4).values * np.arange(1, 17) / 16)
    for coords in ([0], [2], [1, 3], [3, 0, 2], [0, 1, 2, 3]):
        vals = np.empty(1 << len(coords))
        for s in range(1 << len(coords)):
            vals[s] = f.values[sum(1 << i for b, i in enumerate(coords) if s >> b & 1)]
        assert np.array_equal(oracle.restrict_to_coords(f, coords).values, vals)


# A sweep's first-failure count, with lines of the per-sweep loops that
# oracle._first_failure replaced, so the pattern is shown to match what it forbids.
FIRST_FAILURE_COUNT = re.compile(r"\bcases \+ .* \+ 1\b")
COUNT_COPIES = [
    '                return VerificationReport("embedding", False, cases + i + 1, {"p": P[i].tolist(), kind: True})',
    '            return VerificationReport("representative", False, cases + i + 1, {"p": P[i].tolist()})',
    '                "tightness", False, cases + f + 1,',
    '                cases + j + 1,',
    '                "block-domination", False, cases + f + 1,',
]


def test_only_first_failure_counts_to_the_first_failure():
    """Every sweep counts its cases up to and including the first failure
    through oracle._first_failure: no other line of the package writes that
    count out for itself."""
    package = Path(oracle.__file__).parent
    driver = next(node for node in ast.walk(ast.parse((package / "oracle.py").read_text()))
                  if isinstance(node, ast.FunctionDef) and node.name == "_first_failure")
    hits = [(path.name, n) for path in sorted(package.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1) if FIRST_FAILURE_COUNT.search(line)]
    assert len(hits) == 1 and hits[0][0] == "oracle.py" and driver.lineno <= hits[0][1] <= driver.end_lineno, hits
    assert all(FIRST_FAILURE_COUNT.search(line) for line in COUNT_COPIES)


# ---------------------------------------------------------------------------
# The verdicts and case counts of the benchmark's verify-oracle workload
# ---------------------------------------------------------------------------


def test_verify_oracle_verdicts_and_case_counts():
    sqrt3, jac3 = make_sqrt_card(3), make_jaccard(3)
    for fc in (sqrt3, jac3):
        assert (verify_embedding(fc, 8).passed, verify_embedding(fc, 8).cases) == (True, 6651)
        rep = verify_representative(fc, enumerate_reports(3, "V0"), 8)
        assert (rep.passed, rep.cases) == (True, 6435)
    rep = verify_tightness(sqrt3, 8)
    assert (rep.passed, rep.cases) == (True, 77_235)
    for i, (fc, cases) in enumerate(((sqrt3, 26_040), (jac3, 34_080))):
        rep = calibration_sweep(fc, grid_m=4, taus=(0.0, 0.5, 1.0), n_perturb=20,
                                rng=np.random.default_rng([0, i]))
        assert (rep.passed, rep.cases) == (True, cases)
    rep = multiclass.verify_block_domination(ClassCosts.from_setfn(make_sqrt_card(3)), BlockCodec(4), 3)
    assert (rep.passed, rep.cases) == (True, 62_208)


def test_passing_sweeps_build_no_report_objects(monkeypatch):
    """The sweeps read the canonical report masks: with report construction
    refused, they still pass with their pinned case counts."""
    sqrt3 = make_sqrt_card(3)
    candidates = enumerate_reports(3, "V0")

    def refuse(self):
        raise AssertionError("a sweep built a report object")

    monkeypatch.setattr(AbstainReport, "__post_init__", refuse)
    reports = [verify_embedding(sqrt3, 8), verify_representative(sqrt3, candidates, 8), verify_tightness(sqrt3, 8),
               calibration_sweep(sqrt3, grid_m=4, taus=(0.0, 0.5, 1.0), n_perturb=20,
                                 rng=np.random.default_rng([0, 0]))]
    assert [(rep.passed, rep.cases) for rep in reports] == [(True, 6651), (True, 6435), (True, 77_235),
                                                            (True, 26_040)]


def loop_naive_link_witness(fc, c, grid_m):
    """The naive-link witness search as a loop over (distribution, +-1 report,
    coordinate), each candidate checked before the next is tried."""
    k = fc.k
    pos, zeros = _report_masks(k)
    id_of = _report_id_table(k)
    table = abstain_loss_table(fc)
    vectors = [v.vector() for v in enumerate_reports(k)]
    for p in grid_distributions(k, grid_m):
        vals = table @ p
        ids = argmin_ids(vals)
        if id_of[0, (1 << k) - 1] not in ids:
            continue
        for yid in sorted(ids):
            if zeros[yid]:
                continue
            for j in range(k):
                dropped = int(pos[yid]) & ~(1 << j), 1 << j
                if id_of[dropped] in ids:
                    continue
                gaps = []
                for t in (1e-3, 1e-4, 1e-5):
                    u = (c + t) * vectors[yid]
                    u[j] = (c - t) * vectors[yid][j]
                    out = naive_threshold_link(u, c)
                    if (out.pos, out.zeros) != dropped:
                        break
                    gaps.append(expected_hinge(fc, u, p) - vals.min())
                else:
                    return p, dropped, ids, gaps
    return None


@pytest.mark.parametrize("k, grid_m", [(2, 4), (2, 8), (3, 4), (3, 8), (4, 4)])
def test_naive_link_witness_matches_the_candidate_loop(k, grid_m):
    """The first candidate of the grid is the witness: distribution, report,
    optimal set and gaps as the loop finds them; a grid without one raises."""
    fcs = dict(builtin_collections(k), random=random_collection(k, np.random.default_rng(k)))
    for name, fc in fcs.items():
        want = loop_naive_link_witness(fc, 0.5, grid_m)
        if want is None:
            with pytest.raises(RuntimeError, match="^no naive-link failure found on this grid$"):
                oracle.naive_link_inconsistency(fc, grid_m=grid_m)
            continue
        got = oracle.naive_link_inconsistency(fc, grid_m=grid_m)
        p, dropped, ids, gaps = want
        assert np.array_equal(got.p, p) and (got.bad_report.pos, got.bad_report.zeros) == dropped
        assert got.optimal_ids == ids and np.allclose(got.gaps, gaps, rtol=0, atol=1e-12), name
