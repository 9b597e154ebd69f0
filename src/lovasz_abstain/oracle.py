"""Brute-force verification engines.

Everything here favors exact finite enumeration over cleverness: expected
losses are computed as tables over the full report grid, optimality is
checked against every alternative, and failures always carry a reproducible
witness. Surrogate argmins are taken over the {-1,0,1}^k points, which is a
representative set for the hinge; a lattice spot-check guards that choice.
The sweeps read reports as targets' canonical (pos, zeros) masks and sign
rows; a report object is built only for a returned value or a witness. They
stop at _args.ORACLE_MAX_K = 4 (representativeness at 3): a larger k raises
"embedding verification capped at k <= 4, got k=5".

Every sweep counts its cases in case order up to and including the first
failure, whose witness it returns, and never draws a later block or step, so
calibration_sweep uses its rng exactly through the failing step; a passing
sweep counts every case. _first_failure is the one owner of this rule.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from ._args import ORACLE_MAX_K, REPRESENTATIVE_MAX_K, alike, bitmasks, capped, distribution, integer, points, real
from ._tol import ARGMIN_TOL, ATOL, EXACT_TOL, GAP_TOL, MARGIN
from .links import LinkConfig, _face_member_matrix, _member_words, _taus, faces_within, link_rows, naive_threshold_link
from .lovasz import clip, expected_hinge, hinge_rows
from .setfn import PolymatroidCollection, SetFunction, as_collection, check_condition1, mean_value
from .setfn import _bit_rows, _checked_k, _row_masks, _sign_rows, _table_k, popcounts, validate_polymatroid
from .targets import AbstainReport, _report, _report_at, _report_id_table, _report_masks, _report_signs
from .targets import abstain_loss_table, plain_loss_table


# ---------------------------------------------------------------------------
# Label distributions
# ---------------------------------------------------------------------------


def uniform(k: int) -> np.ndarray:
    return np.full(1 << _table_k(k), 1.0 / (1 << k))


def point_mass(y_bits: int, k: int) -> np.ndarray:
    """All mass on label y_bits; a ValueError naming y_bits unless it lies in [0, 2^k)."""
    p = np.zeros(1 << _table_k(k))
    p[bitmasks(y_bits, "y_bits", k)] = 1.0
    return p


def mix(p, q, lam: float) -> np.ndarray:
    """(1 - lam) * p + lam * q, for probability vectors p and q of one length."""
    real(lam, "lam", "[0, 1]")
    p = distribution(p, "p")
    return (1.0 - lam) * p + lam * distribution(q, "q", len(p))


def flip(p, r_bits: int, k: int) -> np.ndarray:
    """Distribution of Y * r when Y ~ p: q[y] = p[y * r] as bitmask indices.
    Raises ValueError naming p unless it is a probability vector of length
    2^k, or r_bits unless it lies in [0, 2^k)."""
    p = distribution(p, "p", 1 << _checked_k(k))
    masks = np.arange(1 << k)
    return p[masks ^ (((1 << k) - 1) ^ bitmasks(r_bits, "r_bits", k))]


_GRID_ROWS = 1024  # distributions per grid block
# Working memory of one sweep step, in float64 cells: 2^18 cells, 2 MiB. Past
# their tables and one grid block, the sweeps work in steps of this size.
# verify_embedding takes each block's lattice minimum over _SWEEP_CELLS //
# _GRID_ROWS = 256 lattice points at a time, a (1024, 256) product: with the
# bundled OpenBLAS, 256- and 512-point products give the one-product minima
# bit for bit in every grid block tried (k = 2 and 3, m = 4, 8 and 12, six
# families), while 128- and 300-point products differ in the last bit.
# calibration_sweep draws and links _SWEEP_CELLS // _LINK_CELLS = 2,048 points
# per step: a linked point's temporaries traced at 550 and 680 bytes at k = 3
# and 4 with three taus, under _LINK_CELLS cells (1 KiB).
# multiclass.verify_block_domination fills and compares its loss table
# _SWEEP_CELLS // C^k rows at a time.
_SWEEP_CELLS = 1 << 18
_LINK_CELLS = 128


def _grid_blocks(k: int, m: int):
    """All compositions of m into 2^k parts, normalized, as (B, 2^k) blocks
    of at most _GRID_ROWS rows; deterministic order. Each row is read from
    its n-1 cut positions in itertools.combinations order: part i is the gap
    between cut i-1 and cut i, with cuts -1 and m+n-1 at the ends."""
    capped(integer(k, "k", 1), "k", ORACLE_MAX_K, "distribution grid")
    integer(m, "m", 1)
    n = 1 << k
    combos = itertools.combinations(range(m + n - 1), n - 1)
    while True:
        cuts = np.fromiter(itertools.chain.from_iterable(itertools.islice(combos, _GRID_ROWS)),
                           dtype=np.int64).reshape(-1, n - 1)
        if not len(cuts):
            return
        edges = np.pad(cuts, ((0, 0), (1, 1)), constant_values=(-1, m + n - 1))
        yield (np.diff(edges, axis=1) - 1) / m


def grid_distributions(k: int, m: int):
    """All compositions of m into 2^k parts, normalized; the rows of _grid_blocks."""
    for block in _grid_blocks(k, m):
        yield from block


# ---------------------------------------------------------------------------
# Shared argmin machinery
# ---------------------------------------------------------------------------


@dataclass
class VerificationReport:
    name: str
    passed: bool
    cases: int
    witness: dict | None = None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _first_failure(name: str, checked, cases: int = 0) -> VerificationReport:
    """A sweep's verdict under the case-count rule above. checked yields each
    block lazily, in case order, as (failed, witness): failed flags its cases,
    flattened in C order, and witness(j) builds case j's witness dict before
    the next block is drawn. cases counts the cases checked before the first."""
    for failed, witness in checked:
        if failed.any():
            j = int(failed.argmax())
            return VerificationReport(name, False, cases + j + 1, witness(j))
        cases += failed.size
    return VerificationReport(name, True, cases)


def _hinge_table(fc, points: np.ndarray) -> np.ndarray:
    """(len(points), 2^k) hinge values of each point against each label, from
    one hinge_rows call over the point-major (point, label) grid."""
    n = 1 << fc.k
    rows = hinge_rows(fc, np.repeat(points, n, axis=0), np.tile(np.arange(n), len(points)))
    return rows.reshape(len(points), n)


def surrogate_loss_table(fc) -> np.ndarray:
    """Hinge values at every report embedding, one label per column.

    This goes through the extension (sorting) route, independent of the
    two-lookup table route in abstain_loss_table.
    """
    fc = as_collection(fc)
    return _hinge_table(fc, _report_signs(fc.k))


def _argmin_mask(values: np.ndarray) -> np.ndarray:
    """Row-wise optimal sets of a (distributions, reports) value matrix, as a
    mask: every value within ARGMIN_TOL of its row's minimum."""
    return values <= values.min(axis=1, keepdims=True) + ARGMIN_TOL


def argmin_ids(values: np.ndarray) -> set[int]:
    """Ids of the optimal entries of one value vector; one-row view of _argmin_mask."""
    return set(np.flatnonzero(_argmin_mask(values[None])[0]).tolist())


def _uniquely_optimal(values: np.ndarray, i: int) -> bool:
    """Whether entry i beats every other by more than MARGIN, so argmin_ids(values) == {i} too."""
    return bool(np.delete(values, i).min() > values[i] + MARGIN)


def _lattice(k: int) -> np.ndarray:
    axis = np.arange(-1.0, 1.125, 0.25)  # [-1, 1] in steps of 0.25
    return np.array(list(itertools.product(axis, repeat=k)))


# ---------------------------------------------------------------------------
# Embedding / representativeness / tightness
# ---------------------------------------------------------------------------


def verify_embedding(fc, grid_m: int = 8) -> VerificationReport:
    """Check that the hinge agrees with the abstain loss on report points and,
    at k <= 3 only, that both elicit the same optimal report sets over a
    distribution grid and no lattice point beats the reports (details then
    holds worst_lattice_shortfall); at k = 4 only the pointwise check runs.
    A grid block's lattice minimum is the least of its products with 256
    lattice points at a time (_SWEEP_CELLS), so the grid phase holds one
    (1024, 256) float64 product, 2 MiB, past the block's own arrays."""
    fc = as_collection(fc)
    k = fc.k
    integer(grid_m, "grid_m", 1)
    capped(k, "k", ORACLE_MAX_K, "embedding verification")
    surr = surrogate_loss_table(fc)
    disc = abstain_loss_table(fc)
    gaps = np.abs(surr - disc)
    cases = surr.size
    if gaps.max() > EXACT_TOL:
        i, y = np.unravel_index(gaps.argmax(), surr.shape)
        return VerificationReport("embedding", False, cases,
                                  {"v": str(_report_at(k, i)), "y": int(y), "hinge": surr[i, y], "target": disc[i, y]})
    details = {"max_pointwise_gap": float(gaps.max())}

    def checked():  # the grid phase, at k <= 3 only
        lat_table = _hinge_table(fc, _lattice(k))
        step = _SWEEP_CELLS // _GRID_ROWS
        details["worst_lattice_shortfall"] = 0.0
        for P in _grid_blocks(k, grid_m):
            lat_min = functools.reduce(np.minimum, ((P @ lat_table[start : start + step].T).min(axis=1)
                                                    for start in range(0, len(lat_table), step)))
            disc_vals = P @ disc.T
            mismatch = (_argmin_mask(P @ surr.T) != _argmin_mask(disc_vals)).any(axis=1)
            shortfall = disc_vals.min(axis=1) - lat_min
            details["worst_lattice_shortfall"] = max(details["worst_lattice_shortfall"], float(shortfall.max()))
            yield (mismatch | (shortfall > MARGIN),
                   lambda i: {"p": P[i].tolist(), "mismatch" if mismatch[i] else "lattice_beats_reports": True})

    report = _first_failure("embedding", checked() if k <= 3 else (), cases)
    return replace(report, details=details) if report.passed else report


def verify_representative(fc, reports, grid_m: int = 8) -> VerificationReport:
    """Grid check that the candidate set meets the optimal-report set everywhere."""
    fc = as_collection(fc)
    k = fc.k
    integer(grid_m, "grid_m", 1)
    capped(k, "k", REPRESENTATIVE_MAX_K, "representativeness check")
    reports = [_report(v, f"reports[{i}]") for i, v in enumerate(reports)]
    for i, v in enumerate(reports):
        alike(f"reports[{i}]", v.k, "fc", k)
    candidates = np.zeros(3**k, dtype=bool)
    candidates[_report_id_table(k)[[v.pos for v in reports], [v.zeros for v in reports]]] = True
    surr = surrogate_loss_table(fc)
    return _first_failure("representative", ((~(_argmin_mask(P @ surr.T) & candidates).any(axis=1),
                                              lambda i: {"p": P[i].tolist()}) for P in _grid_blocks(k, grid_m)))


def _symmetric_table(f, what: str) -> SetFunction:
    """f, or the one table of a symmetric collection f; else a ValueError naming what takes f."""
    if isinstance(f, PolymatroidCollection):
        if not f.symmetric:
            raise ValueError(f"{what} takes a symmetric set function")
        f = f.for_label(0)
    return f


def _tightness_witnesses(k: int, pos: np.ndarray, zeros: np.ndarray) -> np.ndarray:
    """(n, 2^k) tightness witnesses of the reports (pos, zeros), one per row."""
    committed = ((1 << k) - 1) & ~zeros
    mass = 1.0 / (1 << popcounts(zeros))
    return np.where(np.arange(1 << k) & committed[:, None] == pos[:, None], mass[:, None], 0.0)


def tightness_witness(v: AbstainReport) -> np.ndarray:
    """Distribution that agrees with v where it commits and randomizes signs
    on its abstentions: uniquely minimized at v for strict polymatroids.
    One-row view of _tightness_witnesses."""
    return _tightness_witnesses(v.k, np.array([v.pos]), np.array([v.zeros]))[0]


def verify_tightness(f, grid_m: int = 8) -> VerificationReport:
    """Unique-minimizer witnesses for reports without a lone abstention, and
    grid domination of lone-abstention reports by their sign completions."""
    integer(grid_m, "grid_m", 1)
    f = _symmetric_table(f, "tightness check")
    rep = validate_polymatroid(f, strict=True)
    if not (rep.valid and rep.strictly_submodular and rep.strictly_increasing):
        raise ValueError("tightness requires a strictly submodular, strictly increasing polymatroid")
    k = capped(f.k, "k", ORACLE_MAX_K, "tightness verification")
    fc = as_collection(f)
    id_of = _report_id_table(k)
    table = abstain_loss_table(fc)
    pos, zeros = _report_masks(k)
    lone = popcounts(zeros) == 1

    v0, vid = np.flatnonzero(~lone), np.flatnonzero(lone)
    plus, minus = id_of[pos[vid] | zeros[vid], 0], id_of[pos[vid], 0]

    def checked():
        P = _tightness_witnesses(k, pos[v0], zeros[v0])  # each v0 is the unique minimizer at its witness
        vals = P @ table.T
        rows = np.arange(len(v0))
        own = vals[rows, v0]
        vals[rows, v0] = np.inf
        yield (~(own < vals.min(axis=1) - MARGIN),
               lambda j: {"v": str(_report_at(k, v0[j])), "p": P[j].tolist(), "unique": False})
        for P in _grid_blocks(k, grid_m) if k <= 3 else [uniform(k)[None]]:
            vals = P @ table.T
            yield (np.minimum(vals[:, plus], vals[:, minus]) > vals[:, vid] + EXACT_TOL,
                   lambda f: {"v": str(_report_at(k, vid[f % len(vid)])), "p": P[f // len(vid)].tolist(),
                              "dominated": False})

    return _first_failure("tightness", checked())


# ---------------------------------------------------------------------------
# Inconsistency counterexamples
# ---------------------------------------------------------------------------


@dataclass
class SymmetricCounterexample:
    consistent_case: bool
    epsilon: float | None = None
    kept_coords: list[int] | None = None
    y_bits: int | None = None
    y_prime_bits: int | None = None
    v: AbstainReport | None = None
    p_y: np.ndarray | None = None
    p_y_prime: np.ndarray | None = None
    details: dict = field(default_factory=dict)


def restrict_to_coords(f: SetFunction, coords: list[int]) -> SetFunction:
    """Set function induced on the coordinates coords, in their order, each checked to lie in [0, k) once."""
    kk = len(coords)
    for c in coords:
        integer(c, "coords", 0, f.k - 1)
    if len(set(coords)) < kk:
        raise ValueError(f"coords must not repeat a coordinate, got {coords}")
    masks = np.bitwise_or.reduce(_bit_rows(np.arange(1 << kk), kk) << np.array(coords, dtype=np.int64), axis=1)
    return SetFunction(kk, f.values[masks])


def counterexample_symmetric(f) -> SymmetricCounterexample:
    """Construct two ridge distributions that pin a single abstaining report
    as hinge-optimal while demanding different plain-loss answers.

    Returns a consistent-case marker for modular inputs (the one case where
    no such certificate exists). Coordinates with a zero singleton value are
    discarded first; they never affect the loss.
    """
    f = _symmetric_table(f, "symmetric counterexample")
    base = validate_polymatroid(f)
    if not base.valid:
        raise ValueError("f must be a valid polymatroid")
    if base.modular:
        return SymmetricCounterexample(consistent_case=True)

    coords = [i for i in range(f.k) if f.values[1 << i] > ATOL]
    fr = restrict_to_coords(f, coords) if len(coords) < f.k else f
    if validate_polymatroid(fr).modular:
        raise RuntimeError("non-modular table became modular after discarding null coordinates")
    k = fr.k
    fbar = mean_value(fr)
    eps = 0.5 * (1.0 - fr.full() / (2.0 * fbar))
    full = (1 << k) - 1

    fc = as_collection(fr)
    pos, zeros = _report_masks(k)
    table = abstain_loss_table(fc)
    plain = plain_loss_table(fc)

    p_y = mix(uniform(k), point_mass(full, k), eps)
    vals = table @ p_y
    ids = argmin_ids(vals)
    # The optimal set must avoid every +-1 report; pick a minimizer that
    # commits nowhere against y so that flipping fixes it in place.
    if any(zeros[i] == 0 for i in ids):
        raise RuntimeError("a non-abstaining report is hinge-optimal; construction failed")
    pick = next((i for i in sorted(ids) if pos[i] == full & ~zeros[i]), None)
    if pick is None:
        raise RuntimeError("no optimal report agrees with the bumped label off its abstentions")
    v = _report_at(k, pick)

    y_prime = v.pos  # abstentions flip to -1, commitments stay +1
    r = v.pos  # bitmask of y * y'
    p_yp = flip(p_y, r, k)

    plain_y = plain @ p_y
    plain_yp = plain @ p_yp
    if not (_uniquely_optimal(plain_y, full) and _uniquely_optimal(plain_yp, y_prime)
            and pick in argmin_ids(table @ p_yp) and vals[pick] < (1.0 - eps) * 2.0 * fbar - MARGIN):
        raise RuntimeError("counterexample certificate failed to verify")
    return SymmetricCounterexample(
        consistent_case=False,
        epsilon=eps,
        kept_coords=coords,
        y_bits=full,
        y_prime_bits=y_prime,
        v=v,
        p_y=p_y,
        p_y_prime=p_yp,
        details={
            "mean_value": fbar,
            "abstain_value": float(vals[pick]),
            "best_plain_value": float(plain_y[full]),
        },
    )


@dataclass
class AsymmetricCounterexample:
    mode: str  # "direct", "flipped" or "sequence"
    epsilon: float
    p_witness: np.ndarray
    v_opt: AbstainReport
    linked_bits: int
    bad_sign_bits: int | None = None
    details: dict = field(default_factory=dict)


EPS_SCHEDULE = [2.0**-e for e in range(3, 13)]


def counterexample_asymmetric(fc) -> AsymmetricCounterexample:
    """Find a distribution where the all-abstain report is uniquely optimal
    for the hinge, then certify that the plain sign link must answer wrong.

    Requires the complementary-error condition (checked) and k >= 3. The
    witness takes one of three shapes: the sign of the zero report is already
    plain-suboptimal ("direct"), every +-1 report ties and a second bump
    breaks the tie against it ("flipped"), or some label is plain-suboptimal
    and a ray toward it reaches the optimal hinge value ("sequence").
    """
    fc = as_collection(fc)
    k = capped(integer(fc.k, "k", 3), "k", ORACLE_MAX_K, "asymmetric counterexample")
    cond = check_condition1(fc)
    if not cond.passed:
        raise ValueError(f"collection fails the complementary-error condition: {cond.reason}")

    full = (1 << k) - 1
    id_of = _report_id_table(k)
    table = abstain_loss_table(fc)
    plain = plain_loss_table(fc)
    zero_id, plus_id = int(id_of[0, full]), int(id_of[full, 0])

    base = table @ uniform(k)
    lemma_ok = argmin_ids(base) <= {zero_id, plus_id}
    if not lemma_ok:
        raise RuntimeError("optimal set at the uniform distribution escapes {0, all-plus}")

    chosen = None
    for eps in EPS_SCHEDULE:
        p_eps = mix(uniform(k), point_mass(0, k), eps)
        vals = table @ p_eps
        if _uniquely_optimal(vals, zero_id):
            # The bump term is the abstain loss against the all-minus label;
            # it is zero exactly at the all-minus report, where the dominance
            # inequality holds with a zero left side.
            term = table[:, 0]
            ineq_b = term[zero_id] > 0 and np.all(eps * term < (1.0 - eps) * base)
            ineq_a = vals[plus_id] > vals[zero_id] + MARGIN
            if ineq_a and ineq_b:
                chosen = (eps, p_eps, vals)
                break
    if chosen is None:
        raise RuntimeError("no epsilon in the schedule isolates the all-abstain report")
    eps, p_eps, vals = chosen

    if k <= 3:  # lattice guard: no off-report point beats the report optimum
        lat_vals = _hinge_table(fc, _lattice(k)) @ p_eps
        if lat_vals.min() < vals[zero_id] - MARGIN:
            raise RuntimeError("lattice point beats the report optimum")

    v_opt = _report_at(k, zero_id)
    y_hat = full  # sign* of the zero vector under the fixed 0 -> +1 rule
    plain_vals = plain @ p_eps
    plain_arg = argmin_ids(plain_vals)

    if y_hat not in plain_arg:
        return AsymmetricCounterexample(
            "direct", eps, p_eps, v_opt, y_hat,
            details={"plain_argmin": sorted(plain_arg), "abstain_values": vals.tolist()},
        )

    if plain_arg == set(range(1 << k)):
        for eps2 in EPS_SCHEDULE:
            p2 = mix(p_eps, point_mass(full ^ y_hat, k), eps2)
            v2 = table @ p2
            pl2 = plain @ p2
            if _uniquely_optimal(v2, zero_id) and pl2[y_hat] > pl2.min() + MARGIN:
                return AsymmetricCounterexample(
                    "flipped", eps, p2, v_opt, y_hat,
                    details={"epsilon_prime": eps2},
                )
        raise RuntimeError("tie-breaking bump failed to exclude the linked label")

    y_out = min(set(range(1 << k)) - plain_arg)
    signs = _sign_rows(y_out, k)
    ray_gap = expected_hinge(fc, signs, p_eps) - vals[zero_id]
    gaps = []
    for t in (1.0, 0.5, 0.25, 1e-3):
        g = expected_hinge(fc, t * signs, p_eps) - vals[zero_id]
        gaps.append(g)
        if abs(g - t * ray_gap) > ATOL:
            raise RuntimeError("hinge is not affine along the witness ray")
    return AsymmetricCounterexample(
        "sequence", eps, p_eps, v_opt, y_hat, bad_sign_bits=y_out,
        details={"ray_gap_coefficient": float(ray_gap), "ray_gaps": gaps},
    )


# ---------------------------------------------------------------------------
# Link calibration sweeps and the naive-link failure witness
# ---------------------------------------------------------------------------


def calibration_sweep(
    fc,
    grid_m: int,
    taus=(0.0, 0.5, 1.0),
    n_perturb: int = 20,
    rng: np.random.Generator | None = None,
) -> VerificationReport:
    """Perturb every optimal report by less than eps = 1/(2k) and demand the
    threshold-abstain link lands back in the optimal set, for each tau. Each
    step draws and links whole (pair, n_perturb) groups of at most 2,048
    points (_SWEEP_CELLS; one pair for a larger n_perturb) in one call over
    the (1, T) grid of taus, so each point is sorted once for every tau and a
    step's temporaries stay under 2 MiB at k <= 4 with three taus. Cases run
    (distribution, optimal report) pair-major, then perturbation, then tau.
    Raises ValueError naming taus unless it is a nonempty vector in [0, 1]."""
    fc = as_collection(fc)
    k = fc.k
    integer(grid_m, "grid_m", 1)
    taus = _taus(taus)
    rng = rng if rng is not None else np.random.default_rng(0)
    eps = LinkConfig().resolve_epsilon(k)
    vectors = _report_signs(k)
    id_of = _report_id_table(k)
    table = abstain_loss_table(fc)
    integer(n_perturb, "n_perturb", 1)

    def checked():
        step = max(1, _SWEEP_CELLS // _LINK_CELLS // n_perturb)  # whole (pair, perturbation) groups
        for P in _grid_blocks(k, grid_m):
            optimal = _argmin_mask(P @ table.T)
            rows, vids = np.nonzero(optimal)
            for start in range(0, len(vids), step):
                pairs = np.arange(start, min(start + step, len(vids))).repeat(n_perturb)  # one per point
                us = vectors[vids[pairs]] + rng.uniform(-0.99 * eps, 0.99 * eps, size=(len(pairs), k))
                pos, zeros = link_rows(us, eps, taus[None])

                def witness(j):
                    point, t = divmod(j, len(taus))
                    return {"p": P[rows[pairs[point]]].tolist(), "v": str(_report_at(k, vids[pairs[point]])),
                            "u": us[point].tolist(), "tau": float(taus[t]),
                            "linked": str(AbstainReport(k, int(pos.flat[j]), int(zeros.flat[j])))}

                yield ~optimal[rows[pairs, None], id_of[pos, zeros]], witness

    return _first_failure("calibration", checked())


@dataclass
class NaiveLinkWitness:
    c: float
    p: np.ndarray
    u_star: np.ndarray
    bad_report: AbstainReport
    optimal_ids: set[int]
    gaps: list[float]


def naive_link_inconsistency(fc, c: float = 0.5, grid_m: int = 8) -> NaiveLinkWitness:
    """Exhibit a distribution where per-coordinate thresholding is miscalibrated.

    Exact hinge minimizers always threshold into the optimal set, so the
    witness is a minimizing sequence: points approaching an optimal edge
    whose thresholded report stays outside the optimal set while their
    expected hinge converges to the optimum: c + t off j and c - t on j, signed
    by v, at t = 1e-3, 1e-4, 1e-5, for the grid's first (p, +-1 report v, j)
    where all-abstain and v are optimal and v with j abstained is not. It is
    checked as a certificate: gaps >= -EXACT_TOL, the last below 1e-4 x max loss.
    """
    fc = as_collection(fc)
    k = fc.k
    integer(grid_m, "grid_m", 1)
    pos, zeros = _report_masks(k)
    id_of = _report_id_table(k)
    table = abstain_loss_table(fc)
    bits = _row_masks(np.eye(k, dtype=bool))  # coordinate j's bit
    drop_ids = id_of[pos[:, None] & ~bits, bits]  # (report, j): the report with j abstained
    for P in _grid_blocks(k, grid_m):
        vals = P @ table.T
        optimal = _argmin_mask(vals)
        candidates = optimal[:, id_of[0, -1], None, None] & (optimal & (zeros == 0))[..., None] & ~optimal[:, drop_ids]
        if candidates.any():
            i, yid, j = np.unravel_index(candidates.argmax(), candidates.shape)
            signs, bad = _report_signs(k)[yid], _report_at(k, drop_ids[yid, j])
            us = (c + np.array([[1e-3], [1e-4], [1e-5]]) * np.where(np.arange(k) == j, -1.0, 1.0)) * signs
            gaps = [expected_hinge(fc, u, P[i]) - vals[i].min() for u in us]
            if ({naive_threshold_link(u, c) for u in us} != {bad}
                    or min(gaps) < -EXACT_TOL or gaps[-1] >= 1e-4 * table.max()):
                raise RuntimeError("naive-link witness failed to verify")
            return NaiveLinkWitness(c, P[i], c * signs, bad, set(np.flatnonzero(optimal[i]).tolist()), gaps)
    raise RuntimeError("no naive-link failure found on this grid")


# ---------------------------------------------------------------------------
# Thickened envelope from grid-sampled optimal sets (containment check only)
# ---------------------------------------------------------------------------


def thickened_envelope_grid(fc, u, epsilon: float, grid_m: int = 8) -> set[int]:
    """Approximate per-loss link envelope, with optimal sets sampled on the
    distribution grid. Never a production link; used to falsify containment.

    A face lies inside an optimal set when its member words share no bit with
    the set's packed complement; every set with an inside face within epsilon
    of u cuts the envelope down to itself. Raises ValueError naming u unless
    it is k finite numbers, epsilon unless it is positive and finite, or
    grid_m unless it is an integer >= 1."""
    fc = as_collection(fc)
    k = fc.k
    u, epsilon = points(u, "u", 1, k), real(epsilon, "epsilon", "(0, inf)")
    integer(grid_m, "grid_m", 1)
    table = surrogate_loss_table(fc)
    optimal = np.zeros((0, len(table)), dtype=bool)
    for P in _grid_blocks(k, grid_m):
        optimal = np.unique(np.vstack([optimal, _argmin_mask(P @ table.T)]), axis=0)
    near = _face_member_matrix(k)[faces_within(clip(u)[None, :], epsilon - GAP_TOL)[0]]
    outside = ~_member_words(optimal)
    cut = ~(near[None] & outside[:, None]).any(axis=2).all(axis=1)  # some near face lies inside the set
    return set(np.flatnonzero(optimal[cut].all(axis=0)).tolist())
