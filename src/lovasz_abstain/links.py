"""Link functions from surrogate points to abstain reports.

The production route is one batched kernel, ``gap_levels``: it clips each row
to [-1, 1]^k, sorts the magnitudes descending (ties by ascending index) and
pads them with the sentinels 1+eps and -eps. Level i, which keeps the i
largest magnitudes and abstains on the rest, is in the link envelope when the
gap below it is >= 2 eps - GAP_TOL. The envelope, its batch forms and the
threshold-abstain link ``link_rows`` are views of the kernel, and the scalar
functions are their one-row views. The link picks one level per row and builds
the (pos, zeros) masks of that level only; only the envelope routes
materialise the masks of all k+1 levels (``_level_masks``). Its tau is one
number, one per row, or a (1, T) or (n, T) grid: a grid sorts each row once
and repeats only the per-row results of the sort T times, so T taus cost one
sort, and the one-tau path runs no extra numpy call. Tie rules are
fixed: the sign of an exact 0 is +1 wherever a +-1 sign is forced (the link
leaves an exact 0 abstained), and midpoint ties pick the largest index. Entry
points raise ValueError naming u or us for a wrong number of axes, no
coordinates (or more than MAX_K) or a non-finite entry; ``link_rows`` and
the batch envelope routes raise one naming eps, and ``LinkConfig`` one naming
epsilon, unless it is a real number in (0, inf) (bools are not), and
``link_rows`` one naming tau for a shape other than those above. The rules
are those of _args.py. The verification route shares no code with the kernel: it
intersects the chain faces whose hulls pass within eps of the clipped point in
the infinity norm, all read from one face kernel, ``faces_within``. A face
whose sign disagrees with x_j at a coordinate j of its top support with |x_j|
>= t is at least 1 from its forced prefix or at least |x_j| below a free block
there, so it cannot come within t. The kernel therefore expands each point
into one sign row per sign choice of its coordinates with |x_j| < t and
evaluates only the unsigned chains on each: 3/11/51/299 at k = 1..4, against
5/33/293/3,393 signed faces; the route stops at _args.FACE_MAX_K = 4, and its
entry points reject a larger u or us ("face route of u capped at k <= 4, got
k=5"). A point's envelope is the AND of the member words (one uint64 per 64
reports) of its qualifying faces, packed once per k where ``chain_faces``
builds the face tables from numpy arrays; only the chains are enumerated in
Python. Both routes resolve exact eps boundaries toward keeping the vertex
(tolerance GAP_TOL): they agree as sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._args import FACE_MAX_K, capped, points, real
from ._tol import GAP_TOL
from .lovasz import clip
from .setfn import _bit_rows, _format, _row_masks, popcounts
from .targets import AbstainReport, _report_at, _report_id_table


@dataclass(frozen=True)
class LinkConfig:
    """Parameters of the threshold-abstain link family.

    epsilon None means the widest always-valid thickening 1/(2k), resolved
    once the dimension is known. Tie rules are fixed: sign of an exact zero
    is +1 wherever a +-1 sign is forced, and midpoint ties in the gap index
    pick the largest index (fewest abstentions).
    """

    epsilon: float | None = None
    tau: float = 0.5

    def __post_init__(self):
        if self.epsilon is not None:
            real(self.epsilon, "epsilon", "(0, inf)")
        real(self.tau, "tau", "[0, 1]")

    def resolve_epsilon(self, k: int) -> float:
        return self.epsilon if self.epsilon is not None else 1.0 / (2 * k)


def naive_threshold_link(u, c: float) -> AbstainReport:
    """Abstain wherever |u_i| < c, otherwise take the sign."""
    c, u = real(c, "c", "(0, inf]"), points(u, "u", 1)
    out = np.where(np.abs(u) < c, 0.0, np.sign(u))
    return AbstainReport.from_vector(out.astype(int))


def gap_levels(us: np.ndarray, eps: float):
    """(x, order, seq, qualify) of finite (n, k) points us; callers check us.

    x clips us to [-1, 1]; order[j] sorts |x[j]| descending, ties by ascending
    index; seq[j] is 1+eps, the sorted magnitudes, then -eps; qualify[j, i]
    marks level i, whose gap seq[j, i] - seq[j, i+1] is >= 2 eps - GAP_TOL.
    Built from ufuncs and array methods, which skip the Python wrappers of
    np.clip and np.argsort (about 1 us each per call, as much as their work
    on one row).
    """
    x = np.minimum(np.maximum(us, -1.0), 1.0)  # np.clip's values, +-0 included
    neg = -np.abs(x)
    order = neg.argsort(kind="stable")
    n, k = x.shape
    seq = np.empty((n, k + 2))
    seq[:, 0], seq[:, -1] = 1.0 + eps, -eps
    neg.sort()
    np.negative(neg, out=seq[:, 1:-1])
    return x, order, seq, seq[:, :-1] - seq[:, 1:] >= 2 * eps - GAP_TOL


def _level_masks(x: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(pos, zeros) int64 bitmasks, shape (n, k+1), of every level of each row:
    level i keeps the coordinates order[:i] with their sign* and abstains on the
    rest. For the envelope routes; the link builds only the level it picks."""
    n, k = x.shape
    bits = 1 << order
    kept = np.zeros((n, k + 1), dtype=np.int64)
    pos = np.zeros_like(kept)
    np.cumsum(bits, axis=1, out=kept[:, 1:])
    np.cumsum(bits * (x[np.arange(n)[:, None], order] >= 0), axis=1, out=pos[:, 1:])
    return pos, ((1 << k) - 1) ^ kept


def _one_row(u, cfg: LinkConfig):
    """The kernel at the single point u, checked: (x, order, qualify, pos, zeros) of its row."""
    u = points(u, "u", 1)
    x, order, _, qualify = gap_levels(u[None], cfg.resolve_epsilon(len(u)))
    pos, zeros = _level_masks(x, order)
    return x[0], order[0], qualify[0], pos[0], zeros[0]


def envelope(u, cfg: LinkConfig) -> set[AbstainReport]:
    """Gap-rule link envelope at u.

    Level i (abstaining below the i largest magnitudes, signs from sign*)
    is a member exactly when the sorted-magnitude gap at i is >= 2 eps,
    with sentinels 1+eps and -eps closing the two ends.
    """
    x, _, qualify, pos, zeros = _one_row(u, cfg)
    return {AbstainReport(len(x), p, z) for p, z in zip(pos[qualify].tolist(), zeros[qualify].tolist())}


def envelope_detailed(u, cfg: LinkConfig) -> list[dict]:
    """Envelope members annotated with their (pi, y, i) witness."""
    x, order, qualify, pos, zeros = _one_row(u, cfg)
    return [
        {
            "report": str(AbstainReport(len(x), int(pos[i]), int(zeros[i]))),
            "i": int(i),
            "pi": [int(j) + 1 for j in order],
            "y": _format(len(x), int(pos[-1])),  # level k keeps every coordinate with its sign*
        }
        for i in np.flatnonzero(qualify)
    ]


def link_rows(us: np.ndarray, eps: float, tau) -> tuple[np.ndarray, np.ndarray]:
    """Threshold-abstain link of each row of us, as (pos, zeros) int64 bitmasks.

    Picks the qualifying level whose gap midpoint is closest to tau; ties go
    to the largest index. tau is one number or one per row, giving (n,)
    masks, or a grid of shape (1, T) or (n, T), giving (n, T) masks whose
    column t is the link at tau[:, t]; each row is sorted once for all of
    them. Only the picked level's masks are built, never those of all k+1
    levels. Kept coordinates take the sign of the clipped point, so an exact
    0 stays abstained. Raises ValueError naming tau for another shape or a
    value outside [0, 1], one naming eps unless it is positive and finite,
    and one when a row has no qualifying level; eps <= 1/(2k) rules that out.
    """
    us, tau = points(us, "us", 2), np.asarray(tau, dtype=float)
    if tau.ndim > 2 or (tau.ndim and len(tau) not in (1, len(us))):
        raise ValueError(f"tau has shape {tau.shape}, expected a number, (n,), (1, T) or (n, T) with n = {len(us)}")
    return _link(us, real(eps, "eps", "(0, inf)"), real(tau, "tau", "[0, 1]"))


def _taus(taus) -> np.ndarray:
    """A sweep's taus as floats; a ValueError naming taus unless a nonempty vector of reals in [0, 1]."""
    taus = real(np.asarray(taus), "taus", "[0, 1]").astype(float)
    if taus.ndim != 1 or not len(taus):
        raise ValueError(f"taus must be a nonempty vector, got shape {taus.shape}")
    return taus


def _link(us: np.ndarray, eps: float, tau) -> tuple[np.ndarray, np.ndarray]:
    """link_rows of checked points us, a checked eps and a checked tau.

    Sorts each row once and reads off what the level pick needs per row. A
    2-D tau grid then repeats those rows once per column, so the pick below
    reads one row and one tau either way, and builds the masks of the picked
    level only."""
    x, order, seq, qualify = gap_levels(us, eps)
    k = x.shape[1]
    mid, rank, live, plus = (seq[:, :-1] + seq[:, 1:]) / 2.0, order.argsort(), x != 0.0, _row_masks(x >= 0.0)
    grid = getattr(tau, "ndim", 0) == 2
    if grid:
        shape = (len(us), tau.shape[1])
        mid, qualify, rank, live, plus = (a.repeat(shape[1], axis=0) for a in (mid, qualify, rank, live, plus))
        tau = np.broadcast_to(tau, shape).ravel()
    dist = np.where(qualify, np.abs(np.asarray(tau)[..., None] - mid), np.inf)
    level = k - dist[:, ::-1].argmin(axis=1)  # the first minimum of the reversed row: largest index wins ties
    if not qualify[np.arange(len(level)), level].all():
        raise ValueError(f"no gap of size 2*eps: eps={eps} exceeds 1/(2k)={1 / (2 * k)}")
    # The coordinates ranked below the level, less exact zeros: zeros sort
    # last, so this keeps the first min(level, nonzeros) and leaves zeros abstained.
    kept = _row_masks((rank < level[:, None]) & live)
    pos, zeros = kept & plus, ((1 << k) - 1) ^ kept
    return (pos.reshape(shape), zeros.reshape(shape)) if grid else (pos, zeros)


def threshold_abstain_link(u, cfg: LinkConfig) -> AbstainReport:
    """Pick the envelope level whose gap midpoint is closest to tau.

    Output is the prefix indicator at that level times sign of the clipped
    point, so coordinates at exactly zero stay abstained. Well defined for
    eps <= 1/(2k); larger eps can leave no qualifying gap. One-row view of
    link_rows.
    """
    u = points(u, "u", 1)
    pos, zeros = _link(u[None], cfg.resolve_epsilon(len(u)), cfg.tau)
    return AbstainReport(len(u), int(pos[0]), int(zeros[0]))


def trim_rows(pos: np.ndarray, zeros: np.ndarray, us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of (pos, zeros) bitmasks with exactly one abstention take sign* of
    the matching row of us there; other rows are returned unchanged."""
    us = points(us, "us", 2)
    lone = (zeros != 0) & (zeros & (zeros - 1) == 0)
    plus = _row_masks(us >= 0)
    return np.where(lone, pos | (zeros & plus), pos), np.where(lone, 0, zeros)


def trim_single_abstain(v: AbstainReport, u) -> AbstainReport:
    """Replace a lone abstention by the sign of the corresponding coordinate;
    one-row view of trim_rows."""
    u = points(u, "u", 1, v.k)
    pos, zeros = trim_rows(np.array([v.pos]), np.array([v.zeros]), u[None])
    return v if zeros[0] == v.zeros else AbstainReport(v.k, int(pos[0]), 0)


def envelope_members_gap(us: np.ndarray, eps: float) -> np.ndarray:
    """(n, n_reports) boolean membership of the gap-rule envelope, row-wise."""
    us, eps = points(us, "us", 2), real(eps, "eps", "(0, inf)")
    x, order, _, qualify = gap_levels(us, eps)
    pos, zeros = _level_masks(x, order)
    ids = _report_id_table(us.shape[1])
    out = np.zeros((len(us), 3**us.shape[1]), dtype=bool)
    out[np.nonzero(qualify)[0], ids[pos[qualify], zeros[qualify]]] = True
    return out


# ---------------------------------------------------------------------------
# Geometric route: chain faces whose hulls lie within t of a point.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def chain_faces(k: int):
    """(chains, chain, sigma, words, face_of): the signed chain faces as arrays.

    chains lists the unsigned chains (strictly nested tuples of bitmasks; 299
    at k = 4, the only Python loop) by top support ascending; for each top,
    (top,) comes first, then each chain ending at a proper subset s of top (s
    ascending) extended by top. Faces are chain-major and sign their chain's
    top in itertools.product order over its bits, ascending, the lowest bit
    most significant. chain[f] and sigma[f] are face f's chain and sign
    bitmask; words[f] packs the report ids of its supports, each signed by
    sigma, with _member_words; face_of[c, b] is the face of chain c signed by
    b & top.
    """
    capped(k, "k", FACE_MAX_K, "face route")
    ending = []  # ending[top]: the chains whose largest support is top
    for top in range(1 << k):
        ending.append([(top,)] + [c + (top,) for s in range(top) if s & top == s for c in ending[s]])
    chains = [c for e in ending for c in e]
    supports = np.array([c + c[-1:] * (k + 1 - len(c)) for c in chains])  # padded with the top
    top, size = supports[:, -1], popcounts(supports[:, -1])
    chain = np.repeat(np.arange(len(chains)), 1 << size)
    combo = np.arange(len(chain)) - np.repeat(np.cumsum(1 << size) - (1 << size), 1 << size)
    sigma = np.zeros_like(combo)
    for i in range(k):  # the j-th lowest bit of top reads bit size-1-j of the face's product index
        shift = np.maximum(size - 1 - popcounts(top & ((1 << i) - 1)), 0)
        sigma |= (combo >> shift[chain] & top[chain] >> i & 1) << i
    faces, held = np.arange(len(chain)), supports[chain]
    members = np.zeros((len(chain), 3**k), dtype=bool)
    members[faces[:, None], _report_id_table(k)[held & sigma[:, None], ((1 << k) - 1) & ~held]] = True
    face = np.zeros((len(chains), 1 << k), dtype=np.int64)
    face[chain, sigma] = faces
    return (chains, chain, sigma, _member_words(members),
            face[np.arange(len(chains))[:, None], np.arange(1 << k) & top[:, None]])


@lru_cache(maxsize=None)
def _chain_plan(k: int):
    """The unsigned chains of chain_faces(k) and the subset-table rows that
    faces_within reads for them.

    Returns (levels, prefix, union, suffix, face_of), with chains numbered as
    in chain_faces(k). levels[L-1] = (ids, parents, blocks) covers the chains
    with L free blocks: parents are the same chains without their last
    support, blocks the table rows of the last block. prefix, union and suffix
    hold, per chain, the rows of its forced prefix (the first support), of all
    its free blocks together and of its forced-zero suffix; a row is the
    subset itself. face_of[c, b] is the face of chain c signed by b & top, the
    face that a sign row with positive coordinates b reads.
    """
    chains, _, _, _, face_of = chain_faces(k)
    index = {c: i for i, c in enumerate(chains)}
    length, parent, first, top = np.array([(len(c), index.get(c[:-1], -1), c[0], c[-1]) for c in chains]).T
    levels = tuple((ids, parent[ids], top[ids] & ~top[parent[ids]])
                   for ids in (np.flatnonzero(length == n) for n in range(2, k + 2)))
    return levels, first, top & ~first, ((1 << k) - 1) & ~top, face_of


def _subset_tables(s: np.ndarray):
    """(lo, hi, one_gap, size) subset tables of (n, k) sign rows s, one row
    per subset and one column per sign row.

    Row S holds min s_j, max s_j, max |1 - s_j| and max |s_j| over j in S; the
    empty set reads +inf, -inf, 0 and 0. Each bit j fills the subsets whose
    highest bit is j from those below it, so the tables take k steps.
    """
    n, k = s.shape
    lo, hi, one_gap, size = (np.empty((1 << k, n)) for _ in range(4))
    lo[0], hi[0], one_gap[0], size[0] = np.inf, -np.inf, 0.0, 0.0
    for j in range(k):
        below, block = slice(0, 1 << j), slice(1 << j, 2 << j)
        sj = s[:, j]
        np.minimum(lo[below], sj, out=lo[block])
        np.maximum(hi[below], sj, out=hi[block])
        np.maximum(one_gap[below], np.abs(1.0 - sj), out=one_gap[block])
        np.maximum(size[below], np.abs(sj), out=size[block])
    return lo, hi, one_gap, size


def faces_within(x_rows: np.ndarray, t: float) -> np.ndarray:
    """(n, faces) bool: the faces of chain_faces(k) whose hull lies strictly
    within t of each row of x_rows (clipped points) in the infinity norm.

    The hull of a chain face is cut out by a forced prefix (signed value 1),
    free blocks with a nonincreasing value chain in [0, 1], and a forced-zero
    suffix; its distance is the smallest slack making the per-block intervals
    admit a nonincreasing selection. A face whose sign disagrees with x_j at a
    coordinate j of its top support where |x_j| >= t never qualifies, since
    there s_j = -|x_j| puts it at least 1 from the prefix value or |x_j| >= t
    below a free block's floor of 0. So each row is expanded into one sign
    row per sign choice of its coordinates with |x_j| < t (+-0 included), the
    others taking s_j = |x_j|, and only the unsigned chains are evaluated on
    each. Chains are processed level by level: each one extends its parent's
    running block minimum and its largest (max of a block - running min) / 2
    by its last block, so the only loop is over chain lengths.
    """
    x_rows = np.asarray(x_rows, dtype=float)
    n, k = x_rows.shape
    out = np.zeros((n, len(chain_faces(k)[1])), dtype=bool)
    if not t > 0:
        return out
    levels, prefix, union, suffix, face_of = _chain_plan(k)
    big = _row_masks(np.abs(x_rows) >= t)
    plus = _row_masks(x_rows > 0)
    point, b = np.nonzero((np.arange(1 << k) ^ plus[:, None]) & big[:, None] == 0)
    s = np.where(_bit_rows(b, k), x_rows[point], -x_rows[point])
    lo, hi, one_gap, size = _subset_tables(s)
    run_min = np.full((len(prefix), len(s)), np.inf)
    spread = np.zeros((len(prefix), len(s)))
    for ids, parents, blocks in levels:
        m = np.minimum(run_min[parents], lo[blocks])
        run_min[ids] = m
        spread[ids] = np.maximum(spread[parents], (hi[blocks] - m) / 2.0)
    d = np.maximum(one_gap[prefix], size[suffix])
    np.maximum(d, spread, out=d)
    np.maximum(d, np.maximum(hi - 1.0, -lo)[union], out=d)
    chain, row = np.divmod(np.flatnonzero(d < t), len(s))  # flatnonzero: 2-D nonzero is slower
    out[point[row], face_of[chain, b[row]]] = True
    return out


def envelope_oracle(u, cfg: LinkConfig) -> set[AbstainReport]:
    """Direct-definition envelope: intersect every face hull within eps of
    the clipped point. Exponential in k; the verification route. One-row
    view of envelope_members_oracle."""
    u = points(u, "u", 1)
    capped(len(u), "k", FACE_MAX_K, "face route of u")
    members = envelope_members_oracle(u[None], cfg.resolve_epsilon(len(u)))[0]
    return {_report_at(len(u), i) for i in np.flatnonzero(members)}


@lru_cache(maxsize=None)
def _face_member_matrix(k: int) -> np.ndarray:
    """The (faces, words) uint64 member words of chain_faces(k), a cache of
    their own because perfbench's tracer reads its cache_info()."""
    return chain_faces(k)[3]


# Rows per faces_within call. Best of 50 on 1,000 points at k = 4, eps 1/8, one
# BLAS thread: 64 and 128 rows ran within noise of each other (11-12 ms) and
# faster than 32 (14 ms), 256 (13 ms) or all rows (22 ms); 64 holds the least.
_ORACLE_ROWS = 64


def _member_words(members: np.ndarray) -> np.ndarray:
    """(rows, words) uint64 packing of a bool matrix: bit r % 64 of word r // 64
    holds column r, and the padding bits are 0. np.unpackbits of the words'
    uint8 view, with bitorder="little", gives the columns back."""
    padded = np.zeros((len(members), -(-members.shape[1] // 64) * 64), dtype=bool)
    padded[:, : members.shape[1]] = members
    return np.packbits(padded, axis=1, bitorder="little").view(np.uint64)


def envelope_members_oracle(us: np.ndarray, eps: float) -> np.ndarray:
    """Row-wise face-intersection envelope membership; matches the gap route.

    Rows go through faces_within in blocks of _ORACLE_ROWS, so the (n, faces)
    verdicts are never held whole. Each point ANDs the packed member words of
    its qualifying faces; a point with none keeps every report, as an empty
    intersection does."""
    us = points(us, "us", 2)
    capped(us.shape[1], "k", FACE_MAX_K, "face route of us")
    eps = real(eps, "eps", "(0, inf)")
    n_reports = 3 ** us.shape[1]
    words = _face_member_matrix(us.shape[1])
    out = np.empty((len(us), n_reports), dtype=bool)
    for start in range(0, len(us), _ORACLE_ROWS):
        x = clip(us[start : start + _ORACLE_ROWS])
        point, face = np.divmod(np.flatnonzero(faces_within(x, eps - GAP_TOL)), len(words))
        count = np.bincount(point, minlength=len(x))
        hit = count > 0
        common = np.full((len(x), words.shape[1]), ~np.uint64(0))
        common[hit] = np.bitwise_and.reduceat(words[face], (np.cumsum(count) - count)[hit], axis=0)
        out[start : start + len(x)] = np.unpackbits(common.view(np.uint8), axis=1, count=n_reports,
                                                    bitorder="little")
    return out
