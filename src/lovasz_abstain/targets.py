"""Discrete target losses over joint reports.

Reports v in {-1,0,1}^k may abstain (0) on any coordinate. The central loss
here charges f_y twice around the misprediction set:

    abstain_loss(v, y) = f_y(mis(v,y) \\ abs(v)) + f_y(mis(v,y))

which the Lovasz hinge reproduces exactly at the points of {-1,0,1}^k.

Report-vs-label bit arithmetic lives in one elementwise kernel, _outcomes,
which splits the committed coordinates into (TP, TN, FP, FN) bitmasks for
ints or broadcasting integer arrays alike; mis, abstain_loss_table and
bench.counts are views of it. The hinge does not use it, so the extension
route stays independent of the table route.

This module owns the canonical report order: the (pos, zeros) masks of
_report_masks, the id lookup _report_id_table and the sign rows
_report_signs. Sweeps read those arrays; report objects are built only for
returned values and witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._tol import ARGMIN_TOL  # kept importable from here; the tie rule itself is oracle._argmin_mask
from .setfn import _DENSE_MAX_K, Label, _checked_k, _checked_label, _format, _pack, _parse, _sign_rows
from .setfn import as_collection, popcounts


@dataclass(frozen=True)
class AbstainReport:
    """A report in {-1,0,1}^k as disjoint bitmasks of +1 and 0 coordinates."""

    k: int
    pos: int
    zeros: int

    def __post_init__(self):
        full = (1 << _checked_k(self.k)) - 1
        if not (0 <= self.pos <= full and 0 <= self.zeros <= full):
            raise ValueError("report bitmasks out of range")
        if self.pos & self.zeros:
            raise ValueError("positive and abstain masks must be disjoint")

    @classmethod
    def from_vector(cls, v) -> "AbstainReport":
        return cls(*_pack(v, "report", zero=True))

    @classmethod
    def from_string(cls, s: str) -> "AbstainReport":
        return cls(*_parse(s, "report", zero=True))

    @classmethod
    def from_label(cls, y: Label) -> "AbstainReport":
        return cls(y.k, y.bits, 0)

    def vector(self) -> np.ndarray:
        return _sign_rows(self.pos, self.k, self.zeros)

    def n_abstain(self) -> int:
        return self.zeros.bit_count()

    def __str__(self) -> str:
        return _format(self.k, self.pos, self.zeros)


def _report(v) -> AbstainReport:
    if isinstance(v, AbstainReport):
        return v
    if isinstance(v, Label):
        return AbstainReport.from_label(v)
    return AbstainReport.from_vector(v)


def _outcomes(k: int, pos, zeros, y):
    """(TP, TN, FP, FN) bitmasks of reports (pos, zeros) against labels y over
    the committed coordinates; ints or broadcasting integer arrays alike."""
    neg = ((1 << k) - 1) ^ (pos | zeros)
    return pos & y, neg & ~y, pos & ~y, neg & y


def mis(v, y) -> int:
    """Bitmask of coordinates where the report disagrees with the label.

    Abstained coordinates always disagree with a +-1 label.
    """
    v = _report(v)
    _, _, fp, fn = _outcomes(v.k, v.pos, v.zeros, _checked_label(y, v.k))
    return fp | fn | v.zeros


def abs_set(v) -> int:
    """Bitmask of abstained coordinates."""
    return _report(v).zeros


def target_plain(fc, r, y) -> float:
    """Joint error f_y(mis(r, y)) for a non-abstaining report r."""
    fc = as_collection(fc)
    r = _report(r)
    if r.zeros:
        raise ValueError("plain structured loss is defined on +-1 reports only")
    if r.k != fc.k:
        raise ValueError(f"report has k={r.k}, collection has k={fc.k}")
    y_bits = _checked_label(y, r.k)
    return float(fc.at(y_bits, mis(r, y_bits)))


def target_abstain(fc, v, y) -> float:
    """Structured abstain loss f_y(mis \\ abs) + f_y(mis)."""
    fc = as_collection(fc)
    v = _report(v)
    if v.k != fc.k:
        raise ValueError(f"report has k={v.k}, collection has k={fc.k}")
    y_bits = _checked_label(y, v.k)
    m = mis(v, y_bits)
    return float(fc.at(y_bits, m & ~v.zeros) + fc.at(y_bits, m))


@lru_cache(maxsize=None)
def _report_masks(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only int64 (pos, zeros) bitmasks of the canonical "V" order.

    Reports are sorted by (zeros, pos): each abstention mask in turn, then the
    subsets of its free coordinates in increasing order. The n-th subset of
    a free mask scatters the bits of n over the free positions, lowest first.
    """
    if k > _DENSE_MAX_K:
        raise ValueError(f"report enumeration capped at k <= {_DENSE_MAX_K}")
    masks = np.arange(1 << k, dtype=np.int64)
    sizes = 1 << (k - popcounts(masks))
    zeros = np.repeat(masks, sizes)
    n = np.arange(len(zeros)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    pos = np.zeros_like(zeros)
    for i in range(k):
        free = 1 - ((zeros >> i) & 1)
        pos |= (n & free) << i
        n >>= free
    pos.setflags(write=False)
    zeros.setflags(write=False)
    return pos, zeros


@lru_cache(maxsize=None)
def _report_id_table(k: int) -> np.ndarray:
    """Dense (pos, zeros) -> canonical report id lookup; -1 off the domain. Read-only."""
    pos, zeros = _report_masks(k)
    table = np.full((1 << k, 1 << k), -1, dtype=np.int64)
    table[pos, zeros] = np.arange(len(pos))
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _report_signs(k: int) -> np.ndarray:
    """Read-only (3^k, k) float rows of the canonical "V" order: +1, 0 or -1
    per coordinate, the vector() of each report."""
    pos, zeros = _report_masks(k)
    signs = _sign_rows(pos, k, zeros)
    signs.setflags(write=False)
    return signs


def _report_at(k: int, i) -> AbstainReport:
    """The report with canonical id i."""
    pos, zeros = _report_masks(k)
    return AbstainReport(k, int(pos[i]), int(zeros[i]))


def enumerate_reports(k: int, family: str = "V") -> list[AbstainReport]:
    """All reports of a family, ordered lexicographically by (zeros, positives).

    "V" is all of {-1,0,1}^k, "V0" removes reports with exactly one zero,
    "Y" is the +-1 labels only.
    """
    if family not in ("V", "V0", "Y"):
        raise ValueError(f"unknown report family {family!r}")
    pos, zeros = _report_masks(k)
    if family == "Y":
        pos, zeros = pos[:1 << k], zeros[:1 << k]  # zeros == 0 comes first
    elif family == "V0":
        keep = popcounts(zeros) != 1
        pos, zeros = pos[keep], zeros[keep]
    return [AbstainReport(k, p, z) for p, z in zip(pos.tolist(), zeros.tolist())]


def report_index(k: int) -> dict[tuple[int, int], int]:
    """Position of each (pos, zeros) pair in the canonical "V" enumeration."""
    pos, zeros = _report_masks(k)
    return dict(zip(zip(pos.tolist(), zeros.tolist()), range(len(pos))))


def abstain_loss_table(fc) -> np.ndarray:
    """(3^k, 2^k) matrix of abstain losses, reports in the canonical "V" order
    along rows, labels along columns.

    The outcome kernel over the (report, label) grid: the same two lookups as
    target_abstain for every cell at once. The masks are in range by
    construction, so the reads skip at's range checks.
    """
    fc = as_collection(fc)
    # uint16 holds every mask at k <= 12 and keeps the four (3^k, 2^k) outcome
    # masks at a quarter of int64's size; the d*k = 9 block check builds this table
    pos, zeros = (m[:, None].astype(np.uint16) for m in _report_masks(fc.k))
    y = np.arange(1 << fc.k, dtype=np.uint16)
    fp, fn = _outcomes(fc.k, pos, zeros, y)[2:]
    wrong = fp | fn
    out = fc._at(y, wrong)
    out += fc._at(y, wrong | zeros)
    return out


def plain_loss_table(fc) -> np.ndarray:
    """(2^k, 2^k) matrix of plain structured losses, reports r along rows:
    f_y(r xor y), the misprediction set of a +-1 report; the masks are in
    range by construction, so the read skips at's range checks."""
    fc = as_collection(fc)
    y = np.arange(1 << fc.k)
    return fc._at(y, y[:, None] ^ y)
