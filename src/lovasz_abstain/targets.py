"""Discrete target losses over joint reports.

Reports v in {-1,0,1}^k may abstain (0) on any coordinate. The central loss
here charges f_y twice around the misprediction set:

    abstain_loss(v, y) = f_y(mis(v,y) \\ abs(v)) + f_y(mis(v,y))

which the Lovasz hinge reproduces exactly at the points of {-1,0,1}^k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .setfn import Label, _checked_label, as_collection

ARGMIN_TOL = 1e-9  # expected losses are small rationals; genuine ties are exact


@dataclass(frozen=True)
class AbstainReport:
    """A report in {-1,0,1}^k as disjoint bitmasks of +1 and 0 coordinates."""

    k: int
    pos: int
    zeros: int

    def __post_init__(self):
        full = (1 << self.k) - 1
        if not (0 <= self.pos <= full and 0 <= self.zeros <= full):
            raise ValueError("report bitmasks out of range")
        if self.pos & self.zeros:
            raise ValueError("positive and abstain masks must be disjoint")

    @classmethod
    def from_vector(cls, v) -> "AbstainReport":
        v = np.asarray(v)
        pos = zeros = 0
        for i, x in enumerate(v):
            if x == 1:
                pos |= 1 << i
            elif x == 0:
                zeros |= 1 << i
            elif x != -1:
                raise ValueError(f"report entries must be in {{-1,0,1}}, got {x}")
        return cls(len(v), pos, zeros)

    @classmethod
    def from_string(cls, s: str) -> "AbstainReport":
        try:
            return cls.from_vector([{"+": 1, "-": -1, "0": 0}[c] for c in s])
        except KeyError as exc:
            raise ValueError(f"report {s!r} has the character {exc.args[0]!r}; expected +, - or 0") from None

    @classmethod
    def from_label(cls, y: Label) -> "AbstainReport":
        return cls(y.k, y.bits, 0)

    def vector(self) -> np.ndarray:
        out = -np.ones(self.k)
        for i in range(self.k):
            if self.pos >> i & 1:
                out[i] = 1.0
            elif self.zeros >> i & 1:
                out[i] = 0.0
        return out

    def n_abstain(self) -> int:
        return self.zeros.bit_count()

    def sign_completion(self, signs_bits: int) -> "AbstainReport":
        """Fill abstained coordinates with signs taken from the given bitmask."""
        return AbstainReport(self.k, self.pos | (self.zeros & signs_bits), 0)

    def __str__(self) -> str:
        return "".join(
            "+" if self.pos >> i & 1 else ("0" if self.zeros >> i & 1 else "-")
            for i in range(self.k)
        )


def _report(v) -> AbstainReport:
    if isinstance(v, AbstainReport):
        return v
    if isinstance(v, Label):
        return AbstainReport.from_label(v)
    return AbstainReport.from_vector(v)


def mis(v, y) -> int:
    """Bitmask of coordinates where the report disagrees with the label.

    Abstained coordinates always disagree with a +-1 label.
    """
    v = _report(v)
    y_bits = _checked_label(y, v.k)
    full = (1 << v.k) - 1
    neg = full & ~(v.pos | v.zeros)
    agree = (v.pos & y_bits) | (neg & ~y_bits & full)
    return full & ~agree


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
    return fc.for_label(y_bits).eval(mis(r, y_bits))


def target_abstain(fc, v, y) -> float:
    """Structured abstain loss f_y(mis \\ abs) + f_y(mis)."""
    fc = as_collection(fc)
    v = _report(v)
    if v.k != fc.k:
        raise ValueError(f"report has k={v.k}, collection has k={fc.k}")
    y_bits = _checked_label(y, v.k)
    f = fc.for_label(y_bits)
    m = mis(v, y_bits)
    return f.eval(m & ~v.zeros) + f.eval(m)


def bep_loss(r, y, n: int) -> float:
    """Abstain-aware multiclass 0-1 loss: 0 if correct, 1/2 on abstain, else 1."""
    if not (1 <= y <= n):
        raise ValueError(f"label {y} outside [1, {n}]")
    if r is None:
        return 0.5
    if not (1 <= r <= n):
        raise ValueError(f"report {r} outside [1, {n}]")
    return 0.0 if r == y else 1.0


def bep_surrogate(u, code) -> float:
    """(max_j code_j * u_j + 1)_+, the max-margin surrogate over a sign codeword."""
    u = np.asarray(u, dtype=float)
    code = np.asarray(code, dtype=float)
    return float(max(np.max(code * u) + 1.0, 0.0))


def enumerate_reports(k: int, family: str = "V") -> list[AbstainReport]:
    """All reports of a family, ordered lexicographically by (zeros, positives).

    "V" is all of {-1,0,1}^k, "V0" removes reports with exactly one zero,
    "Y" is the +-1 labels only.
    """
    if k > 12:
        raise ValueError("report enumeration capped at k <= 12")
    out = []
    if family == "Y":
        return [AbstainReport(k, pos, 0) for pos in range(1 << k)]
    if family not in ("V", "V0"):
        raise ValueError(f"unknown report family {family!r}")
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


def report_index(k: int) -> dict[tuple[int, int], int]:
    """Position of each (pos, zeros) pair in the canonical "V" enumeration."""
    return {(v.pos, v.zeros): i for i, v in enumerate(enumerate_reports(k, "V"))}


def abstain_loss_table(fc, reports=None) -> np.ndarray:
    """(len(reports), 2^k) matrix of abstain losses, labels along columns.

    Bitmask arithmetic over the (report, label) grid: the same two lookups as
    target_abstain, read from fc.table_matrix() for every cell at once.
    """
    fc = as_collection(fc)
    reports = enumerate_reports(fc.k, "V") if reports is None else [_report(v) for v in reports]
    for v in reports:
        if v.k != fc.k:
            raise ValueError(f"report has k={v.k}, collection has k={fc.k}")
    full = (1 << fc.k) - 1
    if not reports:
        return np.empty((0, full + 1))
    F, y = fc.table_matrix(), np.arange(full + 1)
    pos = np.array([v.pos for v in reports])[:, None]
    zeros = np.array([v.zeros for v in reports])[:, None]
    neg = full & ~(pos | zeros)
    m = full & ~((pos & y) | (neg & ~y & full))
    return F[y, m & ~zeros] + F[y, m]


def plain_loss_table(fc) -> np.ndarray:
    """(2^k, 2^k) matrix of plain structured losses, reports r along rows:
    f_y(r xor y), the misprediction set of a +-1 report."""
    fc = as_collection(fc)
    y = np.arange(1 << fc.k)
    return fc.table_matrix()[y, y[:, None] ^ y]


def expected_target(loss, reports, p, tol: float = ARGMIN_TOL):
    """Expected losses of each report under p, plus the full argmin set.

    loss is any callable (report, label_bits) -> real. Ties within tol of the
    minimum are all reported; verification logic needs the whole tied set.
    """
    p = np.asarray(p, dtype=float)
    support = np.nonzero(p)[0]
    values = np.array(
        [sum(p[y] * loss(v, int(y)) for y in support) for v in reports]
    )
    best = values.min()
    argmin = [reports[i] for i in np.nonzero(values <= best + tol)[0]]
    return values, argmin
