"""Set functions on 2^[k], and label-indexed collections of them.

Subsets of [k] = {1..k} are bitmasks: bit i-1 set <=> element i in the subset.
Labels y in {-1,1}^k use the same indexing: bit i-1 set <=> y_i = +1, so the
all-minus label is bitmask 0 and subset/label indexing coincide everywhere.
A report v in {-1,0,1}^k is the disjoint bitmasks pos (v_i = +1) and zeros
(v_i = 0); its string has one +, - or 0 per coordinate. Only the private
helpers below read and write this format, one value at a time and batched:
_checked_k, _mask and _row_masks (flags to masks), _bit_rows and _sign_rows
(masks to rows), _pack, _parse and _format.

A set function is a dense table of its 2^k values. A collection {f_y} is read
through PolymatroidCollection.at(y, S), the one place f_y(S) is read. Most
collections store one (R, 2^k) value matrix plus a label -> row index; the
Jaccard family (make_jaccard) is read from its rule instead, so it runs to
k = MAX_K, and its dense views (values, rows, labels(), for_label,
table_matrix) are built from that rule on first read and capped at k <= 12.

A constructor whose output the JSON loader rebuilds bit for bit from a short
object records that object as ``spec`` (modular, zero-one, Jaccard; the
loader's concave-of-cardinality); serialize writes it in place of the tables.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from ._args import DENSE_MAX_K, MAX_K, TABLE_MAX_K, alike, bitmasks, capped, integer, nonnegative, points, real
from ._tol import ATOL

_CHARS = "-+0"  # the character of a coordinate, indexed by its pos bit | zeros bit << 1
_WEIGHTS = 1 << np.arange(MAX_K, dtype=np.int64)  # bit i's weight; rows of k bits read the first k
_WEIGHTS.setflags(write=False)


def popcounts(masks: np.ndarray) -> np.ndarray:
    """Population count of each entry of an integer array."""
    return np.bitwise_count(masks.astype(np.uint64)).astype(np.int64)


def _checked_k(k: int) -> int:
    """k, or a ValueError naming it unless it is an integer in [1, MAX_K] (the bitmasks are int64)."""
    return integer(k, "k", 1, MAX_K)


def _table_k(k: int) -> int:
    """_checked_k(k), capped at TABLE_MAX_K for a dense table of 2^k values."""
    return capped(_checked_k(k), "k", TABLE_MAX_K, "dense 2^k tables")


def _mask(flags) -> int:
    """The bitmask of a boolean vector: bit i set <=> flags[i]."""
    return int.from_bytes(np.packbits(np.asarray(flags, dtype=bool), bitorder="little").tobytes(), "little")


def _row_masks(flags: np.ndarray) -> np.ndarray:
    """int64 masks of bool rows flags (..., k): bit i set <=> flags[..., i]. The inverse of _bit_rows."""
    return flags @ _WEIGHTS[: flags.shape[-1]]


def _bit_rows(masks, k: int) -> np.ndarray:
    """Bool rows of shape masks.shape + (k,): entry i is bit i of each mask."""
    return np.asarray(masks)[..., None] & _WEIGHTS[:k] != 0


def _sign_rows(pos, k: int, zeros=None) -> np.ndarray:
    """Float rows of shape pos.shape + (k,): +1 where pos has the bit, else -1,
    and 0 where zeros has it, for the labels pos or the reports (pos, zeros)."""
    signs = np.where(_bit_rows(pos, k), 1.0, -1.0)
    return signs if zeros is None else np.where(_bit_rows(zeros, k), 0.0, signs)


def _pack(v, what: str, zero: bool = False) -> tuple[int, int, int]:
    """(k, pos, zeros) of a vector of +1 and -1 entries, and 0 entries if zero,
    or a ValueError naming what and the first other entry."""
    v = np.asarray(v)
    if v.ndim != 1:
        raise ValueError(f"{what} must be a vector, got shape {v.shape}")
    plus, nil = v == 1, v == 0
    bad = ~(plus | (v == -1) | (nil & zero))
    if bad.any():
        raise ValueError(f"{what} entries must be {'in {-1,0,1}' if zero else '+-1'}, got {v[bad.argmax()]}")
    return len(v), _mask(plus), _mask(nil)


def _parse(s: str, what: str, zero: bool = False) -> tuple[int, int, int]:
    """(k, pos, zeros) of a string over + and -, and 0 if zero, or a ValueError
    naming what and the first other character."""
    codes = np.array([(_CHARS if zero else _CHARS[:2]).find(c) for c in s], dtype=int)  # -1: any other
    if (codes < 0).any():
        bad = s[codes.argmin()]
        raise ValueError(f"{what} {s!r} has the character {bad!r}; expected {'+, - or 0' if zero else '+ or -'}")
    return len(s), _mask(codes == 1), _mask(codes == 2)


def _format(k: int, pos: int, zeros: int = 0) -> str:
    """The string of the label pos or the report (pos, zeros): +, - or 0 per coordinate."""
    return "".join(_CHARS[(pos >> i & 1) | (zeros >> i & 1) << 1] for i in range(k))


@dataclass(frozen=True)
class Label:
    """A joint binary label y in {-1,1}^k, stored as the bitmask of +1 coordinates."""

    k: int
    bits: int

    def __post_init__(self):
        bitmasks(self.bits, "bits", _checked_k(self.k))

    @classmethod
    def from_signs(cls, signs) -> "Label":
        return cls(*_pack(signs, "label")[:2])

    @classmethod
    def from_string(cls, s: str) -> "Label":
        return cls(*_parse(s, "label")[:2])

    def signs(self) -> np.ndarray:
        return _sign_rows(self.bits, self.k)

    def __str__(self) -> str:
        return _format(self.k, self.bits)


def _checked_label(y, k: int, other: str = "fc") -> int:
    """Bitmask of one label y (a Label, a bitmask or a +-1 vector), checked against the k of other."""
    if not isinstance(y, (Label, list, tuple, np.ndarray)):
        return int(bitmasks(y, "y", k))
    if not isinstance(y, Label):
        y = Label.from_signs(y)
    alike("y", y.k, other, k)
    return y.bits


def _finite(values: np.ndarray, rows=()) -> None:
    """A ValueError naming the first non-finite value and its subset, and in a
    collection's (R, 2^k) matrix the first label y whose row rows[y] holds it."""
    bad = ~np.isfinite(values)
    if bad.any():
        r, s = divmod(int(bad.argmax()), values.shape[-1])
        readers = np.flatnonzero(np.asarray(rows) == r)  # none for a table, or for a row no label reads
        label = f"label {readers[0]}: " if len(readers) else ""
        raise ValueError(f"{label}non-finite value {np.atleast_2d(values)[r, s]} at S={s:#x}")


@dataclass(frozen=True)
class SetFunction:
    """A nonnegative normalized set function on 2^[k] as a dense table of finite
    values, with the JSON object that rebuilds it bit for bit, if one is known."""

    k: int
    values: np.ndarray = field(repr=False)
    spec: dict | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        _checked_k(self.k)
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        vals.setflags(write=False)
        if vals.shape != (1 << self.k,):
            raise ValueError(f"need 2^{self.k} values, got shape {vals.shape}")
        _finite(vals)

    @classmethod
    def from_values(cls, k: int, values) -> "SetFunction":
        f = cls(k, np.asarray(values, dtype=float))
        if abs(f.values[0]) > ATOL:
            raise ValueError(f"values must be normalized within ATOL={ATOL}, got f(empty) = {f.values[0]}")
        if np.any(f.values < -ATOL):
            raise ValueError(f"values must be nonnegative within ATOL={ATOL}, got {f.values.min()}")
        return f

    def eval(self, subset: int) -> float:
        return float(self.values[bitmasks(subset, "subset", self.k)])

    def full(self) -> float:
        return float(self.values[-1])


# Subsets per block of make_modular's product: the block's (rows, k) bit matrix
# is cast to float64, 640 KiB at k = 20, where one product over all 2^20 rows
# casts 160 MiB. Each row's sum is the same whatever the block.
_MODULAR_ROWS = 4096


def make_modular(w) -> SetFunction:
    """f(S) = sum of w_i over i in S, for nonnegative weights w whose sum is finite."""
    w = nonnegative(w, "weights")
    k = capped(len(w), "len(weights)", TABLE_MAX_K, "dense 2^k tables")
    real(sum(w.tolist()), "sum(weights)", "[0, inf)")  # f([k]), the largest value; a Python sum does not warn
    values = np.empty(1 << k)
    for start in range(0, 1 << k, _MODULAR_ROWS):
        values[start:start + _MODULAR_ROWS] = _bit_rows(np.arange(start, min(start + _MODULAR_ROWS, 1 << k)), k) @ w
    return SetFunction(k, values, {"k": k, "kind": "modular", "weights": tuple(w.tolist())})


def make_zero_one(k: int) -> SetFunction:
    """Indicator of a nonempty subset: 0 on the empty set, 1 elsewhere."""
    values = np.ones(1 << _table_k(k))
    values[0] = 0.0
    return SetFunction(k, values, {"k": k, "kind": "zero_one"})


def make_concave_card(k: int, g) -> SetFunction:
    """f(S) = g(|S|) for a nondecreasing concave g with g(0)=0."""
    gs = points([g(c) for c in range(_table_k(k) + 1)], "g", 1, k + 1)
    if abs(gs[0]) > ATOL:
        raise ValueError("g(0) must be 0")
    diffs = np.diff(gs)
    if np.any(diffs < -ATOL):
        raise ValueError("g must be nondecreasing on {0..k}")
    if np.any(np.diff(diffs) > ATOL):
        raise ValueError("g must be concave on {0..k}")
    return SetFunction(k, gs[popcounts(np.arange(1 << k))])


def make_sqrt_card(k: int) -> SetFunction:
    """f(S) = sqrt(|S|), the running strictly-submodular strictly-increasing example."""
    return make_concave_card(k, math.sqrt)


@lru_cache(maxsize=None)
def _shared_rows(k: int) -> np.ndarray:
    """Read-only zero-stride label -> row index of a symmetric collection: every label reads row 0."""
    return np.broadcast_to(np.intp(0), (1 << k,))


@dataclass(frozen=True, eq=False)
class PolymatroidCollection:
    """Family {f_y}: label y reads row rows[y] of the read-only (R, 2^k) matrix
    values, or has no table where rows[y] = -1 (e.g. only encoded labels). A
    symmetric collection is one row; its index is a zero-stride broadcast.
    spec is the JSON object that rebuilds the collection bit for bit, if known."""

    k: int
    values: np.ndarray = field(repr=False)
    rows: np.ndarray = field(repr=False)
    spec: dict | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        _checked_k(self.k)
        values = np.ascontiguousarray(self.values, dtype=float)
        rows = np.asarray(self.rows, dtype=np.intp)
        if values.ndim != 2 or values.shape[1] != 1 << self.k:
            raise ValueError(f"values has shape {values.shape}, expected (R, 2^k) with k={self.k}")
        shared = rows is _shared_rows(self.k)  # total and in range by construction
        if not shared:  # a shared row is an already checked SetFunction's table
            if rows.shape != (1 << self.k,) or rows.min() < -1 or rows.max() >= len(values):
                raise ValueError(f"rows must map each of the {1 << self.k} labels to -1 or a row of values")
            _finite(values, rows)
        values.setflags(write=False)
        rows.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_partial", not shared and bool(rows.min() < 0))

    @classmethod
    def from_setfn(cls, f: SetFunction) -> "PolymatroidCollection":
        return cls(f.k, f.values[None], _shared_rows(f.k), f.spec)

    @classmethod
    def from_tables(cls, k: int, labels, values) -> "PolymatroidCollection":
        """Collection where label labels[i] reads the table values[i]; other labels have no table.

        Rows are stored in ascending label order, the order a table file lists
        them in, so a collection and its reloaded file have equal matrices."""
        labels = bitmasks(np.asarray(labels, dtype=np.intp).reshape(-1), "label", k)
        values = np.reshape(values, (len(labels), 1 << k))
        if np.any(labels[1:] < labels[:-1]):
            order = np.argsort(labels, kind="stable")
            labels, values = labels[order], values[order]
        rows = np.full(1 << k, -1, dtype=np.intp)
        rows[labels] = np.arange(len(labels))
        return cls(k, values, rows)

    @classmethod
    def from_per_label(cls, k: int, per_label: dict[int, SetFunction]) -> "PolymatroidCollection":
        for y, f in per_label.items():
            alike(f"per_label[{y}]", f.k, "the collection", k)
        labels = sorted(per_label)
        return cls.from_tables(k, labels, np.array([per_label[y].values for y in labels]))

    def at(self, y, S) -> np.ndarray:
        """f_y(S) over broadcast integer arrays of label bitmasks y and subsets S,
        each checked to lie in [0, 2^k)."""
        return self._at(bitmasks(y, "y", self.k), bitmasks(S, "S", self.k))

    def _at(self, y, S) -> np.ndarray:
        """at without the range checks, for callers whose bitmasks are in range by construction."""
        if self.symmetric:  # one shared table: no label index to gather
            S = np.asarray(S)
            shape = np.broadcast(y, S).shape
            return self.values[0][S if shape == S.shape else np.broadcast_to(S, shape)]
        row = self.rows[y]
        if self._partial and (row < 0).any():
            missing = np.asarray(y)[row < 0].min()
            raise KeyError(f"collection has no table for label bitmask {missing}")
        return self.values.reshape(-1)[(row << self.k) | S]

    @property
    def symmetric(self) -> bool:
        return len(self.values) == 1 and not self._partial

    def _subsets(self) -> np.ndarray:
        """Every subset bitmask in order: the index of the dense views."""
        return np.arange(1 << self.k)

    def for_label(self, label_bits: int) -> SetFunction:
        return SetFunction(self.k, self.at(_checked_label(label_bits, self.k, "the collection"), self._subsets()))

    def labels(self) -> list[int]:
        return np.flatnonzero(self.rows >= 0).tolist()

    def table_matrix(self) -> np.ndarray:
        """(2^k, 2^k) array, row y = value table of f_y. Requires a total collection."""
        s = self._subsets()
        return self.at(s[:, None], s)


def as_collection(fc) -> PolymatroidCollection:
    if isinstance(fc, PolymatroidCollection):
        return fc
    if isinstance(fc, SetFunction):
        return PolymatroidCollection.from_setfn(fc)
    raise TypeError(f"expected SetFunction or PolymatroidCollection, got {type(fc)}")


class _JaccardCollection(PolymatroidCollection):
    """The Jaccard family read from its rule, J_y(S) = |S| / max(|S u y|, 1), at
    any k <= MAX_K: every label reads the rule and no table is stored. values,
    rows and the views on them are built from the rule on first read, for k <= 12."""

    symmetric = False
    _partial = False

    def __init__(self, k: int):
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "spec", {"kind": "jaccard", "k": k})

    def _at(self, y, S) -> np.ndarray:
        return np.bitwise_count(S) / np.maximum(np.bitwise_count(S | y), 1)

    def _subsets(self) -> np.ndarray:
        capped(self.k, "k", DENSE_MAX_K, "dense views of the Jaccard family")
        return np.arange(1 << self.k, dtype=np.uint16)  # the narrowest masks keep the 4^k temporaries small

    @cached_property
    def values(self) -> np.ndarray:
        s = self._subsets()
        values = self._at(s[:, None], s)  # row y, column S
        values.setflags(write=False)
        return values

    @cached_property
    def rows(self) -> np.ndarray:
        rows = self._subsets().astype(np.intp)
        rows.setflags(write=False)
        return rows


def make_jaccard(k: int) -> PolymatroidCollection:
    """Label-indexed Jaccard family J_y(S) = |S| / |S u {i : y_i = +1}|, with 0/0 = 0,
    read from that rule for 1 <= k <= MAX_K."""
    return _JaccardCollection(_checked_k(k))


@dataclass
class ValidationReport:
    """Findings from checking the polymatroid axioms on a value table."""

    k: int
    normalized: bool
    nonnegative: bool
    increasing: bool
    submodular: bool
    modular: bool
    strictly_submodular: bool | None = None
    strictly_increasing: bool | None = None
    zero_singletons: list[int] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return self.normalized and self.nonnegative and self.increasing and self.submodular

    def to_dict(self) -> dict:
        return {"k": self.k, "valid": self.valid, **asdict(self)}


def validate_polymatroid(f: SetFunction, strict: bool = False) -> ValidationReport:
    """Check normalization, nonnegativity, monotonicity and submodularity.

    Submodularity is checked through the pairwise-exchange form
    f(S+i) + f(S+j) >= f(S+i+j) + f(S), equivalent to the all-pairs
    inequality; strictness over exchanges is equivalent to strictness on
    incomparable pairs (telescoping). Modularity = every exchange tight.
    Every value is finite: SetFunction refuses a NaN or infinite one.
    """
    k, vals = f.k, f.values
    masks = np.arange(1 << k)
    report = ValidationReport(
        k=k,
        normalized=bool(abs(vals[0]) <= ATOL),
        nonnegative=bool(np.all(vals >= -ATOL)),
        increasing=True,
        submodular=True,
        modular=True,
    )
    if not report.normalized:
        report.violations.append(f"f(empty) = {vals[0]} != 0")
    if not report.nonnegative:
        report.violations.append("negative value present")

    inc_margin = math.inf
    for i in range(k):
        absent = masks[(masks >> i) & 1 == 0]
        gains = vals[absent | (1 << i)] - vals[absent]
        worst = gains.min()
        inc_margin = min(inc_margin, worst)
        if worst < -ATOL:
            report.increasing = False
            s = int(absent[int(np.argmin(gains))])
            report.violations.append(f"f decreases adding element {i + 1} to {s:#x}")

    sub_margin = math.inf
    for i in range(k):
        for j in range(i + 1, k):
            both = (1 << i) | (1 << j)
            base = masks[masks & both == 0]
            slack = vals[base | (1 << i)] + vals[base | (1 << j)] - vals[base | both] - vals[base]
            worst = slack.min()
            sub_margin = min(sub_margin, worst)
            if worst < -ATOL:
                report.submodular = False
                s = int(base[int(np.argmin(slack))])
                report.violations.append(f"submodularity fails at S={s:#x}, i={i + 1}, j={j + 1}")
            if slack.max() > ATOL:
                report.modular = False
    if k == 1:
        report.modular = True  # no exchange pairs exist; single-element tables are modular

    report.zero_singletons = [i + 1 for i in range(k) if vals[1 << i] <= ATOL]
    if strict:
        report.strictly_increasing = bool(inc_margin > ATOL)
        report.strictly_submodular = bool(k >= 2 and sub_margin > ATOL)
    return report


_CONDITION1_CELLS = 1 << 20  # (label, subset) cells per check_condition1 block; 8 MiB of float64


@dataclass
class Condition1Report:
    """Result of the complementary-error lower-bound check on a collection."""

    passed: bool
    witness: tuple[int, int] | None = None  # (label bits, subset) of first violation
    reason: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def check_condition1(fc) -> Condition1Report:
    """Check f_y(S) + f_{-y}(~S) >= f_y([k]) for all y, S, plus f_y([k]) > f_y(0).

    The inequality must be strict unless S is empty or full, or y is the
    all-minus label, the all-plus label, or the label that is -1 exactly on S.
    Labels go in blocks of _CONDITION1_CELLS / 2^k; the witness is the first
    failing (y, S) in label-major order, with the f_y([k]) > f_y(0) check of
    a label ahead of its subsets. It reads all 4^k (label, subset) cells, so
    it is capped at k <= 12, as the dense views are.
    """
    fc = as_collection(fc)
    k = fc.k
    capped(k, "k", DENSE_MAX_K, "complementary-error check")
    full = (1 << k) - 1
    s = np.arange(full + 1)
    rows = max(1, _CONDITION1_CELLS >> k)
    for start in range(0, full + 1, rows):
        y = s[start:start + rows, None]
        top = fc.at(y, full)
        lhs = fc.at(y, s) + fc.at(full ^ y, full ^ s)  # f_{-y} is the table of label full ^ y
        flat = ~(top[:, 0] > fc.at(y[:, 0], 0) + ATOL)
        below = lhs < top - ATOL
        weak = (lhs <= top + ATOL) & ~((s == 0) | (s == full) | (y == 0) | (y == full) | (y == full ^ s))
        failed = flat | (below | weak).any(axis=1)
        if failed.any():
            i = int(failed.argmax())
            if flat[i]:
                return Condition1Report(False, (int(y[i, 0]), full), "f_y([k]) > f_y(empty) fails")
            j = int((below[i] | weak[i]).argmax())
            reason = "complementary sum below f_y([k])" if below[i, j] else "strictness fails"
            return Condition1Report(False, (int(y[i, 0]), j), reason)
    return Condition1Report(True)


def mean_value(f: SetFunction) -> float:
    """Average of f over all 2^k subsets."""
    return float(np.mean(f.values))


def random_polymatroid(k: int, rng: np.random.Generator, strict: bool = False) -> SetFunction:
    """Concave-of-cardinality draw plus a random modular perturbation.

    Both parts are polymatroids, so the sum is; the construction is verified
    and redrawn on failure. strict=True forces strictly decreasing concave
    increments, giving a strictly submodular, strictly increasing table.
    """
    for _ in range(64):
        incs = np.sort(rng.uniform(0.05 if strict else 0.0, 1.0, size=_table_k(k)))[::-1]
        if not strict and rng.random() < 0.25:
            incs[:] = incs.mean()  # flat increments: lands on the modular boundary
        gs = np.concatenate([[0.0], np.cumsum(incs)])
        w = rng.uniform(0.0, 1.0, size=k)
        if strict:
            w += 0.01
        else:
            w *= rng.integers(0, 2, size=k)  # allow exact zero weights
        table = gs[popcounts(np.arange(1 << k))] + make_modular(w).values
        f = SetFunction(k, table)
        rep = validate_polymatroid(f, strict=strict)
        if rep.valid and (not strict or (rep.strictly_submodular and rep.strictly_increasing)):
            return f
    raise RuntimeError("random polymatroid generator failed to produce a valid table")


def random_collection(
    k: int, rng: np.random.Generator, symmetric: bool = False
) -> PolymatroidCollection:
    """A random polymatroid collection; asymmetric draws one table per label, 4^k values in all."""
    if symmetric:
        return PolymatroidCollection.from_setfn(random_polymatroid(k, rng))
    k = capped(_checked_k(k), "k", DENSE_MAX_K, "per-label random collection")
    tables = [random_polymatroid(k, rng).values for _ in range(1 << k)]
    return PolymatroidCollection.from_tables(k, range(1 << k), np.array(tables))
