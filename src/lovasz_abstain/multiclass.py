"""Multiclass structured abstention through binary reductions.

Two encodings: a compact block code mapping each of C = 2^d classes to d
sign bits (an abstained class becomes an all-zero block), and a one-hot
one-vs-all lift kept for loss evaluation and the misprediction-equality
check only. Costs g live on the k class-level predictions; the block lift
charges g on the set of blocks touched by bit errors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from ._tol import EXACT_TOL
from .links import LinkConfig, _link, _points
from .lovasz import hinge
from .oracle import VerificationReport
from .setfn import PolymatroidCollection, SetFunction, _bit_rows, _check_weights, _mask, _row_masks, _sign_rows
from .setfn import make_jaccard, make_modular
from .targets import AbstainReport, _report_id_table, _report_masks, abstain_loss_table

ABSTAIN = 0  # class slot reserved for the abstain answer
_PAIR_ROWS = 4096  # (report, block) pairs per block-domination comparison; 16 MiB of rows at d*k = 9


def _is_integer(x) -> bool:
    """Whether x is a Python or numpy integer; bools and integral floats are not."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_classes(values, name: str, lo: int, C: int) -> None:
    """A ValueError naming name unless every value is an integer in [lo, C]."""
    for c in values:
        if not _is_integer(c) or not lo <= c <= C:
            raise ValueError(f"{name}: {c!r} is not an integer in [{lo}, {C}]")


def _checked_C(C) -> int:
    if not _is_integer(C) or C < 1:
        raise ValueError(f"C must be an integer >= 1, got {C!r}")
    return int(C)


def _check_alike(y, name: str, v, other: str) -> None:
    """A ValueError naming name unless y has the k and C of v."""
    if (y.k, y.C) != (v.k, v.C):
        raise ValueError(f"{name} has k={y.k} and C={y.C}, but {other} has k={v.k} and C={v.C}")


def _freeze_classes(obj, name: str, lo: int) -> None:
    """Check obj.C and store obj.<name> as a tuple of integers in [lo, C], or
    raise a ValueError naming the field; the frozen dataclass stays hashable."""
    C, values = _checked_C(obj.C), getattr(obj, name)
    if not isinstance(values, tuple):
        try:
            object.__setattr__(obj, name, tuple(values))
        except TypeError:
            raise ValueError(f"{name} must be a sequence of integers, got {values!r}") from None
    _check_classes(getattr(obj, name), name, lo, C)


def _parse_classes(s: str, abstain: str | None = None) -> tuple[int, ...]:
    """The comma-separated decimal integers of s, the token abstain read as 0,
    or a ValueError naming s."""
    toks = s.split(",")
    if not all(t == abstain or re.fullmatch(r"\s*[+-]?[0-9]+\s*", t) for t in toks):
        raise ValueError(f"s must be comma-separated integers{'' if abstain is None else ' or ' + abstain}, got {s!r}")
    return tuple(0 if t == abstain else int(t) for t in toks)


@dataclass(frozen=True)
class ClassLabel:
    """k class-valued predictions over classes 1..C."""

    C: int
    classes: tuple[int, ...]

    def __post_init__(self):
        _freeze_classes(self, "classes", 1)

    @property
    def k(self) -> int:
        return len(self.classes)

    @classmethod
    def from_string(cls, C: int, s: str) -> "ClassLabel":
        return cls(C, _parse_classes(s))

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.classes)


@dataclass(frozen=True)
class MulticlassReport:
    """k entries, each a class in 1..C or the abstain marker 0."""

    C: int
    entries: tuple[int, ...]

    def __post_init__(self):
        _freeze_classes(self, "entries", 0)

    @property
    def k(self) -> int:
        return len(self.entries)

    @classmethod
    def from_string(cls, C: int, s: str) -> "MulticlassReport":
        return cls(C, _parse_classes(s, "_"))

    def __str__(self) -> str:
        return ",".join("_" if c == 0 else str(c) for c in self.entries)

    def mis_abs(self, y: ClassLabel) -> tuple[int, int]:
        """(misprediction, abstention) bitmasks against a class label of the
        same k and C, or a ValueError naming y."""
        _check_alike(y, "y", self, "v")
        pairs = list(zip(self.entries, y.classes))
        return _mask([v != t for v, t in pairs]), _mask([v == ABSTAIN for v, _ in pairs])


class BlockCodec:
    """Sign-bit block code for C = 2^d classes.

    Class c maps to the binary digits of c mod C, most significant bit
    first, with 0 -> -1 and 1 -> +1; so with d = 3, class 5 becomes
    (+1, -1, +1) and class 8 becomes (-1, -1, -1).
    """

    def __init__(self, C: int):
        C = _checked_C(C)
        if C < 2 or C & (C - 1):
            raise ValueError(f"block codec needs a power-of-two class count, got {C}")
        self.C = C
        self.d = C.bit_length() - 1
        self._decode = {self.code_bits(c): c for c in range(1, C + 1)}

    def code_bits(self, c: int) -> int:
        """Bitmask (bit j set <=> +1 at in-block position j) of the class code;
        a ValueError naming c unless it is an integer in [1, C]."""
        _check_classes([c], "c", 1, self.C)
        return _mask(_bit_rows(c % self.C, self.d)[::-1])  # most significant digit at in-block position 0

    def code_signs(self, c: int) -> np.ndarray:
        return _sign_rows(self.code_bits(c), self.d)

    def decode_bits(self, bits: int) -> int:
        """The class whose code is the bitmask bits; a ValueError naming bits
        unless it is an integer d-bit code word."""
        c = self._decode.get(bits) if _is_integer(bits) else None
        if c is None:
            raise ValueError(f"bits must be a code word in [0, {1 << self.d}) of the {self.C}-class block code, "
                             f"got {bits!r}")
        return c


def bep_loss(r, y, n: int) -> float:
    """Abstain-aware multiclass 0-1 loss: 0 if correct, 1/2 on abstain (r None),
    else 1. Raises ValueError naming y, or r, unless it is an integer in [1, n]."""
    _check_classes([y], "y", 1, n)
    if r is None:
        return 0.5
    _check_classes([r], "r", 1, n)
    return 0.0 if r == y else 1.0


def bep_surrogate(u, code) -> float:
    """(max_j code_j * u_j + 1)_+, the max-margin surrogate over a sign codeword."""
    u = np.asarray(u, dtype=float)
    code = np.asarray(code, dtype=float)
    return float(max(np.max(code * u) + 1.0, 0.0))


def encode_bep(y: ClassLabel, codec: BlockCodec) -> int:
    """Concatenated class codes of y as a dk-bit label bitmask."""
    if y.C != codec.C:
        raise ValueError("label and codec class counts differ")
    return sum(codec.code_bits(c) << (i * codec.d) for i, c in enumerate(y.classes))  # disjoint blocks: sum is OR


def decode_bep(bits: int, k: int, codec: BlockCodec) -> ClassLabel:
    d = codec.d
    mask = (1 << d) - 1
    return ClassLabel(codec.C, tuple(codec.decode_bits(bits >> (i * d) & mask) for i in range(k)))


class ClassCosts:
    """Cost family g_y over class labels: one shared table, or per-class
    weights charging w(y_i) for each counted prediction."""

    def __init__(self, k: int, shared: SetFunction | None = None, weights_by_class=None):
        if (shared is None) == (weights_by_class is None):
            raise ValueError("exactly one of shared / weights_by_class must be given")
        self.k = k
        self.shared = shared
        self.weights = None if weights_by_class is None else np.asarray(weights_by_class, float)
        if self.shared is not None and self.shared.k != k:
            raise ValueError("shared table dimension mismatch")
        if self.weights is not None:
            _check_weights(self.weights, "weights_by_class")

    @classmethod
    def from_setfn(cls, g: SetFunction) -> "ClassCosts":
        return cls(g.k, shared=g)

    def for_label(self, y: ClassLabel) -> SetFunction:
        """g_y, or a ValueError naming y unless it has the costs' k."""
        if y.k != self.k:
            raise ValueError(f"y has k={y.k}, but the costs have k={self.k}")
        if self.shared is not None:
            return self.shared
        top = max(y.classes, default=0)
        if top > len(self.weights):
            raise ValueError(f"weights_by_class has {len(self.weights)} weights, none for class {top}")
        return make_modular([self.weights[c - 1] for c in y.classes])


def _as_costs(g) -> ClassCosts:
    if isinstance(g, ClassCosts):
        return g
    if isinstance(g, SetFunction):
        return ClassCosts.from_setfn(g)
    raise TypeError(f"expected ClassCosts or SetFunction, got {type(g)}")


def multiclass_target(g, v: MulticlassReport, y: ClassLabel) -> float:
    """g_y(mis \\ abs) + g_y(mis) with abstentions always counting as misses.
    Raises ValueError naming y unless it has the k and C of v and the k of g."""
    g = _as_costs(g)
    m, a = v.mis_abs(y)
    gy = g.for_label(y)
    return gy.eval(m & ~a) + gy.eval(m)


def _class_labels(C: int, k: int) -> list[ClassLabel]:
    """Every class label over k predictions, in np.ndindex order."""
    return [ClassLabel(C, tuple(c + 1 for c in t)) for t in np.ndindex(*([C] * k))]


def lift_polymatroid(g, codec: BlockCodec, k: int) -> PolymatroidCollection:
    """Bit-level collection charging g on the set of blocks a subset touches.
    Raises ValueError naming g unless its costs are over k predictions."""
    g = _as_costs(g)
    if g.k != k:
        raise ValueError(f"g has k={g.k}, expected k={k}")
    d, C = codec.d, codec.C
    n = d * k
    if n > 12:
        raise ValueError("lifted ground set capped at d*k <= 12")
    block_sets = _row_masks(_bit_rows(np.arange(1 << n), n).reshape(-1, k, d).any(axis=2))  # blocks touched
    if g.weights is None:  # every class label reads the one shared table
        shared = g.for_label(ClassLabel(C, (1,) * k))
        return PolymatroidCollection.from_setfn(SetFunction(n, shared.values[block_sets]))
    ys = _class_labels(C, k)
    values = np.array([g.for_label(y).values for y in ys])[:, block_sets]
    return PolymatroidCollection.from_tables(n, [encode_bep(y, codec) for y in ys], values)


def multiclass_surrogate(g, codec: BlockCodec, u, y: ClassLabel) -> float:
    """Hinge of the lifted collection at the encoded label."""
    u = np.asarray(u, dtype=float)
    k = y.k
    if len(u) != codec.d * k:
        raise ValueError(f"surrogate point must have length {codec.d * k}")
    lifted = lift_polymatroid(g, codec, k)
    return hinge(lifted, u, encode_bep(y, codec))


def trimmed_link(u, cfg: LinkConfig, codec: BlockCodec) -> MulticlassReport:
    """Threshold-abstain link followed by per-block trimming: any abstained
    bit inside a block abstains the whole prediction, else the block decodes.
    The k blocks are read off the link's (pos, zeros) bitmasks by integer shifts."""
    u = _points(u, "u", 1)
    d = codec.d
    if len(u) % d:
        raise ValueError("surrogate point length must be a multiple of the block size")
    k = len(u) // d
    if cfg.epsilon is not None and cfg.epsilon > 1.0 / (2 * d * k) + EXACT_TOL:
        raise ValueError("epsilon exceeds the lifted-dimension bound 1/(2dk)")
    pos, zeros = (int(m[0]) for m in _link(u[None], cfg.resolve_epsilon(len(u)), cfg.tau))
    block = (1 << d) - 1
    return MulticlassReport(codec.C, tuple(ABSTAIN if zeros >> i & block else codec.decode_bits(pos >> i & block)
                                           for i in range(0, len(u), d)))


def verify_block_domination(g, codec: BlockCodec, k: int) -> VerificationReport:
    """Zeroing a whole block never costs more than a partial in-block abstention."""
    g = _as_costs(g)
    d = codec.d
    n = d * k
    if n > 9:
        raise ValueError("block domination check capped at d*k <= 9")
    labels = np.array([encode_bep(y, codec) for y in _class_labels(codec.C, k)])
    table = abstain_loss_table(lift_polymatroid(g, codec, k))[:, labels]
    pos, zeros = _report_masks(n)
    in_block = _bit_rows(zeros, n).reshape(-1, k, d)
    # (report, partial block) pairs in case order: report-major, block-minor
    vids, blocks = np.nonzero(in_block.any(axis=2) & ~in_block.all(axis=2))
    whole = ((1 << d) - 1) << (blocks * d)
    full_ids = _report_id_table(n)[pos[vids] & ~whole, zeros[vids] | whole]
    cases = 0
    for start in range(0, len(vids), _PAIR_ROWS):
        rows = slice(start, start + _PAIR_ROWS)
        worse = table[full_ids[rows]] > table[vids[rows]] + EXACT_TOL
        if worse.any():
            f = int(worse.argmax())
            pair, y = start + f // len(labels), labels[f % len(labels)]
            return VerificationReport(
                "block-domination", False, cases + f + 1,
                {"v": str(AbstainReport(n, int(pos[vids[pair]]), int(zeros[vids[pair]]))),
                 "block": int(blocks[pair]), "y": int(y)},
            )
        cases += worse.size
    return VerificationReport("block-domination", True, cases)


# ---------------------------------------------------------------------------
# One-hot one-vs-all lift (loss evaluation and the equality check only)
# ---------------------------------------------------------------------------


def onehot_encode(y: ClassLabel) -> int:
    """Concatenated one-hot codes of y: bit C(i-1)+c-1 set <=> prediction i is class c."""
    return _mask(np.array(y.classes)[:, None] == np.arange(1, y.C + 1))


def mis_class(yp: ClassLabel, y: ClassLabel, c: int) -> int:
    """One-vs-all misprediction set for class c: positions where exactly one
    of prediction and label equals c. Raises ValueError naming y unless it
    has the k and C of yp."""
    _check_alike(y, "y", yp, "yp")
    return _mask([(a == c) != (b == c) for a, b in zip(yp.classes, y.classes)])


def ova_target(g_by_class, yp: ClassLabel, y: ClassLabel) -> float:
    """(1/C) sum_c g_{c,y}(mis_c(y', y)) with per-class cost tables. Raises
    ValueError naming y unless it has the k and C of yp."""
    _check_alike(y, "y", yp, "yp")
    C = y.C
    return sum(g_by_class(c, y).eval(mis_class(yp, y, c)) for c in range(1, C + 1)) / C


def ova_jaccard_costs(C: int, k: int):
    """Per-class Jaccard cost g_{c,y}(S) = |S| / |S u {i : y_i = c}|."""
    jac = make_jaccard(k)

    def g(c: int, y: ClassLabel) -> SetFunction:
        return jac.for_label(_mask([cls == c for cls in y.classes]))

    return g


def onehot_lift(g_by_class, C: int, k: int) -> PolymatroidCollection:
    """Averaged per-class lift to Ck sign bits, defined at encoded labels only.

    Bit position C(i-1)+c-1 carries the class-c score of prediction i; each
    per-class table reads off its own bit positions and the average over
    classes reproduces the one-vs-all target on encoded mispredictions.
    """
    n = C * k
    if n > 12:
        raise ValueError("one-hot lift capped at C*k <= 12")
    proj = _row_masks(_bit_rows(np.arange(1 << n), n).reshape(-1, k, C).swapaxes(1, 2)).T
    ys = _class_labels(C, k)
    values = np.array([sum(g_by_class(c + 1, y).values[proj[c]] for c in range(C)) for y in ys])
    return PolymatroidCollection.from_tables(n, [onehot_encode(y) for y in ys], values / C)


@dataclass
class BepOvaIncompatibility:
    """Constraint pair showing the compact code cannot carry one-vs-all costs."""

    bit_mis_close: int
    bit_mis_far: int
    forced_close: float
    forced_far: float
    incompatible: bool
    message: str = ""


def bep_ova_incompatibility(g_single: SetFunction) -> BepOvaIncompatibility:
    """Reproduce the 8-class constraint pair that defeats any submodular lift.

    With the block code, predicting class 5 against label 7 is a one-vs-all
    error for class 5 with one mispredicted bit, while class 4 (one more bit
    wrong) is not an error at all. A bit-level f compatible with a nontrivial
    g would need f to drop on a superset, so no submodular f exists.
    """
    if g_single.k != 1:
        raise ValueError("the worked example uses a single class-level prediction")
    codec = BlockCodec(8)
    y, v, v_far = ClassLabel(8, (7,)), ClassLabel(8, (5,)), ClassLabel(8, (4,))
    yb, vb, vfb = (encode_bep(lbl, codec) for lbl in (y, v, v_far))
    close = yb ^ vb
    far = yb ^ vfb
    if not (close == 0b010 and far == 0b110):  # bits 2 and {2,3} in 1-based terms
        raise RuntimeError(f"block code changed: label 7 differs from 5 in {close:#05b} and from 4 in {far:#05b}")
    if not (mis_class(v, y, 5) == 0b1 and mis_class(v_far, y, 5) == 0):
        raise RuntimeError("one-vs-all error pattern for class 5 changed")
    forced_close = g_single.eval(mis_class(v, y, 5))
    forced_far = g_single.eval(mis_class(v_far, y, 5))
    incompatible = forced_far < forced_close - EXACT_TOL
    return BepOvaIncompatibility(
        bit_mis_close=close,
        bit_mis_far=far,
        forced_close=forced_close,
        forced_far=forced_far,
        incompatible=incompatible,
        message=(
            "no submodular f exists: f would need f({2,3}) < f({2})"
            if incompatible
            else "cost is trivial on a single misprediction; no contradiction forced"
        ),
    )
