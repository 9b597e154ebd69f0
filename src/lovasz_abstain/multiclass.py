"""Multiclass structured abstention through binary reductions.

Two encodings: a compact block code mapping each of C = 2^d classes to d
sign bits (an abstained class becomes an all-zero block), and a one-hot
one-vs-all lift kept for loss evaluation and the misprediction-equality
check only. Costs g live on the k class-level predictions; the block lift
charges g on the set of blocks touched by bit errors. The code is one table,
the C^k class labels one array, and the surrogate lifts its label's table only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from ._args import DENSE_MAX_K, DOMINATION_MAX_BITS, TABLE_MAX_K, alike, capped, integer, nonnegative, points
from ._tol import EXACT_TOL
from .links import LinkConfig, _link
from .lovasz import hinge
from .oracle import _SWEEP_CELLS, VerificationReport, _first_failure
from .setfn import _MODULAR_ROWS, PolymatroidCollection, SetFunction, _bit_rows, _mask, _row_masks
from .setfn import _sign_rows, make_jaccard, make_modular
from .targets import AbstainReport, _abstain_losses, _report_id_table, _report_masks

ABSTAIN = 0  # class slot reserved for the abstain answer


def _freeze_classes(obj, name: str, lo: int) -> None:
    """Check obj.C and store obj.<name> as a tuple of integers in [lo, C], or
    raise a ValueError naming the field; the frozen dataclass stays hashable."""
    C, values = integer(obj.C, "C", 1), getattr(obj, name)
    if not isinstance(values, tuple):
        try:
            object.__setattr__(obj, name, tuple(values))
        except TypeError:
            raise ValueError(f"{name} must be a sequence of integers, got {values!r}") from None
    for c in getattr(obj, name):
        integer(c, name, lo, C)


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
        alike("y", (y.k, y.C), "v", (self.k, self.C), "k, C")
        pairs = list(zip(self.entries, y.classes))
        return _mask([v != t for v, t in pairs]), _mask([v == ABSTAIN for v, _ in pairs])


class BlockCodec:
    """Sign-bit block code for C = 2^d classes.

    Class c maps to the binary digits of c mod C, most significant bit
    first, with 0 -> -1 and 1 -> +1; so with d = 3, class 5 becomes
    (+1, -1, +1) and class 8 becomes (-1, -1, -1). codes[c - 1] is class c's
    code bitmask and classes[bits] its inverse: int64, d <= TABLE_MAX_K, built in blocks of rows.
    """

    def __init__(self, C: int):
        C = int(integer(C, "C", 1))
        if C < 2 or C & (C - 1):
            raise ValueError(f"block codec needs a power-of-two class count, got {C}")
        self.C = C
        self.d = capped(C.bit_length() - 1, "d", TABLE_MAX_K, f"code table of C={C} classes")
        rev = np.concatenate([_row_masks(_bit_rows(np.arange(s, min(s + _MODULAR_ROWS, C)), self.d)[:, ::-1])
                              for s in range(0, C, _MODULAR_ROWS)])  # x's digits reversed: its own inverse
        self.codes, self.classes = np.roll(rev, -1), np.where(rev == 0, C, rev)  # class c: rev[c mod C]

    def code_bits(self, c: int) -> int:
        """Bitmask (bit j set <=> +1 at in-block position j) of the class code;
        a ValueError naming c unless it is an integer in [1, C]."""
        return int(self.codes[integer(c, "c", 1, self.C) - 1])

    def code_signs(self, c: int) -> np.ndarray:
        return _sign_rows(self.code_bits(c), self.d)

    def decode_bits(self, bits: int) -> int:
        """The class whose code is the bitmask bits; a ValueError naming bits
        unless it is an integer d-bit code word."""
        return int(self.classes[integer(bits, "bits", 0, (1 << self.d) - 1)])


def bep_loss(r, y, n: int) -> float:
    """Abstain-aware multiclass 0-1 loss: 0 if correct, 1/2 on abstain (r None),
    else 1. Raises ValueError naming y, or r, unless it is an integer in [1, n]."""
    integer(y, "y", 1, integer(n, "n", 1))
    if r is None:
        return 0.5
    integer(r, "r", 1, n)
    return 0.0 if r == y else 1.0


def bep_surrogate(u, code) -> float:
    """(max_j code_j * u_j + 1)_+, the max-margin surrogate over a sign codeword."""
    u = np.asarray(u, dtype=float)
    code = np.asarray(code, dtype=float)
    return float(max(np.max(code * u) + 1.0, 0.0))


def encode_bep(y: ClassLabel, codec: BlockCodec) -> int:
    """Concatenated class codes of y as a dk-bit label bitmask."""
    alike("y", y.C, "codec", codec.C, "C")
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
        self.k = integer(k, "k", 1)
        self.shared = shared
        if shared is not None:
            alike("shared", shared.k, "ClassCosts", k)
        self.weights = None if weights_by_class is None else nonnegative(weights_by_class, "weights_by_class")

    @classmethod
    def from_setfn(cls, g: SetFunction) -> "ClassCosts":
        return cls(g.k, shared=g)

    def for_label(self, y: ClassLabel) -> SetFunction:
        """g_y, or a ValueError naming y unless it has the costs' k."""
        alike("y", y.k, "ClassCosts", self.k)
        return self.shared if self.shared is not None else make_modular(self._weights_of(np.array(y.classes)))

    def _weights_of(self, classes: np.ndarray) -> np.ndarray:
        """The weights of (..., k) class rows; a ValueError names the top class of the first row past them."""
        tops, n = classes.max(axis=-1).ravel(), len(self.weights)
        if tops.max() > n:
            raise ValueError(f"weights_by_class has {n} weights, none for class {tops[tops > n][0]}")
        return self.weights[classes - 1]


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


def _class_labels(C: int, k: int) -> np.ndarray:
    """Every class label over k predictions, a (C^k, k) array of classes in np.ndindex order."""
    return np.indices((C,) * k).reshape(k, -1).T + 1


def _label_bits(classes: np.ndarray, codec: BlockCodec) -> np.ndarray:
    """encode_bep of each (N, k) class row: class i's code word at bits i*d to i*d + d - 1."""
    return _row_masks(_bit_rows(codec.codes[classes - 1], codec.d).reshape(len(classes), -1))


def lift_polymatroid(g, codec: BlockCodec, k: int) -> PolymatroidCollection:
    """Bit-level collection charging g on the set of blocks a subset touches.
    Raises ValueError naming g unless its costs are over k predictions."""
    g = _as_costs(g)
    alike("g", g.k, "the lift", integer(k, "k", 1))
    d, C = codec.d, codec.C
    n = capped(d * k, "d*k", DENSE_MAX_K, "lifted ground set")
    block_sets = _row_masks(_bit_rows(np.arange(1 << n), n).reshape(-1, k, d).any(axis=2))  # blocks touched
    if g.weights is None:  # every class label reads the one shared table
        return PolymatroidCollection.from_setfn(SetFunction(n, g.shared.values[block_sets]))
    classes = _class_labels(C, k)
    values = (_bit_rows(np.arange(1 << k), k)[None] @ g._weights_of(classes)[..., None])[..., 0]  # as make_modular
    return PolymatroidCollection.from_tables(n, _label_bits(classes, codec), values[:, block_sets])


def multiclass_surrogate(g, codec: BlockCodec, u, y: ClassLabel) -> float:
    """Hinge at the encoded label of the lift of g_y, the one table it reads."""
    g = _as_costs(g)
    alike("g", g.k, "the lift", y.k)
    return hinge(lift_polymatroid(g.for_label(y), codec, y.k), u, encode_bep(y, codec))


def trimmed_link(u, cfg: LinkConfig, codec: BlockCodec) -> MulticlassReport:
    """Threshold-abstain link followed by per-block trimming: any abstained
    bit inside a block abstains the whole prediction, else the block decodes.
    The k blocks are read off the link's (pos, zeros) bitmasks by integer shifts."""
    u = points(u, "u", 1)
    d = codec.d
    if len(u) % d:
        raise ValueError(f"u has {len(u)} coordinates, not a multiple of the block size d={d}")
    k = len(u) // d
    if cfg.epsilon is not None and cfg.epsilon > 1.0 / (2 * d * k) + EXACT_TOL:
        raise ValueError("epsilon exceeds the lifted-dimension bound 1/(2dk)")
    pos, zeros = (int(m[0]) for m in _link(u[None], cfg.resolve_epsilon(len(u)), cfg.tau))
    block = (1 << d) - 1
    return MulticlassReport(codec.C, tuple(ABSTAIN if zeros >> i & block else codec.decode_bits(pos >> i & block)
                                           for i in range(0, len(u), d)))


def verify_block_domination(g, codec: BlockCodec, k: int) -> VerificationReport:
    """Zeroing a whole block never costs more than a partial in-block abstention.

    The lift's (3^n, C^k) loss table, labels in class-label order, is the one
    array held whole (80 MB at d*k = 9). The loss kernel fills it, and its
    (report, partial block) pairs are compared, _SWEEP_CELLS // C^k rows at a
    time, so each float64 array of a step is 2 MiB."""
    d = codec.d
    n = capped(d * integer(k, "k", 1), "d*k", DOMINATION_MAX_BITS, "block domination check")
    lifted = lift_polymatroid(g, codec, k)
    labels = _label_bits(_class_labels(codec.C, k), codec)
    pos, zeros = _report_masks(n)
    step = _SWEEP_CELLS // len(labels)
    table = np.empty((len(pos), len(labels)))
    for start in range(0, len(pos), step):
        rows = slice(start, start + step)
        table[rows] = _abstain_losses(lifted, pos[rows], zeros[rows], labels)
    in_block = _bit_rows(zeros, n).reshape(-1, k, d)
    # (report, partial block) pairs in case order: report-major, block-minor
    vids, blocks = np.nonzero(in_block.any(axis=2) & ~in_block.all(axis=2))
    whole = ((1 << d) - 1) << (blocks * d)
    full_ids = _report_id_table(n)[pos[vids] & ~whole, zeros[vids] | whole]

    def checked():
        for start in range(0, len(vids), step):
            rows = slice(start, start + step)

            def witness(f):
                pair, y = start + f // len(labels), labels[f % len(labels)]
                return {"v": str(AbstainReport(n, int(pos[vids[pair]]), int(zeros[vids[pair]]))),
                        "block": int(blocks[pair]), "y": int(y)}

            yield table[full_ids[rows]] > table[vids[rows]] + EXACT_TOL, witness

    return _first_failure("block-domination", checked())


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
    alike("y", (y.k, y.C), "yp", (yp.k, yp.C), "k, C")
    return _mask([(a == c) != (b == c) for a, b in zip(yp.classes, y.classes)])


def ova_target(g_by_class, yp: ClassLabel, y: ClassLabel) -> float:
    """(1/C) sum_c g_{c,y}(mis_c(y', y)) with per-class cost tables. Raises
    ValueError naming y unless it has the k and C of yp."""
    alike("y", (y.k, y.C), "yp", (yp.k, yp.C), "k, C")
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
    n = capped(integer(C, "C", 1) * integer(k, "k", 1), "C*k", DENSE_MAX_K, "one-hot lift")
    proj = _row_masks(_bit_rows(np.arange(1 << n), n).reshape(-1, k, C).swapaxes(1, 2)).T
    ys = [ClassLabel(C, tuple(row)) for row in _class_labels(C, k).tolist()]
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
    alike("g_single", g_single.k, "the worked example", 1)  # one class-level prediction
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
