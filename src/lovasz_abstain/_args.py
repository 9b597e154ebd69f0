"""The package's argument rules and size caps, as _tol.py holds its tolerances.

Eight rules decide what counts as an integer, a real number, a finite point,
an in-range bitmask, a size within its cap, two matching sizes, a nonnegative
vector and a probability vector; every entry point checks its arguments
through them, and each raises a ValueError that names the argument, in one
wording per rule. A check that decides a verdict (a diverged trainer) stays
with its caller; a NaN table value is refused where setfn builds the table.
"""

from numbers import Real

import numpy as np

from ._tol import EXACT_TOL

MAX_K = 62  # subsets, labels and reports are packed into int64 bitmasks
TABLE_MAX_K = 20  # one dense table of 2^k float64 values: 8 MiB at k = 20, the largest measured
DENSE_MAX_K = 12  # dense sweeps: 4^k (label, subset) cells, 16.8M at k = 12, and 3^k reports, 531,441
ORACLE_MAX_K = 4  # the oracles' reach, set by the grid: 490,314 distributions at k = 4, m = 8; 61.5M at k = 5
REPRESENTATIVE_MAX_K = 3  # the full grid against every report, with no k = 4 fallback: 40M cells at k = 4, m = 8
FACE_MAX_K = 4  # the face route enumerates every signed chain face: 3,393 at k = 4
DOMINATION_MAX_BITS = 9  # block domination holds the lift's (3^n, C^k) loss table: 80 MB at d*k = 9


def integer(x, name: str, lo=None, hi=None):
    """x, or a ValueError naming it unless it is a Python or numpy integer, not
    a bool, that is >= lo and <= hi (a None bound is not checked)."""
    if (not (type(x) is int or isinstance(x, (int, np.integer)) and not isinstance(x, bool))
            or (lo is not None and x < lo) or (hi is not None and x > hi)):
        bounds = f" in [{lo}, {hi}]" if hi is not None else "" if lo is None else f" >= {lo}"
        raise ValueError(f"{name} must be an integer{bounds}, got {name}={x!r}")
    return x


def real(x, name: str, interval: str):
    """x, or a ValueError naming it unless it is a real number, not a bool, or a
    numeric array, whose entries lie in interval: "[lo, hi]", with "(" or ")"
    for an open end and inf for an unbounded one. NaN lies in no interval."""
    if isinstance(x, bool) or not (isinstance(x, Real) or isinstance(x, np.ndarray) and x.dtype.kind in "iuf"):
        raise ValueError(f"{name} must be a real number, got {x!r}")
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    inside = (lo < x if interval[0] == "(" else lo <= x) & (x < hi if interval[-1] == ")" else x <= hi)
    if not (inside is True or np.all(inside)):
        raise ValueError(f"{name} must lie in {interval}, got {x if np.ndim(x) == 0 else x[~inside].flat[0]}")
    return x


def points(a, name: str, ndim: int, k=None) -> np.ndarray:
    """a as floats with ndim axes (1: one point, 2: rows of points), the last of
    length k, or of 1..MAX_K when k is None, and finite entries; else a
    ValueError naming it."""
    a = np.asarray(a, dtype=float)
    last = a.shape[-1] if a.ndim == ndim else -1
    if last != k if k is not None else not 1 <= last <= MAX_K:
        want = ("({},)", "(n, {})")[ndim - 1].format("k" if k is None else k)
        raise ValueError(f"{name} has shape {a.shape}, expected {want}"
                         + (f" with 1 <= k <= {MAX_K}" if k is None else ""))
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has a non-finite entry")
    return a


def bitmasks(x, name: str, k: int):
    """x, one bitmask or an integer array of them, each checked to lie in
    [0, 2^k); else a ValueError naming it and the first mask outside. A Python
    or numpy integer is checked and returned as it is, without building an array."""
    if type(x) is int or isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        if 0 <= x < 1 << k:
            return x
        bad = x
    else:
        x = np.asarray(x)
        if x.dtype.kind not in "iu":
            raise ValueError(f"{name} must be integer bitmasks, got dtype {x.dtype}")
        if not x.size or (x.min() >= 0 and x.max() < 1 << k):
            return x
        bad = x[(x < 0) | (x >= 1 << k)].flat[0]
    raise ValueError(f"{name} has a bitmask {bad} outside [0, {1 << k}) for k={k}")


def capped(n: int, name: str, cap: int, what: str) -> int:
    """n, or a ValueError naming it and its value unless n <= cap, one of the
    caps above: name is the size (k, d*k, C*k) of what it bounds."""
    if n > cap:
        raise ValueError(f"{what} capped at {name} <= {cap}, got {name}={n}")
    return n


def alike(name: str, got, other: str, want, dims: str = "k") -> None:
    """A ValueError naming both sides unless name's sizes got equal other's
    sizes want: dims names them, one value each or a tuple for several ("k, C"),
    as in "y has k=3 and C=4, but v has k=1 and C=4"."""
    if got != want:
        dims = dims.split(", ")
        sizes = lambda v: " and ".join(f"{d}={x}" for d, x in zip(dims, v if len(dims) > 1 else (v,)))
        raise ValueError(f"{name} has {sizes(got)}, but {other} has {sizes(want)}")


def nonnegative(a, name: str, ndim: int = 1, k=None) -> np.ndarray:
    """a as finite nonnegative floats, a vector of any length when k is None,
    else points(a, name, ndim, k); else a ValueError naming it."""
    a = np.asarray(a, dtype=float)
    if k is None:
        if a.ndim != 1:
            raise ValueError(f"{name} must be a vector, got shape {a.shape}")
        k = len(a)
    a = points(a, name, ndim, k)
    if (a < 0).any():
        raise ValueError(f"{name} must be nonnegative, got {a[a < 0][0]}")
    return a


def distribution(p, name: str, n=None) -> np.ndarray:
    """p as a probability vector, n (or any number of) nonnegative finite
    floats that sum to 1 within EXACT_TOL; else a ValueError naming it."""
    p = nonnegative(p, name, 1, n)
    if abs(p.sum() - 1.0) > EXACT_TOL:
        raise ValueError(f"{name} must be a probability vector summing to 1, got sum {p.sum()}")
    return p
