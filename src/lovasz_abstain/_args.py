"""The package's argument rules, as _tol.py holds its tolerances.

Four rules decide what counts as an integer, a real number, a finite point and
an in-range bitmask; every entry point checks its arguments through them, and
each raises a ValueError that names the argument. Checks that decide a
verdict rather than reject an argument (a NaN table, a diverged trainer) stay
with their callers.
"""

from numbers import Real

import numpy as np

MAX_K = 62  # subsets, labels and reports are packed into int64 bitmasks


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
    [0, 2^k); else a ValueError naming it. A Python or numpy integer is
    checked and returned as it is, without building an array."""
    if type(x) is int or isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        if 0 <= x < 1 << k:
            return x
    else:
        x = np.asarray(x)
        if x.dtype.kind not in "iu":
            raise ValueError(f"{name} must be integer bitmasks, got dtype {x.dtype}")
        if not x.size or (x.min() >= 0 and x.max() < 1 << k):
            return x
    raise ValueError(f"{name} has a bitmask outside [0, {1 << k}) for k={k}")
