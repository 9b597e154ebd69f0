"""Lovasz extension, the hinge surrogate built on it, and its subgradients.

The extension, hinge and subgradient, scalar or batched, are views of one
batched kernel, ``chain_gains``: it sorts each row descending with ties broken
by ascending index (stable), which makes every kink-point output
deterministic, and reads the table gains along the sorted prefixes. The
margins are gathered in that order, and the subgradient scattered back,
through one flat index per entry (order[j, i] + j * k). The hinge and its
subgradient at the same points come from one ``chain_gains`` call
(``hinge_and_subgradient_rows``); its unchecked core, which takes the label
sign rows, is what the trainer calls each epoch after checking and signing its
labels once. Exact kinks (1 - u_i y_i = 0) count as inactive in the
subgradient. Entry points raise ValueError naming the argument, through the
rules of _args.py, for a wrong last axis or a non-finite entry, a negative
extension point, a p that is no probability vector, a label bitmask outside
[0, 2^k) or a label of another k.
"""

from __future__ import annotations

import numpy as np

from ._args import bitmasks, distribution, nonnegative, points
from .setfn import SetFunction, _checked_label, _sign_rows, as_collection


def descending_order(x: np.ndarray) -> np.ndarray:
    """Indices sorting x descending along its last axis, ties by ascending index."""
    return np.argsort(-np.asarray(x), kind="stable")


def chain_gains(fc, W: np.ndarray, y_bits=0) -> tuple[np.ndarray, np.ndarray]:
    """(order, gains) of each row of finite nonnegative (n, k) margins W.

    order[j] sorts W[j] descending, ties by ascending index; gains[j, i] =
    f(S_i) - f(S_{i-1}) for the prefix S_i = order[j, :i+1] under the table of
    label y_bits[j] (or of the one label y_bits), read through fc.at. Callers
    check W and y_bits, and the prefixes are subsets by construction, so the
    read skips at's range checks.
    """
    fc = as_collection(fc)
    order = descending_order(W)
    # rows: empty, S_0, ..., S_{k-1}; one column per row of W, so inner loops run over n
    chain = np.zeros((order.shape[1] + 1, len(order)), dtype=np.intp)
    np.bitwise_or.accumulate(1 << order.T, axis=0, out=chain[1:])
    values = fc._at(y_bits, chain)
    return order, (values[1:] - values[:-1]).T


def lovasz_extension(f: SetFunction, x) -> float:
    """Piecewise-linear extension of f at a nonnegative point.

    F(x) = sum_i x_{pi_i} (f(S_{pi,i}) - f(S_{pi,i-1})) for pi sorting x
    descending; equals the max of that expression over all orderings when f
    is submodular.
    """
    return float(_extension(f, nonnegative(x, "x", 1, f.k)[None], 0)[0])


def extension_batch(f: SetFunction, xs: np.ndarray) -> np.ndarray:
    """lovasz_extension row-wise over an (n, k) nonnegative array."""
    return _extension(f, nonnegative(xs, "xs", 2, f.k), 0)


def clip(u) -> np.ndarray:
    """Clamp each coordinate of a vector or of (n, k) rows to [-1, 1], preserving sign."""
    u = np.asarray(u, dtype=float)
    return np.clip(points(u, "u", 2 if u.ndim == 2 else 1, u.shape[-1] if u.ndim else 1), -1.0, 1.0)


def hinge(fc, u, y) -> float:
    """Surrogate loss F_y((1 - u * y)_+) for label y and prediction u."""
    fc = as_collection(fc)
    return float(_hinge(fc, points(u, "u", 1, fc.k)[None], _checked_label(y, fc.k))[0])


def hinge_rows(fc, us: np.ndarray, y_bits) -> np.ndarray:
    """hinge of each row of us against its own label bitmask y_bits[j]."""
    fc = as_collection(fc)
    return _hinge(fc, points(us, "us", 2, fc.k), bitmasks(y_bits, "y_bits", fc.k))


def hinge_subgradient(fc, u, y) -> np.ndarray:
    """One element of the subdifferential of u -> hinge(fc, u, y).

    With w = (1 - u*y)_+ sorted by the canonical pi, coordinate i gets
    -y_i times the table gain at its sorted position, zeroed where the
    hinge is inactive; exact kinks (1 - u_i y_i = 0) count as inactive.
    """
    fc = as_collection(fc)
    u, y = points(u, "u", 1, fc.k), _checked_label(y, fc.k)
    return _hinge_and_subgradient(fc, u[None], y, _sign_rows(y, fc.k))[1][0]


def subgradient_rows(fc, us: np.ndarray, y_bits) -> np.ndarray:
    """hinge_subgradient of each row of us against its own label bitmask y_bits[j]."""
    return hinge_and_subgradient_rows(fc, us, y_bits)[1]


def hinge_and_subgradient_rows(fc, us: np.ndarray, y_bits) -> tuple[np.ndarray, np.ndarray]:
    """(hinge_rows, subgradient_rows) of us against the label bitmasks y_bits,
    from one chain_gains call; the hinge is bit-identical to hinge_rows'."""
    fc = as_collection(fc)
    us, y_bits = points(us, "us", 2, fc.k), bitmasks(y_bits, "y_bits", fc.k)
    return _hinge_and_subgradient(fc, us, y_bits, _sign_rows(y_bits, fc.k))


def expected_hinge(fc, u, p) -> float:
    """E_{Y~p} hinge(fc, u, Y); only labels with positive mass are visited."""
    fc = as_collection(fc)
    u = points(u, "u", 1, fc.k)
    p = distribution(p, "p", 1 << fc.k)
    ys = np.nonzero(p)[0]
    return float(p[ys] @ _hinge(fc, np.broadcast_to(u, (len(ys), fc.k)), ys))


def _extension(fc, W: np.ndarray, y_bits) -> np.ndarray:
    order, gains = chain_gains(fc, W, y_bits)
    return _sorted_sum(W, _flat(order), gains)


def _flat(order: np.ndarray) -> np.ndarray:
    """Flat indices into an (n, k) array of the entries order names: order[j, i] + j * k."""
    n, k = order.shape
    return order + np.arange(0, n * k, k)[:, None]


def _sorted_sum(W: np.ndarray, flat: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """sum_i W[j, pi_i] gains[j, i] per row: the extension from chain_gains'
    gains and its order as _flat indices, so W is read through the one sort
    chain_gains made."""
    return (W.take(flat) * gains).sum(axis=1)


def _hinge(fc, us: np.ndarray, y_bits) -> np.ndarray:
    return _extension(fc, np.maximum(1.0 - us * _sign_rows(y_bits, fc.k), 0.0), y_bits)


def _hinge_and_subgradient(fc, us: np.ndarray, y_bits, signs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hinge_and_subgradient_rows without its checks, for finite (n, k) scores us,
    in-range label bitmasks y_bits and their sign rows _sign_rows(y_bits, k)."""
    margins = 1.0 - us * signs
    W = np.maximum(margins, 0.0)
    order, gains = chain_gains(fc, W, y_bits)
    flat = _flat(order)
    g = np.empty(margins.size)
    g[flat] = gains  # index assignment, not g.put: put converts and checks each value, and is slower
    return _sorted_sum(W, flat, gains), np.where(margins > 0.0, -signs * g.reshape(margins.shape), 0.0)


# Read by perfbench/tracer.py to count active hinge coordinates.
def _label_vec(y, k: int) -> np.ndarray:
    return _sign_rows(_checked_label(y, k), k)
