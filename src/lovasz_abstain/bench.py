"""Desk-scale trainer and abstention-aware evaluation.

A linear scorer u = W x is fit by full-batch subgradient descent on the mean
hinge, which keeps the objective convex and every optimization claim
checkable. Each epoch scores the train and validation rows and reads the train
loss, the validation loss and the train subgradient from one chain-kernel
call over both. Metrics pool counts over all coordinates of all pairs rather than
averaging per sample. Batches of reports stay (pos, zeros) int64 bitmask
arrays: the tau sweep links all its taus in one grid call, pools the masks
with targets' outcome kernel and popcounts, and builds no report objects.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from ._args import alike, bitmasks, integer, nonnegative, points, real
from .links import LinkConfig, _taus, link_rows, trim_rows
from .lovasz import _hinge_and_subgradient, hinge_rows, subgradient_rows
from .setfn import _checked_k, _checked_label, _row_masks, _sign_rows, as_collection, popcounts
from .targets import AbstainReport, _outcomes, _report


def counts(v, y) -> tuple[int, int, int, int]:
    """(TP, TN, FP, FN) bitmasks over the non-abstained coordinates; one-pair
    view of targets._outcomes."""
    v = _report(v)
    return _outcomes(v.k, v.pos, v.zeros, _checked_label(y, v.k, "v"))


@dataclass
class MetricRecord:
    accuracy: float
    recall: float
    precision: float
    iou: float
    rejection_rate: float
    rejection_rate_pos: float
    rejection_rate_neg: float
    undefined_flags: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def _ratio(num: float, den: float, name: str, flags: list[str]) -> float:
    if den == 0:
        flags.append(name)
        return 0.0
    return num / den


def metrics(pairs) -> MetricRecord:
    """Pooled abstention-aware metrics over (report, label) pairs.

    Counts are summed over all coordinates of all pairs; 0/0 ratios are
    reported as 0 and flagged. The rejection rate is the pooled fraction of
    abstained coordinates, and its positive/negative split shares one
    denominator so the two always sum to 1 when anything was abstained.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("pairs must hold at least one (report, label) pair")
    reports = [_report(v) for v, _ in pairs]
    k = reports[0].k
    i = next((i for i, v in enumerate(reports) if v.k != k), 0)
    alike(f"pairs[{i}]", reports[i].k, "pairs[0]", k)
    rows = [(v.pos, v.zeros, _checked_label(y, k, "pairs[0]")) for v, (_, y) in zip(reports, pairs)]
    return _pooled(k, *np.array(rows, dtype=np.int64).T)


def _pooled(k: int, pos: np.ndarray, zeros: np.ndarray, y_bits: np.ndarray) -> MetricRecord:
    """metrics of the reports (pos, zeros) against the labels y_bits, rows of
    int64 bitmask arrays; the counts are exact integers."""
    tp, tn, fp, fn = (int(popcounts(m).sum()) for m in _outcomes(k, pos, zeros, y_bits))
    n_abs, rej_pos = int(popcounts(zeros).sum()), int(popcounts(zeros & y_bits).sum())
    flags: list[str] = []
    return MetricRecord(
        accuracy=_ratio(tp + tn, tp + tn + fp + fn, "accuracy", flags),
        recall=_ratio(tp, tp + fn, "recall", flags),
        precision=_ratio(tp, tp + fp, "precision", flags),
        iou=_ratio(tp, tp + fp + fn, "iou", flags),
        rejection_rate=n_abs / (len(pos) * k),
        rejection_rate_pos=_ratio(rej_pos, n_abs, "rejection_rate_pos", flags),
        rejection_rate_neg=_ratio(n_abs - rej_pos, n_abs, "rejection_rate_neg", flags),
        undefined_flags=flags,
    )


@dataclass
class TrainConfig:
    k: int = 4
    feature_dim: int = 8
    n_samples: int = 500
    epochs: int = 200
    seed: int = 0
    lr_init: float = 0.1
    noise: float | list = 0.0
    epsilon: float | None = None

    def __post_init__(self):
        _checked_k(self.k)
        integer(self.feature_dim, "feature_dim", self.k)
        integer(self.n_samples, "n_samples", 10)
        integer(self.epochs, "epochs", 0)
        integer(self.seed, "seed", 0)
        real(self.lr_init, "lr_init", "(0, inf]")
        if self.epsilon is not None:
            real(self.epsilon, "epsilon", "(0, inf)")
        noise = np.atleast_1d(np.asarray(self.noise, dtype=float))  # one scale, or one per coordinate
        nonnegative(noise, "noise", 1, 1 if noise.size == 1 else self.k)


@dataclass
class Dataset:
    X: np.ndarray  # (n, feature_dim)
    y_bits: np.ndarray  # (n,) label bitmasks


def synth_data(cfg: TrainConfig) -> Dataset:
    """Per-coordinate signed clusters with controllable noise.

    Feature i < k is y_i * (1 + |gauss|) plus gaussian noise of scale
    noise_i, so zero noise guarantees a linear scorer with zero hinge loss;
    a noisy coordinate is genuinely ambiguous. Extra features are standard
    normal distractors.
    """
    rng = np.random.default_rng(cfg.seed)
    n, k = cfg.n_samples, cfg.k
    noise = np.broadcast_to(np.asarray(cfg.noise, dtype=float), (k,))
    Y = rng.choice([-1.0, 1.0], size=(n, k))
    X = rng.standard_normal((n, cfg.feature_dim))
    X[:, :k] = Y * (1.0 + np.abs(rng.standard_normal((n, k)))) + noise * rng.standard_normal((n, k))
    return Dataset(X, _row_masks(Y > 0))


def split_indices(n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic 80/10/10 train/validation/test split."""
    order = np.random.default_rng(seed + 1).permutation(n)
    n_train = int(0.8 * n)
    n_val = int(0.1 * n)
    return order[:n_train], order[n_train : n_train + n_val], order[n_train + n_val :]


@dataclass
class TrainResult:
    weights: np.ndarray
    best_weights: np.ndarray
    best_epoch: int
    train_trace: list[float]
    val_trace: list[float]
    config: TrainConfig

    def to_dict(self) -> dict:
        return {
            "weights": self.weights.tolist(),
            "best_weights": self.best_weights.tolist(),
            "best_epoch": self.best_epoch,
            "train_trace": self.train_trace,
            "val_trace": self.val_trace,
            "config": asdict(self.config),
        }


def mean_hinge(fc, W: np.ndarray, X: np.ndarray, y_bits: np.ndarray) -> float:
    """Mean hinge of the scores X @ W.T against the label bitmasks y_bits."""
    return float(hinge_rows(fc, X @ W.T, y_bits).mean())


def _mean_subgradient(fc, W, X, y_bits) -> np.ndarray:
    """Subgradient of mean_hinge in W: per-row hinge subgradients pulled back through X."""
    return subgradient_rows(fc, X @ W.T, y_bits).T @ X / len(X)


def train(cfg: TrainConfig, fc, data: Dataset | None = None) -> TrainResult:
    """Full-batch subgradient descent on the mean hinge; one step per epoch,
    of size lr_init along the subgradient clipped to [-1, 1] entrywise.

    The labels are checked and turned into sign rows once per run. Each of
    the epochs + 1 passes makes one call to the chain kernel's unchecked core
    on the stacked train and validation scores, for the train loss, the
    validation loss and the train subgradient; the last pass evaluates the
    final weights and takes no step. Keeps the weights with the best validation
    loss. Deterministic given the seed; raises RuntimeError when a step makes
    the scores non-finite (the weights diverged) and rejects a data set whose
    shape does not match cfg.
    """
    fc = as_collection(fc)
    alike("fc", fc.k, "cfg", cfg.k)
    data = data if data is not None else synth_data(cfg)
    _check_data(cfg, data)
    tr, va, _ = split_indices(cfg.n_samples, cfg.seed)
    Xtr, Xva = data.X[tr], data.X[va]
    y_bits = bitmasks(np.concatenate([data.y_bits[tr], data.y_bits[va]]), "y_bits", cfg.k)
    signs = _sign_rows(y_bits, cfg.k)
    n_tr, n_va = len(tr), len(va)

    def scores(W):
        # two matmuls, not one over the stacked rows: BLAS row blocking could
        # change the last bit of a score, and each row's score must not depend
        # on which block it is computed in
        return np.concatenate([Xtr @ W.T, Xva @ W.T])

    def losses(h):
        # sum() / count is mean() bit for bit, without mean()'s Python wrapper
        return float(h[:n_tr].sum() / n_tr), float(h[n_tr:].sum() / n_va)

    W = np.zeros((cfg.k, cfg.feature_dim))
    U = scores(W)
    best_W, best_val, best_epoch = W.copy(), np.inf, 0
    train_trace, val_trace = [], []
    for epoch in range(cfg.epochs + 1):
        h, S = _hinge_and_subgradient(fc, U, y_bits, signs)
        loss, val = losses(h)
        train_trace.append(loss)
        val_trace.append(val)
        if val < best_val:
            best_val, best_W, best_epoch = val, W.copy(), epoch
        if epoch == cfg.epochs:
            break
        G = S[:n_tr].T @ Xtr / n_tr
        np.minimum(np.maximum(G, -1.0, out=G), 1.0, out=G)  # np.clip, without its Python wrapper
        # a step that overflows the scores, or an infinite lr_init times 0, ends
        # in the trainer's own verdict below rather than in a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            W = W - cfg.lr_init * G
            U = scores(W)
        if not np.isfinite(U).all():
            raise RuntimeError(f"training diverged at epoch {epoch + 1}")
    return TrainResult(W, best_W, best_epoch, train_trace, val_trace, cfg)


def _check_data(cfg: TrainConfig, data: Dataset) -> None:
    """ValueError naming data unless it has cfg.n_samples finite rows of
    cfg.feature_dim features and one label bitmask per row."""
    X, y_bits = np.asarray(data.X), np.asarray(data.y_bits)
    if X.shape != (cfg.n_samples, cfg.feature_dim) or y_bits.shape != (cfg.n_samples,):
        raise ValueError(f"data has X of shape {X.shape} and y_bits of shape {y_bits.shape}, expected "
                         f"({cfg.n_samples}, {cfg.feature_dim}) and ({cfg.n_samples},) from the config")
    points(X, "data", 2, cfg.feature_dim)


def _link_masks(W: np.ndarray, X: np.ndarray, tau, epsilon: float | None, trim: bool):
    """(pos, zeros) threshold-abstain bitmasks of the scores W @ x of the rows x
    of X, in one link_rows call: (n,) masks for one tau, (n, T) for a (1, T)
    tau grid. trim fills lone abstentions as trim_single_abstain does."""
    U = (W @ X[..., None])[..., 0]  # one W @ x per row, bit-identical to scoring points one by one
    pos, zeros = link_rows(U, LinkConfig(epsilon=epsilon).resolve_epsilon(W.shape[0]), tau)
    if not trim:
        return pos, zeros
    # trim_rows broadcasts the signs of U's rows along the last axis of the masks
    return tuple(m.T for m in trim_rows(pos.T, zeros.T, U))


def link_reports(W: np.ndarray, X: np.ndarray, tau: float, epsilon: float | None, trim: bool = False):
    """_link_masks at one tau as a list of AbstainReport objects."""
    pos, zeros = _link_masks(W, X, tau, epsilon, trim)
    return [AbstainReport(W.shape[0], p, z) for p, z in zip(pos.tolist(), zeros.tolist())]


def tau_sweep(result: TrainResult, data: Dataset, taus, trim: bool = False) -> list[dict]:
    """Metric rows per tau over the test split, ascending in tau.

    The test points are scored once and linked in one link_rows call over the
    (1, T) grid of taus, so each point is sorted once for every tau. Raises
    ValueError naming data as train does, one naming taus unless it is a
    nonempty vector in [0, 1], and one when the link-level monotonicity fails
    (per-point abstention count cannot drop as tau grows); metric
    monotonicity is reported, never checked.
    """
    cfg = result.config
    _check_data(cfg, data)
    _, _, te = split_indices(cfg.n_samples, cfg.seed)
    k = result.best_weights.shape[0]
    X, y_bits = data.X[te], bitmasks(data.y_bits[te], "y_bits", k)
    taus = sorted(_taus(taus).tolist())
    pos, zeros = _link_masks(result.best_weights, X, np.array([taus], dtype=float), cfg.epsilon, trim)
    if not trim:
        n_abs = popcounts(zeros)
        drops = (n_abs[:, 1:] < n_abs[:, :-1]).any(axis=0)
        if drops.any():
            raise ValueError(f"abstention count decreased as tau increased to {taus[drops.argmax() + 1]}")
    return [{"tau": tau, **_pooled(k, pos[:, t], zeros[:, t], y_bits).to_dict()} for t, tau in enumerate(taus)]
