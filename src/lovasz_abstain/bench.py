"""Desk-scale trainer and abstention-aware evaluation.

A linear scorer u = W x is fit by full-batch subgradient descent on the mean
hinge, which keeps the objective convex and every optimization claim
checkable. Metrics pool counts over all coordinates of all pairs rather than
averaging per sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .links import LinkConfig, link_rows, trim_rows
from .lovasz import hinge_rows, subgradient_rows
from .setfn import _checked_label, as_collection
from .targets import AbstainReport


def counts(v, y) -> tuple[int, int, int, int]:
    """(TP, TN, FP, FN) bitmasks over the non-abstained coordinates."""
    v = v if isinstance(v, AbstainReport) else AbstainReport.from_vector(v)
    y_bits = _checked_label(y, v.k)
    full = (1 << v.k) - 1
    neg = full & ~(v.pos | v.zeros)
    tp = v.pos & y_bits
    tn = neg & ~y_bits & full
    fp = v.pos & ~y_bits & full
    fn = neg & y_bits
    return tp, tn, fp, fn


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
        return {
            "accuracy": self.accuracy,
            "recall": self.recall,
            "precision": self.precision,
            "iou": self.iou,
            "rejection_rate": self.rejection_rate,
            "rejection_rate_pos": self.rejection_rate_pos,
            "rejection_rate_neg": self.rejection_rate_neg,
            "undefined_flags": self.undefined_flags,
        }


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
        raise ValueError("metrics need at least one (report, label) pair")
    k = None
    tp = tn = fp = fn = 0
    n_abs = rej_pos = rej_neg = 0
    for v, y in pairs:
        v = v if isinstance(v, AbstainReport) else AbstainReport.from_vector(v)
        y_bits = _checked_label(y, v.k)
        if k is None:
            k = v.k
        elif v.k != k:
            raise ValueError("all pairs must share the same k")
        a, b, c, d = counts(v, y_bits)
        tp += a.bit_count()
        tn += b.bit_count()
        fp += c.bit_count()
        fn += d.bit_count()
        n_abs += v.zeros.bit_count()
        rej_pos += (v.zeros & y_bits).bit_count()
        rej_neg += (v.zeros & ~y_bits & ((1 << k) - 1)).bit_count()
    flags: list[str] = []
    return MetricRecord(
        accuracy=_ratio(tp + tn, tp + tn + fp + fn, "accuracy", flags),
        recall=_ratio(tp, tp + fn, "recall", flags),
        precision=_ratio(tp, tp + fp, "precision", flags),
        iou=_ratio(tp, tp + fp + fn, "iou", flags),
        rejection_rate=n_abs / (len(pairs) * k),
        rejection_rate_pos=_ratio(rej_pos, n_abs, "rejection_rate_pos", flags),
        rejection_rate_neg=_ratio(rej_neg, n_abs, "rejection_rate_neg", flags),
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
    lr_decay: float = 0.96
    lr_decay_every: int = 10000
    grad_clip: float = 1.0
    noise: float | list = 0.0
    margin: float = 1.0
    label_corr: float = 0.0
    epsilon: float | None = None
    taus: tuple = (0.0, 0.25, 0.5, 0.75, 1.0)

    def __post_init__(self):
        if self.k < 1 or self.feature_dim < self.k or self.n_samples < 10:
            raise ValueError("need k >= 1, feature_dim >= k, n_samples >= 10")
        if self.lr_init <= 0 or not (0 < self.lr_decay <= 1) or self.lr_decay_every < 1:
            raise ValueError("step-size schedule parameters must be positive")

    def to_dict(self) -> dict:
        return {
            "k": self.k, "feature_dim": self.feature_dim, "n_samples": self.n_samples,
            "epochs": self.epochs, "seed": self.seed, "lr_init": self.lr_init,
            "lr_decay": self.lr_decay, "lr_decay_every": self.lr_decay_every,
            "grad_clip": self.grad_clip, "noise": self.noise, "margin": self.margin,
            "label_corr": self.label_corr, "epsilon": self.epsilon, "taus": list(self.taus),
        }


@dataclass
class Dataset:
    X: np.ndarray  # (n, feature_dim)
    Y: np.ndarray  # (n, k) signs
    y_bits: np.ndarray  # (n,) label bitmasks


def synth_data(cfg: TrainConfig) -> Dataset:
    """Per-coordinate signed clusters with controllable noise.

    Feature i < k is y_i * (margin + |gauss|) plus gaussian noise of scale
    noise_i, so zero noise guarantees a linear scorer with zero hinge loss;
    a noisy coordinate is genuinely ambiguous. Extra features are standard
    normal distractors. label_corr > 0 correlates the coordinate signs.
    """
    rng = np.random.default_rng(cfg.seed)
    n, k = cfg.n_samples, cfg.k
    noise = np.broadcast_to(np.asarray(cfg.noise, dtype=float), (k,))
    if cfg.label_corr > 0:
        shared = rng.standard_normal((n, 1))
        own = rng.standard_normal((n, k))
        latent = np.sqrt(cfg.label_corr) * shared + np.sqrt(1 - cfg.label_corr) * own
        Y = np.where(latent >= 0, 1.0, -1.0)
    else:
        Y = rng.choice([-1.0, 1.0], size=(n, k))
    X = rng.standard_normal((n, cfg.feature_dim))
    X[:, :k] = Y * (cfg.margin + np.abs(rng.standard_normal((n, k)))) + noise * rng.standard_normal((n, k))
    y_bits = ((Y > 0).astype(np.int64) * (1 << np.arange(k))).sum(axis=1)
    return Dataset(X, Y, y_bits)


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
            "config": self.config.to_dict(),
        }


def mean_hinge(fc, W: np.ndarray, X: np.ndarray, y_bits: np.ndarray) -> float:
    """Mean hinge of the scores X @ W.T against the label bitmasks y_bits."""
    return float(hinge_rows(fc, X @ W.T, y_bits).mean())


def _mean_subgradient(fc, W, X, y_bits) -> np.ndarray:
    """Subgradient of mean_hinge in W: per-row hinge subgradients pulled back through X."""
    return subgradient_rows(fc, X @ W.T, y_bits).T @ X / len(X)


def train(cfg: TrainConfig, fc, data: Dataset | None = None) -> TrainResult:
    """Full-batch subgradient descent on the mean hinge; one step per epoch.

    Keeps the weights with the best validation loss. Deterministic given the
    seed; raises when the weights diverge (turn non-finite).
    """
    fc = as_collection(fc)
    if fc.k != cfg.k:
        raise ValueError("collection dimension does not match the config")
    data = data if data is not None else synth_data(cfg)
    tr, va, _ = split_indices(cfg.n_samples, cfg.seed)
    W = np.zeros((cfg.k, cfg.feature_dim))
    best_W, best_val, best_epoch = W.copy(), np.inf, 0
    train_trace, val_trace = [], []
    for epoch in range(cfg.epochs):
        if not np.isfinite(W).all():
            raise RuntimeError(f"training diverged at epoch {epoch}")
        loss = mean_hinge(fc, W, data.X[tr], data.y_bits[tr])
        val = mean_hinge(fc, W, data.X[va], data.y_bits[va])
        train_trace.append(loss)
        val_trace.append(val)
        if val < best_val:
            best_val, best_W, best_epoch = val, W.copy(), epoch
        lr = cfg.lr_init * cfg.lr_decay ** (epoch // cfg.lr_decay_every)
        G = _mean_subgradient(fc, W, data.X[tr], data.y_bits[tr])
        np.clip(G, -cfg.grad_clip, cfg.grad_clip, out=G)
        W = W - lr * G
    final = mean_hinge(fc, W, data.X[tr], data.y_bits[tr])
    final_val = mean_hinge(fc, W, data.X[va], data.y_bits[va])
    train_trace.append(final)
    val_trace.append(final_val)
    if final_val < best_val:
        best_W, best_epoch = W.copy(), cfg.epochs
    return TrainResult(W, best_W, best_epoch, train_trace, val_trace, cfg)


def link_reports(W: np.ndarray, X: np.ndarray, tau: float, epsilon: float | None, trim: bool = False):
    """Threshold-abstain reports of the scores W @ x of the rows x of X, in one
    link_rows call; trim fills lone abstentions as trim_single_abstain does."""
    k = W.shape[0]
    cfg = LinkConfig(epsilon=epsilon, tau=tau)
    U = (W @ X[..., None])[..., 0]  # one W @ x per row, bit-identical to scoring points one by one
    pos, zeros = link_rows(U, cfg.resolve_epsilon(k), cfg.tau)
    if trim:
        pos, zeros = trim_rows(pos, zeros, U)
    return [AbstainReport(k, p, z) for p, z in zip(pos.tolist(), zeros.tolist())]


def tau_sweep(result: TrainResult, data: Dataset, taus, trim: bool = False) -> list[dict]:
    """Metric rows per tau over the test split.

    Raises ValueError when the link-level monotonicity fails (per-point
    abstention count cannot drop as tau grows); metric monotonicity is
    reported, never checked.
    """
    cfg = result.config
    _, _, te = split_indices(cfg.n_samples, cfg.seed)
    X, y_bits = data.X[te], data.y_bits[te]
    taus = sorted(taus)
    rows = []
    prev_abs = None
    for tau in taus:
        reports = link_reports(result.best_weights, X, tau, cfg.epsilon, trim=trim)
        n_abs = np.array([v.n_abstain() for v in reports])
        if not trim and prev_abs is not None and np.any(n_abs < prev_abs):
            raise ValueError(f"abstention count decreased as tau increased to {tau}")
        if not trim:
            prev_abs = n_abs
        rec = metrics([(v, int(y)) for v, y in zip(reports, y_bits)])
        rows.append({"tau": tau, **rec.to_dict()})
    return rows
