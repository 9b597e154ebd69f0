import ast
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lovasz_abstain import (
    AbstainReport,
    Label,
    counts,
    make_modular,
    make_sqrt_card,
    metrics,
    synth_data,
    tau_sweep,
    train,
    TrainConfig,
)
from lovasz_abstain import _args, bench, lovasz
from lovasz_abstain.bench import link_reports, mean_hinge, split_indices
from lovasz_abstain.links import LinkConfig, threshold_abstain_link
from lovasz_abstain.serialize import collection_from_obj
from lovasz_abstain.setfn import _sign_rows
from lovasz_abstain.targets import _outcomes


def test_counts_examples():
    tp, tn, fp, fn = counts(AbstainReport.from_string("+-0"), Label.from_string("+++"))
    assert (tp, tn, fp, fn) == (0b001, 0, 0, 0b010)
    y = Label.from_string("+-+")
    tp, tn, fp, fn = counts(AbstainReport.from_string("+-+"), y)
    assert tp | tn == 0b111 and fp == fn == 0
    tp, tn, fp, fn = counts(AbstainReport.from_string("000"), y)
    assert tp == tn == fp == fn == 0


def test_metrics_worked_example():
    rec = metrics([(AbstainReport.from_string("+-0"), Label.from_string("+++"))])
    assert rec.accuracy == pytest.approx(0.5)
    assert rec.recall == pytest.approx(0.5)
    assert rec.precision == pytest.approx(1.0)
    assert rec.iou == pytest.approx(0.5)
    assert rec.rejection_rate == pytest.approx(1 / 3)
    assert rec.rejection_rate_pos == pytest.approx(1.0)
    assert rec.rejection_rate_neg == pytest.approx(0.0)
    assert rec.undefined_flags == []


def test_metrics_perfect():
    pairs = [(AbstainReport.from_string("+-"), Label.from_string("+-"))] * 3
    rec = metrics(pairs)
    assert rec.accuracy == rec.recall == rec.precision == rec.iou == 1.0
    assert rec.rejection_rate == 0.0


def test_metrics_all_abstain():
    rec = metrics([(AbstainReport.from_string("00"), Label.from_string("+-"))])
    assert rec.rejection_rate == 1.0
    assert rec.accuracy == 0.0
    assert "accuracy" in rec.undefined_flags and "recall" in rec.undefined_flags


trit = st.sampled_from([-1, 0, 1])
sign = st.sampled_from([-1, 1])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.lists(trit, min_size=3, max_size=3),
                          st.lists(sign, min_size=3, max_size=3)),
                min_size=1, max_size=6))
def test_metrics_invariants(pairs):
    reports = [(AbstainReport.from_vector(v), Label.from_signs(y)) for v, y in pairs]
    rec = metrics(reports)
    total_abs = sum(v.n_abstain() for v, _ in reports)
    for v, y in reports:
        tp, tn, fp, fn = counts(v, y)
        assert (tp | tn | fp | fn | v.zeros).bit_count() == 3
        assert (tp | tn | fp | fn) & v.zeros == 0
    if total_abs:
        assert rec.rejection_rate_pos + rec.rejection_rate_neg == pytest.approx(1.0)
    assert 0 <= rec.rejection_rate <= 1


def test_synth_determinism():
    cfg = TrainConfig(k=3, feature_dim=6, n_samples=50, seed=9)
    a, b = synth_data(cfg), synth_data(cfg)
    assert np.array_equal(a.X, b.X) and np.array_equal(_sign_rows(a.y_bits, 3), _sign_rows(b.y_bits, 3))


def test_synth_separable_at_zero_noise():
    cfg = TrainConfig(k=3, feature_dim=5, n_samples=100, seed=3, noise=0.0)
    data = synth_data(cfg)
    W = np.zeros((3, 5))
    W[:, :3] = np.eye(3)  # each label coordinate's feature is y_i * (1 + |gauss|)
    fc = make_modular([1.0, 1.0, 1.0])
    assert mean_hinge(fc, W, data.X, data.y_bits) == 0.0


def test_train_zero_epochs():
    cfg = TrainConfig(k=2, feature_dim=4, n_samples=40, epochs=0, seed=1)
    res = train(cfg, make_modular([1.0, 1.0]))
    assert np.all(res.weights == 0)


def test_train_converges_and_is_deterministic():
    cfg = TrainConfig(k=4, feature_dim=8, n_samples=200, epochs=150, seed=0)
    fc = make_modular(np.ones(4))
    r1 = train(cfg, fc)
    r2 = train(cfg, fc)
    assert r1.train_trace[-1] < 1e-2
    assert json.dumps(r1.to_dict()) == json.dumps(r2.to_dict())


def test_benchmark_trainings_reach_their_stored_final_hinges():
    """The train-chain and train-wide workloads' configs at seed 0, which the
    benchmark checks against these stored final hinges."""
    chain = TrainConfig(k=4, feature_dim=8, n_samples=500, epochs=25, seed=0, noise=[0.0, 0.4, 1.0, 2.5])
    final = train(chain, collection_from_obj({"kind": "concave_card", "k": 4, "exponent": 0.5})).train_trace[-1]
    assert abs(final - 0.6882530618874289) <= 1e-9
    wide = TrainConfig(k=10, feature_dim=16, n_samples=250, epochs=30, seed=0)
    assert train(wide, collection_from_obj({"kind": "jaccard", "k": 10})).train_trace[-1] == 0.27511906482186177


def test_trace_nonincreasing_with_small_step():
    cfg = TrainConfig(k=2, feature_dim=4, n_samples=60, epochs=40, seed=5, lr_init=1e-3)
    res = train(cfg, make_modular([1.0, 1.0]))
    diffs = np.diff(res.train_trace)
    assert np.all(diffs <= 1e-6)


def test_split_disjoint():
    tr, va, te = split_indices(100, 0)
    assert len(tr) + len(va) + len(te) == 100
    assert not (set(tr) & set(va)) and not (set(va) & set(te)) and not (set(tr) & set(te))


def test_tau_sweep_monotone_and_rows():
    cfg = TrainConfig(k=3, feature_dim=6, n_samples=120, epochs=60, seed=2,
                      noise=[0.0, 0.0, 2.5])
    fc = make_sqrt_card(3)
    data = synth_data(cfg)
    res = train(cfg, fc, data)
    rows = tau_sweep(res, data, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert len(rows) == 5
    rates = [r["rejection_rate"] for r in rows]
    assert all(a <= b + 1e-12 for a, b in zip(rates, rates[1:]))
    single = tau_sweep(res, data, [0.5])
    assert len(single) == 1


def test_tau_sweep_rejects_a_drop_in_abstentions(monkeypatch):
    cfg = TrainConfig(k=3, feature_dim=6, n_samples=60, epochs=1, seed=2)
    data = synth_data(cfg)
    res = train(cfg, make_sqrt_card(3), data)

    def dropping(us, eps, tau):  # the sweep's one call, over a (1, T) tau grid
        low = np.broadcast_to(tau < 0.5, (len(us), tau.shape[1]))
        return np.where(low, 0b000, 0b101), np.where(low, 0b111, 0b010)  # 000, then +0+

    monkeypatch.setattr(bench, "link_rows", dropping)
    with pytest.raises(ValueError, match="abstention count decreased"):
        tau_sweep(res, data, [0.0, 1.0])


def test_trimmed_reports_have_no_lone_abstention():
    cfg = TrainConfig(k=3, feature_dim=6, n_samples=80, epochs=30, seed=4,
                      noise=[0.0, 1.5, 3.0])
    fc = make_sqrt_card(3)
    data = synth_data(cfg)
    res = train(cfg, fc, data)
    for tau in (0.0, 0.5, 1.0):
        reports = link_reports(res.best_weights, data.X, tau, None, trim=True)
        assert all(v.n_abstain() != 1 for v in reports)


def test_link_reports_match_direct_calls(rng):
    W = rng.standard_normal((2, 3))
    X = rng.standard_normal((10, 3))
    out = link_reports(W, X, 0.5, None)
    for x, v in zip(X, out):
        u = W @ x
        assert v == threshold_abstain_link(u, LinkConfig(tau=0.5))


def test_trainconfig_validation():
    with pytest.raises(ValueError):
        TrainConfig(k=0)
    with pytest.raises(ValueError):
        TrainConfig(k=2, feature_dim=1)
    with pytest.raises(ValueError):
        TrainConfig(lr_init=0.0)


def _field_reads(source: str, owner: str) -> set[str]:
    """Attribute names the module source loads outside the body of class
    owner; the CLI's parsed flags (args.taus) share names with fields, so
    reads off args do not count."""
    tree = ast.parse(source)
    inside = {id(n) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) and c.name == owner for n in ast.walk(c)}
    return {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load) and id(n) not in inside
            and not (isinstance(n.value, ast.Name) and n.value.id == "args")}


@pytest.mark.parametrize("config", [TrainConfig, LinkConfig])
def test_every_config_field_is_read(config):
    """Each field of the config is read somewhere in the package outside its
    own class, whose __post_init__ only validates it: a field that only that
    code reads (or writes out) is an option no computation uses."""
    package = Path(bench.__file__).parent
    reads = set().union(*(_field_reads(path.read_text(), config.__name__) for path in package.glob("*.py")))
    assert [f.name for f in dataclasses.fields(config) if f.name not in reads] == []


# Trainer options that no run set, deleted from TrainConfig; older model.json files still carry them.
REMOVED_FIELDS = {"taus", "lr_decay", "lr_decay_every", "grad_clip", "margin", "label_corr"}


@pytest.mark.parametrize(
    "fields, word",
    [({"lr_init": float("nan")}, r"lr_init must lie in \(0, inf\], got nan"),
     ({"epochs": -1}, "epochs"),
     ({"k": 3, "noise": [0.1, 0.2]}, "noise"),
     ({"k": 3, "noise": [0.1, float("inf"), 0.2]}, "noise"),
     ({"epochs": 2.5}, "epochs must be an integer >= 0, got epochs=2.5"),
     ({"feature_dim": "8"}, "feature_dim must be an integer >= 4, got feature_dim='8'"),
     ({"n_samples": 20.0}, "n_samples must be an integer >= 10, got n_samples=20.0"),
     ({"epochs": True}, "epochs must be an integer >= 0, got epochs=True"),
     ({"seed": -1}, "seed must be an integer >= 0, got seed=-1"),
     ({"lr_init": "0.1"}, "lr_init must be a real number, got '0.1'"),
     ({"lr_init": True}, "lr_init must be a real number, got True"),
     ({"epsilon": -1.0}, r"epsilon must lie in \(0, inf\), got -1.0"),
     ({"epsilon": "0.1"}, "epsilon must be a real number, got '0.1'"),
     ({"epsilon": float("nan")}, r"epsilon must lie in \(0, inf\), got nan"),
     *[({field: value}, f"unexpected keyword argument '{field}'") for field, value in [
         ("grad_clip", -1.0), ("grad_clip", float("nan")), ("label_corr", 2.0), ("label_corr", -0.5),
         ("margin", float("nan")), ("margin", -1.0), ("taus", 5), ("lr_decay", "0.9"), ("grad_clip", True),
         ("margin", "1"), ("label_corr", False), ("taus", [0.5, 2.0])]]],
    ids=["nan-lr-init", "negative-epochs", "noise-of-wrong-length", "infinite-noise",
         "fractional-epochs", "string-feature-dim", "float-n-samples", "bool-epochs",
         "negative-seed", "string-lr-init", "bool-lr-init", "negative-epsilon", "string-epsilon", "nan-epsilon",
         "negative-grad-clip", "nan-grad-clip", "label-corr-above-1", "negative-label-corr", "nan-margin",
         "negative-margin", "scalar-taus", "string-lr-decay", "bool-grad-clip", "string-margin", "bool-label-corr",
         "tau-above-1"],
)
def test_trainconfig_rejects_a_bad_field_by_name(fields, word):
    # an option the trainer no longer has is no field at all: the constructor refuses its keyword
    error = TypeError if set(fields) & REMOVED_FIELDS else ValueError
    with pytest.raises(error, match=word):
        TrainConfig(**fields)


@pytest.mark.parametrize(
    "n_samples, feature_dim",
    [(39, 4), (41, 4), (40, 5)],
    ids=["too-few-rows", "too-many-rows", "wrong-width"],
)
def test_train_rejects_data_that_does_not_match_the_config(n_samples, feature_dim):
    cfg = TrainConfig(k=2, feature_dim=4, n_samples=40, epochs=2, seed=1)
    data = synth_data(TrainConfig(k=2, feature_dim=feature_dim, n_samples=n_samples, seed=1))
    with pytest.raises(ValueError, match="data"):
        train(cfg, make_modular([1.0, 1.0]), data)


@pytest.mark.parametrize(
    "n_samples, feature_dim",
    [(20, 4), (60, 4), (40, 5)],
    ids=["too-few-rows", "too-many-rows", "wrong-width"],
)
def test_tau_sweep_rejects_data_that_does_not_match_the_config(n_samples, feature_dim):
    """As train does: the run's test split is read from data by the config's row count and width."""
    cfg = TrainConfig(k=2, feature_dim=4, n_samples=40, epochs=2, seed=1)
    res = train(cfg, make_modular([1.0, 1.0]))
    data = synth_data(TrainConfig(k=2, feature_dim=feature_dim, n_samples=n_samples, seed=1))
    with pytest.raises(ValueError, match=r"^data has X of shape"):
        tau_sweep(res, data, [0.5])


def test_train_rejects_non_finite_features_and_out_of_range_labels():
    cfg = TrainConfig(k=2, feature_dim=4, n_samples=40, epochs=2, seed=1)
    data = synth_data(cfg)
    data.X[3, 1] = np.nan
    with pytest.raises(ValueError, match="data"):
        train(cfg, make_modular([1.0, 1.0]), data)
    data = synth_data(cfg)
    data.y_bits[3] = 4
    with pytest.raises(ValueError, match="y_bits"):
        train(cfg, make_modular([1.0, 1.0]), data)


@pytest.mark.parametrize("epochs", [0, 1, 6])
def test_train_makes_one_chain_kernel_call_per_epoch(epochs, monkeypatch):
    """One call per epoch over the train and validation rows, plus the final
    evaluation; not three per epoch."""
    calls = []
    counted = lovasz.chain_gains

    def counting(*args, **kwargs):
        calls.append(1)
        return counted(*args, **kwargs)

    monkeypatch.setattr(lovasz, "chain_gains", counting)
    cfg = TrainConfig(k=3, feature_dim=5, n_samples=60, epochs=epochs, seed=2)
    res = train(cfg, make_sqrt_card(3))
    assert len(calls) == epochs + 1 and len(res.train_trace) == epochs + 1


@pytest.mark.parametrize("lr_init", [1e308, math.inf])
@pytest.mark.parametrize("epochs", [1, 5])
def test_a_step_that_overflows_the_scores_ends_in_the_trainers_verdict(lr_init, epochs):
    """lr_init may be any positive number up to inf. A first step that makes
    the scores non-finite is the trainer's divergence verdict: not numpy's
    overflow warning (an error under this suite's filterwarnings), nor a
    ValueError naming scores the caller never passed."""
    cfg = TrainConfig(k=3, feature_dim=5, n_samples=60, epochs=epochs, seed=2, lr_init=lr_init)
    with pytest.raises(RuntimeError, match="^training diverged at epoch 1$"):
        train(cfg, make_sqrt_card(3))


def test_an_infinite_step_along_a_zero_gradient_ends_in_the_trainers_verdict():
    """A feature that is 0 in every row has a zero gradient, and inf * 0 is
    NaN: that too is the divergence verdict, not an invalid-value warning."""
    cfg = TrainConfig(k=3, feature_dim=5, n_samples=60, epochs=3, seed=2, lr_init=math.inf)
    data = synth_data(cfg)
    data.X[:, -1] = 0.0
    with pytest.raises(RuntimeError, match="^training diverged at epoch 1$"):
        train(cfg, make_sqrt_card(3), data)


def test_the_epoch_loop_runs_no_argument_rule(monkeypatch):
    """train checks its features and labels once per run: it makes as many
    calls of the points and bitmasks rules at 6 epochs as at 0, wherever a
    module of the package bound them."""
    calls = []

    def counting(rule):
        def counted(*args, **kwargs):
            calls.append(rule.__name__)
            return rule(*args, **kwargs)
        return counted

    rules = (_args.points, _args.bitmasks)
    for module in [m for name, m in sys.modules.items() if name.startswith("lovasz_abstain")]:
        for rule in rules:
            if getattr(module, rule.__name__, None) is rule:
                monkeypatch.setattr(module, rule.__name__, counting(rule))
    fc, counts_by_epochs = make_sqrt_card(3), {}
    for epochs in (0, 1, 6):
        cfg = TrainConfig(k=3, feature_dim=5, n_samples=60, epochs=epochs, seed=2)
        calls.clear()
        train(cfg, fc)
        counts_by_epochs[epochs] = sorted(calls)
    assert counts_by_epochs[0] and counts_by_epochs[1] == counts_by_epochs[0] == counts_by_epochs[6]


def test_trainer_loss_rejects_out_of_range_y_bits():
    """A negative bitmask must not wrap around to label 2^k - 1."""
    from lovasz_abstain import make_jaccard
    from lovasz_abstain.bench import _mean_subgradient

    cfg = TrainConfig(k=3, feature_dim=4, n_samples=20, seed=2)
    data = synth_data(cfg)
    W = np.random.default_rng(0).standard_normal((3, 4))
    for fc in (make_sqrt_card(3), make_jaccard(3)):
        for bad in (-1, 8):
            y_bits = data.y_bits.copy()
            y_bits[4] = bad
            with pytest.raises(ValueError, match="y_bits"):
                mean_hinge(fc, W, data.X, y_bits)
            with pytest.raises(ValueError, match="y_bits"):
                _mean_subgradient(fc, W, data.X, y_bits)


def _metrics_per_pair(pairs):
    """The pooled metrics as one Python loop over (report, label) pairs."""
    k, tp, tn, fp, fn, n_abs, rej_pos, rej_neg = pairs[0][0].k, 0, 0, 0, 0, 0, 0, 0
    full = (1 << k) - 1
    for v, y in pairs:
        y_bits = y.bits
        neg = full & ~(v.pos | v.zeros)
        tp += (v.pos & y_bits).bit_count()
        tn += (neg & ~y_bits & full).bit_count()
        fp += (v.pos & ~y_bits & full).bit_count()
        fn += (neg & y_bits).bit_count()
        n_abs += v.zeros.bit_count()
        rej_pos += (v.zeros & y_bits).bit_count()
        rej_neg += (v.zeros & ~y_bits & full).bit_count()
    flags = []
    return bench.MetricRecord(
        accuracy=bench._ratio(tp + tn, tp + tn + fp + fn, "accuracy", flags),
        recall=bench._ratio(tp, tp + fn, "recall", flags),
        precision=bench._ratio(tp, tp + fp, "precision", flags),
        iou=bench._ratio(tp, tp + fp + fn, "iou", flags),
        rejection_rate=n_abs / (len(pairs) * k),
        rejection_rate_pos=bench._ratio(rej_pos, n_abs, "rejection_rate_pos", flags),
        rejection_rate_neg=bench._ratio(rej_neg, n_abs, "rejection_rate_neg", flags),
        undefined_flags=flags,
    )


@st.composite
def report_label_rows(draw):
    k = draw(st.integers(1, 6))
    row = st.tuples(st.lists(trit, min_size=k, max_size=k), st.lists(sign, min_size=k, max_size=k))
    rows = draw(st.lists(row, min_size=1, max_size=8))
    return [(AbstainReport.from_vector(v), Label.from_signs(y)) for v, y in rows]


@settings(max_examples=200, deadline=None)
@given(report_label_rows())
def test_outcome_kernel_on_arrays_matches_counts_row_by_row(pairs):
    k = pairs[0][0].k
    pos, zeros, y = (np.array(m, dtype=np.int64) for m in zip(*[(v.pos, v.zeros, t.bits) for v, t in pairs]))
    batched = np.stack(_outcomes(k, pos, zeros, y), axis=1)
    assert batched.tolist() == [list(counts(v, t)) for v, t in pairs]


@settings(max_examples=200, deadline=None)
@given(report_label_rows())
def test_metrics_match_the_per_pair_loop(pairs):
    assert metrics(pairs).to_dict() == _metrics_per_pair(pairs).to_dict()


@pytest.mark.parametrize("seed", [1, 6])
@pytest.mark.parametrize("trim", [False, True])
def test_tau_sweep_rows_are_metrics_of_the_linked_reports(seed, trim):
    cfg = TrainConfig(k=4, feature_dim=6, n_samples=150, epochs=40, seed=seed, noise=[0.0, 0.8, 1.6, 3.0])
    data = synth_data(cfg)
    res = train(cfg, make_sqrt_card(4), data)
    _, _, te = split_indices(cfg.n_samples, cfg.seed)
    taus = [0.0, 0.2, 0.5, 0.8, 1.0]
    rows = tau_sweep(res, data, taus, trim=trim)
    for tau, row in zip(taus, rows):
        reports = link_reports(res.best_weights, data.X[te], tau, cfg.epsilon, trim=trim)
        assert row == {"tau": tau, **metrics(zip(reports, data.y_bits[te].tolist())).to_dict()}
