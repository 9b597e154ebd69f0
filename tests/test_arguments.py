"""Every public entry point rejects a malformed argument with a ValueError
that names it.

ROWS holds (entry point, argument, call, bad values): the call takes one bad
value and must raise a ValueError whose message names the argument as a whole
word. Every name exported by lovasz_abstain that takes an argument has a row
or an entry in EXEMPT with the reason it has none, so a new export without one
fails test_every_export_has_a_row. Rows for module functions that are not
exported carry a dotted name. The argument column holds the parameter's name,
or the word the message uses for it when the parameter is a whole object
(a report vector is named "report", the weights of make_modular "weights",
a per-label collection given to verify_tightness or counterexample_symmetric
"takes a symmetric set function");
the rows of check_condition1, counterexample_asymmetric, onehot_lift and
verify_block_domination name the k or C that puts their input past a cap. The
rows of the other size caps and size matches name the size too (k=5, shared
has k=3), as the one wording of those rules does, and WORDINGS pins that
wording for each rule.
"""

import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

import lovasz_abstain
from lovasz_abstain import (
    AbstainReport,
    BlockCodec,
    ClassCosts,
    ClassLabel,
    Label,
    LinkConfig,
    MulticlassReport,
    PolymatroidCollection,
    SetFunction,
    TrainConfig,
    abs_set,
    bep_loss,
    bep_ova_incompatibility,
    check_condition1,
    clip,
    counterexample_asymmetric,
    counterexample_symmetric,
    counts,
    encode_bep,
    enumerate_reports,
    envelope,
    envelope_oracle,
    expected_hinge,
    flip,
    grid_distributions,
    hinge,
    hinge_subgradient,
    lift_polymatroid,
    lovasz_extension,
    make_concave_card,
    make_jaccard,
    make_modular,
    make_sqrt_card,
    make_zero_one,
    metrics,
    mis,
    mix,
    multiclass_surrogate,
    multiclass_target,
    naive_threshold_link,
    onehot_lift,
    point_mass,
    random_collection,
    random_polymatroid,
    synth_data,
    target_abstain,
    target_plain,
    tau_sweep,
    threshold_abstain_link,
    train,
    trim_single_abstain,
    trimmed_link,
    uniform,
    verify_block_domination,
    verify_embedding,
    verify_representative,
    verify_tightness,
)
from lovasz_abstain.bench import Dataset
from lovasz_abstain.cli import _train_config
from lovasz_abstain.links import link_rows
from lovasz_abstain.oracle import calibration_sweep, naive_link_inconsistency, restrict_to_coords
from lovasz_abstain.oracle import thickened_envelope_grid
from lovasz_abstain.serialize import collection_from_obj
from lovasz_abstain.setfn import MAX_K

NAN, INF = math.nan, math.inf
F2 = make_sqrt_card(2)
SMALL = TrainConfig(k=2, feature_dim=2, n_samples=10, epochs=0)
RESULT, DATA = train(SMALL, F2), synth_data(SMALL)
BAD_FIELDS = {"k": [0, MAX_K + 1, 2.5, True], "feature_dim": [1, "8"], "n_samples": [9, 20.0], "epochs": [-1, 2.5, True],
          "seed": [-1, True], "lr_init": [0.0, NAN, True, "0.1"], "epsilon": [0.0, True, "0.1"],
          "noise": [[0.1, 0.2], [INF]]}
# Trainer options that no run set, deleted from TrainConfig: a JSON config that still sets one is refused by name.
REMOVED_FIELDS = {"lr_decay_every": [0, 1.0], "lr_decay": [0.0, 1.5], "grad_clip": [0.0, -1.0], "margin": [-1.0, INF],
                  "label_corr": [1.5, False], "taus": [5, [1.5], [True]]}

ROWS = [
    # setfn
    ("Label", "k", lambda v: Label(v, 0), [0, MAX_K + 1, 2.5, True]),
    ("Label", "bits", lambda v: Label(2, v), [4, -1, True, 1.0]),
    ("PolymatroidCollection", "k", lambda v: PolymatroidCollection(v, np.zeros((1, 4)), np.zeros(4)), [0, 2.0, True]),
    ("PolymatroidCollection", "values", lambda v: PolymatroidCollection(2, v, np.zeros(4)), [np.zeros((1, 3))]),
    ("PolymatroidCollection", "rows", lambda v: PolymatroidCollection(2, np.zeros((1, 4)), v), [np.zeros(3)]),
    ("SetFunction", "k", lambda v: SetFunction(v, np.zeros(4)), [0, 2.5, True]),
    ("SetFunction.eval", "subset", lambda v: F2.eval(v), [4, -1, 1.0, True]),
    ("SetFunction.from_values", "values", lambda v: SetFunction.from_values(2, v), [[0.5, 0, 0, 0], [0, -1, 0, 0]]),
    ("check_condition1", "k", check_condition1, [make_jaccard(13)]),
    ("make_concave_card", "k", lambda v: make_concave_card(v, math.sqrt), [0, 2.5, True]),
    ("make_concave_card", "g", lambda v: make_concave_card(2, v), [lambda c: NAN * c, lambda c: c * c]),
    ("make_concave_card", "k=21", lambda v: make_concave_card(v, math.sqrt), [21]),
    ("make_jaccard", "k", make_jaccard, [0, MAX_K + 1, 2.5, True]),
    ("make_modular", "weights", make_modular, [[NAN, 1.0], [-1.0], 1.0, [1.0] * 63, [1e308, 1e308]]),
    ("make_sqrt_card", "k", make_sqrt_card, [0, 2.0, True]),
    ("make_zero_one", "k", make_zero_one, [0, 2.0, True]),
    ("make_zero_one", "k=21", make_zero_one, [21]),
    ("random_collection", "k", lambda v: random_collection(v, np.random.default_rng(0)), [0, 2.5, True]),
    ("random_collection", "k=13", lambda v: random_collection(v, np.random.default_rng(0)), [13]),
    ("random_polymatroid", "k", lambda v: random_polymatroid(v, np.random.default_rng(0)), [0, 2.5, True]),
    ("random_polymatroid", "k=21", lambda v: random_polymatroid(v, np.random.default_rng(0)), [21]),
    ("serialize.collection_from_obj", "k", collection_from_obj,
     [{"k": 2.7, "kind": "zero_one"}, {"kind": "jaccard", "k": 2.5}, {"k": True, "kind": "zero_one"},
      {"k": "3", "kind": "zero_one"}, {"k": "x", "kind": "zero_one"}, {"k": 2.0, "kind": "table", "values": [0, 1, 1, 1]},
      {"k": 3.5, "kind": "concave_card"}, {"k": 2.5, "symmetric": False, "per_label": {"0": {"kind": "zero_one", "k": 2}}}]),
    ("serialize.collection_from_obj", "exponent", collection_from_obj,
     [{"kind": "concave_card", "k": 2, "exponent": True}]),
    # lovasz
    ("clip", "u", clip, [[NAN], [[0.0, INF]]]),
    ("expected_hinge", "u", lambda v: expected_hinge(F2, v, uniform(2)), [[NAN, 0.0], [0.0]]),
    ("expected_hinge", "p", lambda v: expected_hinge(F2, [0.0, 0.0], v),
     [[NAN] * 4, [0.5] * 4, [0.5] * 2, [-0.5, 0.5, 0.5, 0.5]]),
    ("hinge", "u", lambda v: hinge(F2, v, 0), [[NAN, 0.0], [0.0] * 3]),
    ("hinge", "y", lambda v: hinge(F2, [0.0, 0.0], v), [4, -1, True, 1.0]),
    ("hinge_subgradient", "u", lambda v: hinge_subgradient(F2, v, 0), [[INF, 0.0]]),
    ("hinge_subgradient", "y", lambda v: hinge_subgradient(F2, [0.0, 0.0], v), [4, True]),
    ("lovasz_extension", "x", lambda v: lovasz_extension(F2, v), [[-1.0, 0.0], [NAN, 0.0], [0.0]]),
    # targets
    ("AbstainReport", "k", lambda v: AbstainReport(v, 0, 0), [0, 2.5, True]),
    ("AbstainReport", "pos", lambda v: AbstainReport(2, v, 0), [4, -1, True, 1.0]),
    ("AbstainReport", "zeros", lambda v: AbstainReport(2, 0, v), [4, True]),
    ("abs_set", "report", abs_set, [[2, 0], [[1, 0]]]),
    ("enumerate_reports", "k", enumerate_reports, [0, 13, 2.5, True]),
    ("enumerate_reports", "family", lambda v: enumerate_reports(2, v), ["W"]),
    ("mis", "y", lambda v: mis([1, 0], v), [4, True]),
    ("target_abstain", "y", lambda v: target_abstain(F2, [1, 0], v), [4, True]),
    ("target_plain", "y", lambda v: target_plain(F2, [1, -1], v), [4, True]),
    # links
    ("LinkConfig", "epsilon", lambda v: LinkConfig(epsilon=v), [True, 0.0, -1.0, NAN, INF, "0.1"]),
    ("LinkConfig", "tau", lambda v: LinkConfig(tau=v), [True, 1.5, -0.1, NAN]),
    ("envelope", "u", lambda v: envelope(v, LinkConfig()), [[NAN, 0.0], []]),
    ("envelope_oracle", "u", lambda v: envelope_oracle(v, LinkConfig()), [[NAN, 0.0], [0.0] * 5]),
    ("naive_threshold_link", "u", lambda v: naive_threshold_link(v, 0.3), [[NAN, 0.5]]),
    ("naive_threshold_link", "c", lambda v: naive_threshold_link([0.5, 0.2], v), [True, 0.0, -1.0, NAN]),
    ("threshold_abstain_link", "u", lambda v: threshold_abstain_link(v, LinkConfig()), [[NAN], [], [[0.5]]]),
    ("trim_single_abstain", "u", lambda v: trim_single_abstain(AbstainReport.from_string("+0"), v),
     [[0.9, 0.1, 0.3], [0.9, NAN]]),
    ("links.link_rows", "eps", lambda v: link_rows(np.zeros((2, 2)), v, 0.5), [True, 0.0, NAN]),
    ("links.link_rows", "tau", lambda v: link_rows(np.zeros((2, 2)), 0.25, v), [1.5, np.array([[0.5, NAN]])]),
    # oracle
    ("counterexample_asymmetric", "k", counterexample_asymmetric, [make_jaccard(2)]),
    ("counterexample_symmetric", "f", counterexample_symmetric, [SetFunction(2, [0.0, 1.0, 1.0, 0.5])]),
    ("counterexample_symmetric", "takes a symmetric set function", counterexample_symmetric, [make_jaccard(3)]),
    ("flip", "p", lambda v: flip(v, 1, 2), [np.ones(3), np.ones((1, 4)), [-1.0, 2.0, 0.0, 0.0], [NAN] * 4]),
    ("flip", "r_bits", lambda v: flip(uniform(2), v, 2), [4, -1, True]),
    ("flip", "k", lambda v: flip(uniform(2), 1, v), [2.5, True]),
    ("grid_distributions", "k", lambda v: list(grid_distributions(v, 2)), [0, 5, 2.0, True]),
    ("grid_distributions", "m", lambda v: list(grid_distributions(2, v)), [0, 2.5, True]),
    ("mix", "lam", lambda v: mix(uniform(2), uniform(2), v), [True, 1.5, NAN]),
    ("mix", "p", lambda v: mix(v, uniform(2), 0.5), [[NAN] * 4, [0.5] * 4, [[0.25] * 4]]),
    ("mix", "q", lambda v: mix(uniform(2), v, 0.5), [[NAN] * 4, uniform(3), [-1.0, 2.0, 0.0, 0.0]]),
    ("point_mass", "y_bits", lambda v: point_mass(v, 2), [4, -1, True]),
    ("point_mass", "k", lambda v: point_mass(1, v), [0, 2.5, True]),
    ("point_mass", "k=21", lambda v: point_mass(1, v), [21]),
    ("uniform", "k", uniform, [0, 2.5, True]),
    ("uniform", "k=21", uniform, [21]),
    ("verify_embedding", "grid_m", lambda v: verify_embedding(F2, v), [0, 2.5, True]),
    ("verify_embedding", "k=5", verify_embedding, [make_sqrt_card(5)]),
    ("verify_representative", "grid_m", lambda v: verify_representative(F2, [], v), [0, 2.5, True]),
    ("verify_representative", "reports", lambda v: verify_representative(F2, v, 2),
     [[AbstainReport(3, 0, 0)], ["+0"]]),
    ("verify_representative", "k=4", lambda v: verify_representative(v, []), [make_sqrt_card(4)]),
    ("verify_tightness", "grid_m", lambda v: verify_tightness(F2, v), [0, 2.5, True]),
    ("verify_tightness", "k=5", verify_tightness, [make_sqrt_card(5)]),
    ("verify_tightness", "takes a symmetric set function", verify_tightness, [make_jaccard(3)]),
    ("oracle.calibration_sweep", "grid_m", lambda v: calibration_sweep(F2, v), [0, 2.5, True]),
    ("oracle.calibration_sweep", "k=5", lambda v: calibration_sweep(v, 2), [make_sqrt_card(5)]),
    ("oracle.restrict_to_coords", "coords", lambda v: restrict_to_coords(F2, v), [[5], [-1], [0.5], [0, 0]]),
    ("oracle.calibration_sweep", "n_perturb", lambda v: calibration_sweep(F2, 2, n_perturb=v), [0, 2.5, True]),
    ("oracle.calibration_sweep", "taus", lambda v: calibration_sweep(F2, 2, taus=v),
     [(), [2.0], [[0.5]], [NAN], [True]]),
    ("oracle.naive_link_inconsistency", "grid_m", lambda v: naive_link_inconsistency(F2, grid_m=v), [0, 2.5, True]),
    ("oracle.thickened_envelope_grid", "grid_m", lambda v: thickened_envelope_grid(F2, [0.0, 0.0], 0.25, grid_m=v),
     [0, 2.5, True]),
    # multiclass
    ("BlockCodec", "C", BlockCodec, [0, 4.0, True, "4", 2**21]),
    ("ClassCosts", "k", lambda v: ClassCosts(v, weights_by_class=[1.0]), [0, 2.5, True]),
    ("ClassCosts", "shared has k=3", lambda v: ClassCosts(2, shared=v), [make_sqrt_card(3)]),
    ("ClassCosts", "weights_by_class", lambda v: ClassCosts(1, weights_by_class=v), [[NAN], [-1.0], 1.0]),
    ("ClassLabel", "C", lambda v: ClassLabel(v, (1,)), [0, 4.5, True]),
    ("ClassLabel", "classes", lambda v: ClassLabel(4, v), [(1.5,), (True,), (5,), 3]),
    ("MulticlassReport", "C", lambda v: MulticlassReport(v, (0,)), [0, True]),
    ("MulticlassReport", "entries", lambda v: MulticlassReport(4, v), [(True,), (-1,), None]),
    ("bep_loss", "r", lambda v: bep_loss(v, 1, 4), [1.5, True, 5]),
    ("bep_loss", "y", lambda v: bep_loss(1, v, 4), [2.0, True, 5]),
    ("bep_loss", "n", lambda v: bep_loss(1, 1, v), [2.5, 0]),
    ("bep_ova_incompatibility", "g_single", bep_ova_incompatibility, [F2]),
    ("encode_bep", "y", lambda v: encode_bep(v, BlockCodec(4)), [ClassLabel(8, (1,))]),
    ("lift_polymatroid", "g", lambda v: lift_polymatroid(v, BlockCodec(4), 2), [make_sqrt_card(3)]),
    ("lift_polymatroid", "k", lambda v: lift_polymatroid(make_sqrt_card(1), BlockCodec(4), v), [True, 0]),
    ("multiclass_surrogate", "u", lambda v: multiclass_surrogate(make_sqrt_card(1), BlockCodec(4), v,
                                                                 ClassLabel(4, (1,))), [[0.0], [NAN, 0.0]]),
    ("multiclass_target", "y", lambda v: multiclass_target(make_sqrt_card(1), MulticlassReport(4, (1,)), v),
     [ClassLabel(4, (1, 2)), ClassLabel(8, (1,))]),
    ("onehot_lift", "C", lambda v: onehot_lift(None, v, 1), [13, 2.5, True]),
    ("onehot_lift", "k", lambda v: onehot_lift(None, 2, v), [1.5, 0]),
    ("trimmed_link", "u", lambda v: trimmed_link(v, LinkConfig(), BlockCodec(4)), [[NAN, 0.0], [0.5, 0.2, 0.1]]),
    ("verify_block_domination", "k", lambda v: verify_block_domination(make_sqrt_card(5), BlockCodec(4), v),
     [5, 2.5, True]),
    # bench
    *[("TrainConfig", name, lambda v, name=name: TrainConfig(**{name: v}), values)
      for name, values in BAD_FIELDS.items()],
    *[("TrainConfig", name, lambda v, name=name: _train_config({name: v}), values)
      for name, values in REMOVED_FIELDS.items()],
    ("counts", "y", lambda v: counts([1, 0], v), [4, True]),
    ("metrics", "pairs", metrics, [[]]),
    ("tau_sweep", "taus", lambda v: tau_sweep(RESULT, DATA, v), [[1.5], [True], [NAN], (), 0.5, [[0.5]], [2.0]]),
    ("tau_sweep", "data", lambda v: tau_sweep(RESULT, v, [0.5]),
     [Dataset(DATA.X[:8], DATA.y_bits[:8]), synth_data(TrainConfig(k=2, feature_dim=3, n_samples=10)),
      synth_data(TrainConfig(k=2, feature_dim=2, n_samples=20))]),
    ("train", "data", lambda v: train(SMALL, F2, v), [synth_data(TrainConfig(k=2, feature_dim=3, n_samples=10))]),
    ("train", "fc has k=3", lambda v: train(SMALL, v), [make_sqrt_card(3)]),
]

EXEMPT = {
    "mean_value": "reads the values of a SetFunction, which its constructor checks",
    "validate_polymatroid": "reports on a SetFunction; every table is a verdict, none an argument error",
    "synth_data": "reads a TrainConfig, which its constructor checks",
    "VerificationReport": "a result record the oracles build; it holds no argument of a computation",
}


def _cases():
    for export, argument, call, values in ROWS:
        for i, value in enumerate(values):
            yield pytest.param(call, argument, value, id=f"{export}-{argument}-{i}")


@pytest.mark.parametrize("call, argument, value", _cases())
def test_a_bad_argument_is_a_value_error_that_names_it(call, argument, value):
    with pytest.raises(ValueError) as err:
        call(value)
    assert re.search(rf"\b{argument}\b", str(err.value)), str(err.value)


def test_every_export_has_a_row():
    exports = {name for name, obj in vars(lovasz_abstain).items()
               if not name.startswith("_") and callable(obj) and inspect.signature(obj).parameters}
    rows = {export for export, *_ in ROWS if "." not in export}
    assert exports - rows - set(EXEMPT) == set()
    assert (rows | set(EXEMPT)) - exports == set() and not rows & set(EXEMPT)


# A copy of an argument rule outside _args.py, each with a line of a copy that
# the rules replaced, so every pattern is shown to match what it forbids.
RULE_COPIES = [
    (re.compile(r"\bfrom numbers import\b|\bnumbers\.\w|isinstance\([^)]*\b(Integral|Real)\b"),
     "from numbers import Integral, Real"),
    (re.compile(r"isinstance\([^()]*\(int, np\.integer\)"), "    if isinstance(y, (int, np.integer)):"),
    (re.compile(r"\b0(\.0)? <=? [\w.]+ <=? np\.inf\b"), "    if not 0 < eps < np.inf:"),
    (re.compile(r"\b0(\.0)? <=? [\w.]+ <=? 1(\.0)?\b"), "        if not (0.0 <= self.tau <= 1.0):"),
    (re.compile(r"\(0(\.0)? <= \w+\) & \(\w+ <= 1(\.0)?\)"), "    if not ((0.0 <= tau) & (tau <= 1.0)).all():"),
    (re.compile(r"raise ValueError\(.*(\bcap(ped)?\b| <= k <= )"),
     '        raise ValueError("distribution grid capped at k <= 4")'),
    (re.compile(r"\bhas (a )?[kC]=\{|\bdimension mismatch\b|\bdoes not match the (collection|config)\b"
                r"|\bshare the same k\b"),
     '        raise ValueError(f"label has k={y.k}, expected k={k}")'),
    (re.compile(r"np\.any\([^()]*< 0(\.0)?\)|\(\w+ >= 0(\.0)?\)\.all\(\)|\.sum\(\) - 1(\.0)?\)"),
     "    if np.any(p < 0) or abs(p.sum() - 1.0) > EXACT_TOL:"),
]


def test_only_args_holds_the_argument_rules():
    """The argument rules live in _args.py: no other module tests
    numbers.Integral or numbers.Real, (int, np.integer), a hand-written
    (0, inf) or [0, 1] range, raises its own size-cap error or "has k=..."
    mismatch, or tests a sign or a sum to 1 by hand."""
    package = Path(lovasz_abstain.__file__).parent
    hits = [f"{path.name}:{n}: {line.strip()}"
            for path in sorted(package.glob("*.py")) if path.name != "_args.py"
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if any(pattern.search(line) for pattern, _ in RULE_COPIES)]
    assert hits == []
    assert all(pattern.search(line) for pattern, line in RULE_COPIES)


# One wording per rule: a call that breaks the rule and the whole message.
WORDINGS = {
    "integer": (lambda: make_jaccard(2.5), "k must be an integer in [1, 62], got k=2.5"),
    "real": (lambda: LinkConfig(epsilon=INF), "epsilon must lie in (0, inf), got inf"),
    "points": (lambda: clip([NAN]), "u has a non-finite entry"),
    "bitmasks": (lambda: Label(2, 7), "bits has a bitmask 7 outside [0, 4) for k=2"),
    "capped": (lambda: verify_embedding(make_sqrt_card(5)), "embedding verification capped at k <= 4, got k=5"),
    "alike": (lambda: ClassCosts(2, shared=make_sqrt_card(3)), "shared has k=3, but ClassCosts has k=2"),
    "nonnegative": (lambda: expected_hinge(F2, [0.0, 0.0], [-0.5, 0.5, 0.5, 0.5]), "p must be nonnegative, got -0.5"),
    "distribution": (lambda: mix([0.5] * 4, uniform(2), 0.5),
                     "p must be a probability vector summing to 1, got sum 2.0"),
}


@pytest.mark.parametrize("rule", WORDINGS)
def test_each_rule_has_one_wording(rule):
    call, message = WORDINGS[rule]
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
