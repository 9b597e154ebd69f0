"""Command-line front end.

Vectors are comma-separated decimals, labels are strings over {+,-}, reports
over {+,-,0}; multiclass labels are comma-separated class numbers with "_"
for abstain. Verification subcommands print a JSON report to stdout.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import bench, links, lovasz, multiclass, oracle, serialize, setfn, targets
from ._args import alike


def _vec(s: str, name: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in s.split(",")])
    except ValueError as exc:  # float() names the entry: could not convert string to float: 'abc'
        raise ValueError(f"{name}: {exc}") from None


def _eps(s: str) -> float | None:
    return None if s == "auto" else float(s)


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2, default=_jsonable)
    sys.stdout.write("\n")


def _jsonable(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    return str(x)


def cmd_validate(args):
    f = serialize.load_setfn(args.setfn)
    _emit(setfn.validate_polymatroid(f, strict=args.strict).to_dict())


def cmd_condition1(args):
    fc = serialize.load_collection(args.collection)
    _emit(setfn.check_condition1(fc).to_dict())


def cmd_eval_extension(args):
    f = serialize.load_setfn(args.setfn)
    print(lovasz.lovasz_extension(f, _vec(args.x, "x")))


def cmd_eval_hinge(args):
    fc = serialize.load_collection(args.collection)
    y = setfn.Label.from_string(args.y)
    print(lovasz.hinge(fc, _vec(args.u, "u"), y))


def cmd_eval_target(args):
    fc = serialize.load_collection(args.collection)
    y = setfn.Label.from_string(args.y)
    v = targets.AbstainReport.from_string(args.v)
    if args.plain:
        print(targets.target_plain(fc, v, y))
    else:
        print(targets.target_abstain(fc, v, y))


def cmd_link(args):
    u = _vec(args.u, "u")
    cfg = links.LinkConfig(epsilon=_eps(args.eps), tau=args.tau)
    v = links.threshold_abstain_link(u, cfg)
    if args.trim:
        v = links.trim_single_abstain(v, u)
    print(v)


def cmd_envelope(args):
    u = _vec(args.u, "u")
    cfg = links.LinkConfig(epsilon=_eps(args.eps))
    detailed = links.envelope_detailed(u, cfg)
    if args.oracle:
        members = {str(v) for v in links.envelope_oracle(u, cfg)}
        by_report = {d["report"]: d for d in detailed}
        detailed = [by_report.get(m, {"report": m, "i": None, "pi": None, "y": None})
                    for m in sorted(members)]
    _emit({"members": detailed})


def cmd_verify(args):
    fc = serialize.load_collection(args.collection)
    if args.k is not None:
        alike("--k", args.k, "--collection", fc.k)
    if args.what == "embedding":
        rep = oracle.verify_embedding(fc, grid_m=args.grid)
    elif args.what == "representative":
        fam = targets.enumerate_reports(fc.k, args.family)
        rep = oracle.verify_representative(fc, fam, grid_m=args.grid)
    else:
        rep = oracle.verify_tightness(fc, grid_m=args.grid)
    _emit(rep.to_dict())


def cmd_counterexample(args):
    fc = serialize.load_collection(args.collection)
    if args.symmetric:
        res = oracle.counterexample_symmetric(fc)
        fields = {"consistent_case": True} if res.consistent_case else vars(res)
    else:
        fields = vars(oracle.counterexample_asymmetric(fc))
    _emit({{"y_bits": "y", "y_prime_bits": "y_prime"}.get(key, key): value for key, value in fields.items()})


def cmd_mc_encode(args):
    codec = multiclass.BlockCodec(args.C)
    y = multiclass.ClassLabel.from_string(args.C, args.y)
    print(setfn.Label(codec.d * y.k, multiclass.encode_bep(y, codec)))


def _load_costs(path, k: int):
    obj = json.loads(Path(path).read_text())
    if isinstance(obj, dict) and "weights_by_class" in obj:
        return multiclass.ClassCosts(k, weights_by_class=obj["weights_by_class"])
    return multiclass.ClassCosts.from_setfn(serialize.setfn_from_obj(obj))


def cmd_mc_eval(args):
    v = multiclass.MulticlassReport.from_string(args.C, args.v)
    y = multiclass.ClassLabel.from_string(args.C, args.y)
    g = _load_costs(args.g, y.k)
    print(multiclass.multiclass_target(g, v, y))


def cmd_mc_link(args):
    codec = multiclass.BlockCodec(args.C)
    cfg = links.LinkConfig(epsilon=_eps(args.eps), tau=args.tau)
    print(multiclass.trimmed_link(_vec(args.u, "u"), cfg, codec))


def _train_config(obj: dict) -> bench.TrainConfig:
    """TrainConfig from the fields of a JSON object, or a ValueError naming a field it does not have."""
    unknown = sorted(set(obj) - {f.name for f in dataclasses.fields(bench.TrainConfig)})
    if unknown:
        raise ValueError(f"train config has no field {unknown[0]!r}")
    return bench.TrainConfig(**obj)


def cmd_train(args):
    spec = serialize._object(json.loads(Path(args.config).read_text()), "a train config")
    fc = serialize.collection_from_obj(serialize._field(spec, "setfn", "train config"))
    cfg = _train_config({key: v for key, v in spec.items() if key != "setfn"})
    result = bench.train(cfg, fc)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "model.json").write_text(json.dumps(result.to_dict(), indent=2))
    serialize.save_collection(fc, out / "collection.json")
    print(f"final train hinge {result.train_trace[-1]:.6g}, best epoch {result.best_epoch}")


def _read_report_csv(path):
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"report file {path} is empty")
        if not all(c.startswith("c") for c in header):
            rows.append(header)  # tolerate missing header
        rows.extend(reader)
    return ["".join(r) for r in rows]


def cmd_metrics(args):
    preds = [targets.AbstainReport.from_string(s) for s in _read_report_csv(args.pred)]
    truths = [setfn.Label.from_string(s) for s in _read_report_csv(args.truth)]
    if len(preds) != len(truths):
        raise ValueError("prediction and truth files have different lengths")
    rec = bench.metrics(list(zip(preds, truths)))
    Path(args.out).write_text(json.dumps(rec.to_dict(), indent=2))
    _emit(rec.to_dict())


def cmd_sweep(args):
    taus = _vec(args.taus, "taus").tolist()
    path = Path(args.model) / "model.json"
    model = serialize._object(json.loads(path.read_text()), str(path))
    field = lambda name: serialize._field(model, name, str(path))  # names the file and the missing field
    cfg = _train_config(field("config"))
    data = bench.synth_data(cfg)
    result = bench.TrainResult(
        weights=np.array(field("weights")),
        best_weights=np.array(field("best_weights")),
        best_epoch=field("best_epoch"),
        train_trace=field("train_trace"),
        val_trace=field("val_trace"),
        config=cfg,
    )
    rows = bench.tau_sweep(result, data, taus, trim=args.trim)
    _emit(rows)


_REQ = {"required": True}
_FLAG = {"action": "store_true"}
_TAU = {"type": float, "default": 0.5}
_EPS = {"default": "auto"}
_C = {"type": int, "required": True}

# Each subcommand's help and arguments; the handler of "x-y" is cmd_x_y.
_COMMANDS = {
    "validate": ("polymatroid axioms on a set function file", {"--setfn": _REQ, "--strict": _FLAG}),
    "condition1": ("complementary-error condition on a collection", {"--collection": _REQ}),
    "eval-extension": ("extension value at a nonnegative point", {"--setfn": _REQ, "--x": _REQ}),
    "eval-hinge": ("hinge value at (u, y)", {"--collection": _REQ, "--u": _REQ, "--y": _REQ}),
    "eval-target": ("discrete target loss at (v, y)",
                    {"--collection": _REQ, "--v": _REQ, "--y": _REQ, "--plain": _FLAG}),
    "link": ("threshold-abstain link output", {"--u": _REQ, "--tau": _TAU, "--eps": _EPS, "--trim": _FLAG}),
    "envelope": ("link envelope members with witnesses", {"--u": _REQ, "--eps": _EPS, "--oracle": _FLAG}),
    "verify": ("brute-force verification sweeps",
               {"what": {"choices": ["embedding", "representative", "tightness"]}, "--collection": _REQ,
                "--k": {"type": int, "help": "expected dimension (checked)"}, "--grid": {"type": int, "default": 8},
                "--family": {"choices": ["V", "V0", "Y"], "default": "V0"}}),
    "counterexample": ("inconsistency certificates", {"--collection": _REQ, "--symmetric": _FLAG}),
    "mc-encode": ("block-encode a multiclass label", {"--C": _C, "--y": _REQ}),
    "mc-eval": ("multiclass abstain target value", {"--g": _REQ, "--C": _C, "--v": _REQ, "--y": _REQ}),
    "mc-link": ("trimmed threshold-abstain link", {"--u": _REQ, "--C": _C, "--tau": _TAU, "--eps": _EPS}),
    "train": ("fit the linear scorer on synthetic data", {"--config": _REQ, "--out": _REQ}),
    "metrics": ("abstention-aware metrics from CSV files", {"--pred": _REQ, "--truth": _REQ, "--out": _REQ}),
    "sweep": ("tau sweep of a trained run directory",
              {"--model": _REQ, "--taus": {"default": "0,0.25,0.5,0.75,1"}, "--trim": _FLAG}),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The lovabs parser with every subcommand, or with only `command` when it names one.

    Both print the same help and errors for that command. The one-command
    parser's usage lists every command through a metavar; the full parser
    has none, so its own errors still name the argument "command".
    """
    only = command in _COMMANDS
    names = [command] if only else list(_COMMANDS)
    p = argparse.ArgumentParser(prog="lovabs", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True, metavar="{" + ",".join(_COMMANDS) + "}" if only else None)
    for name in names:
        help_text, arguments = _COMMANDS[name]
        q = sub.add_parser(name, help=help_text)
        for flag, spec in arguments.items():
            q.add_argument(flag, **spec)
        q.set_defaults(fn=globals()["cmd_" + name.replace("-", "_")])  # read now, so a rebound cmd_* is called
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        args.fn(args)
    except (ValueError, OSError, KeyError) as exc:  # an unreadable input file; a label that has no table
        print(f"lovabs {args.command}: error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
