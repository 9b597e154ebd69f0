"""The four workloads: set-up, the operations of one timed pass, output checks.

A workload drives the lovasz_abstain package in-process. ``setup`` makes the
inputs from the seed and writes them under the run's work directory; it is
timed as setup_s. ``reference`` computes what the checks compare against and
is not timed. A pass runs ``operations()`` in order; each operation's output
goes to ``check`` outside the timed region, which raises CheckFailed on a
wrong output. Sizes come in two scales: "full" for measuring and "tiny" for
the self-test. Counts pinned to the seed commit are checked at full scale.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
SQRT_CARD_4 = {"kind": "concave_card", "k": 4, "exponent": 0.5}
CHAIN_NOISE = [0.0, 0.4, 1.0, 2.5]


class CheckFailed(Exception):
    pass


def expect(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


def cli_call(cli, argv: list[str]) -> str:
    """Run the lovabs CLI in-process and return what it printed."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli.main(argv)
    return out.getvalue()


class Workload:
    name = ""
    sizes: dict[str, dict] = {}

    def __init__(self, work: Path, seed: int, scale: str):
        self.work = work
        self.seed = seed
        self.scale = scale
        self.size = self.sizes[scale]
        self.m = None

    def setup(self, m) -> None:
        """Make the inputs; m holds the freshly imported package modules."""
        self.m = m

    def reference(self) -> None:
        pass

    def operations(self) -> list[tuple[str, object]]:
        raise NotImplementedError

    def check(self, op: str, output) -> None:
        raise NotImplementedError

    def bytes_written(self) -> int:
        """Bytes of files the last pass wrote (serialize.bytes_written)."""
        return 0

    def summary(self) -> dict[str, float]:
        """Deterministic outputs worth printing next to the metrics."""
        return {}


class Train(Workload):
    """``lovabs train`` on a generated config; one operation per pass."""

    # Final training hinge of one pass at DEFAULT_SEED and full scale, from the
    # seed commit. A change that alters the training arithmetic fails here.
    stored_final_hinge: float = math.nan
    final: float | None = None  # set by the first checked pass; later passes must match

    def config(self) -> dict:
        raise NotImplementedError

    def setup(self, m) -> None:
        super().setup(m)
        self.work.mkdir(parents=True, exist_ok=True)
        self.cfg_path = self.work / "train.json"
        self.out = self.work / "run"
        self.cfg_path.write_text(json.dumps(self.config()))

    def operations(self):
        cli, argv = self.m.cli, ["train", "--config", str(self.cfg_path), "--out", str(self.out)]
        return [("train", lambda: cli_call(cli, argv))]

    def check(self, op, output) -> None:
        trace = json.loads((self.out / "model.json").read_text())["train_trace"]
        final, start = trace[-1], trace[0]
        expect(math.isfinite(final), f"final hinge {final} is not finite")
        expect(final < start, f"final hinge {final} is not below the starting loss {start}")
        if self.final is None:
            self.final = final
        expect(final == self.final, f"final hinge {final} differs from the first pass {self.final}")
        if self.scale == "full" and self.seed == DEFAULT_SEED:
            expect(abs(final - self.stored_final_hinge) <= 1e-9,
                   f"final hinge {final!r} differs from the stored {self.stored_final_hinge!r}")

    def bytes_written(self) -> int:
        return sum(p.stat().st_size for p in self.out.iterdir())

    def summary(self):
        return {"final_hinge": self.final}


class TrainChain(Train):
    name = "train-chain"
    sizes = {"full": {"n_samples": 500, "epochs": 25}, "tiny": {"n_samples": 50, "epochs": 3}}
    stored_final_hinge = 0.6882530618874289

    def config(self):
        return {"k": 4, "feature_dim": 8, "n_samples": self.size["n_samples"],
                "epochs": self.size["epochs"], "seed": self.seed, "noise": CHAIN_NOISE,
                "setfn": SQRT_CARD_4}


class TrainWide(Train):
    name = "train-wide"
    sizes = {"full": {"k": 10, "n_samples": 250, "epochs": 30},
             "tiny": {"k": 5, "n_samples": 50, "epochs": 2}}
    stored_final_hinge = 0.27511906482186177

    def config(self):
        k = self.size["k"]
        return {"k": k, "feature_dim": 16, "n_samples": self.size["n_samples"],
                "epochs": self.size["epochs"], "seed": self.seed,
                "setfn": {"kind": "jaccard", "k": k}}


class SweepLink(Workload):
    """``lovabs sweep`` over five taus, plain and with --trim, on a run
    directory whose config asks for enough samples to give a large test split."""

    name = "sweep-link"
    sizes = {"full": {"n_samples": 10_000, "train_epochs": 20},
             "tiny": {"n_samples": 500, "train_epochs": 3}}
    taus = "0,0.25,0.5,0.75,1"

    def setup(self, m) -> None:
        super().setup(m)
        cfg = m.bench.TrainConfig(k=4, feature_dim=8, n_samples=500,
                                  epochs=self.size["train_epochs"], seed=self.seed,
                                  noise=CHAIN_NOISE)
        fc = m.serialize.collection_from_obj(SQRT_CARD_4)
        model = m.bench.train(cfg, fc).to_dict()
        model["config"]["n_samples"] = self.size["n_samples"]
        self.run_dir = self.work / "run"
        self.run_dir.mkdir(parents=True, exist_ok=True)
        (self.run_dir / "model.json").write_text(json.dumps(model))
        (self.run_dir / "collection.json").write_text(json.dumps(m.serialize.collection_to_obj(fc)))

    def reference(self) -> None:
        """Expected rows, after checking every plain linked report against the
        batched envelope at its point and abstention counts against tau."""
        bench, links, targets = self.m.bench, self.m.links, self.m.targets
        model = json.loads((self.run_dir / "model.json").read_text())
        cfg = bench.TrainConfig(**{key: tuple(v) if key == "taus" else v
                                   for key, v in model["config"].items()})
        data = bench.synth_data(cfg)
        _, _, te = bench.split_indices(cfg.n_samples, cfg.seed)
        X, y_bits = data.X[te], data.y_bits[te]
        W = np.array(model["best_weights"])
        U = np.stack([W @ x for x in X])
        members = links.envelope_members_gap(U, 1.0 / (2 * cfg.k))
        ridx = targets.report_index(cfg.k)
        taus = [float(t) for t in self.taus.split(",")]
        self.expected = {}
        for op, trim in (("sweep", False), ("sweep-trim", True)):
            rows, prev = [], None
            for tau in taus:
                reports = bench.link_reports(W, X, tau, cfg.epsilon, trim=trim)
                n_abs = np.array([v.n_abstain() for v in reports])
                if not trim:
                    ids = np.array([ridx[(v.pos, v.zeros)] for v in reports])
                    expect(bool(members[np.arange(len(ids)), ids].all()),
                           f"a linked report at tau={tau} lies outside the envelope")
                    expect(prev is None or bool(np.all(n_abs >= prev)),
                           f"abstention count dropped at tau={tau}")
                    prev = n_abs
                rec = bench.metrics([(v, int(y)) for v, y in zip(reports, y_bits)]).to_dict()
                expect(abs(rec["rejection_rate"] - n_abs.sum() / (len(reports) * cfg.k)) <= 1e-12,
                       f"pooled rejection rate disagrees with the abstention count at tau={tau}")
                rows.append({"tau": tau, **rec})
            self.expected[op] = json.loads(json.dumps(rows))

    def operations(self):
        cli = self.m.cli
        argv = ["sweep", "--model", str(self.run_dir), "--taus", self.taus]
        return [("sweep", lambda: cli_call(cli, argv)),
                ("sweep-trim", lambda: cli_call(cli, argv + ["--trim"]))]

    def check(self, op, output) -> None:
        expect(json.loads(output) == self.expected[op], f"{op} rows differ from the reference")


class VerifyOracle(Workload):
    """The brute-force verification sweeps at k=3/4: scalar, one-point-per-call
    use of links and lovasz, loss tables, the face oracle and multiclass."""

    name = "verify-oracle"
    # Case counts are those of the seed commit; None leaves a count unpinned.
    sizes = {
        "full": {"calib_m": 4, "calib_cases": (26_040, 34_080), "envelope_points": 1000,
                 "block_k": 3, "block_cases": 62_208, "trim_points": 1000},
        "tiny": {"calib_m": 2, "calib_cases": (None, None), "envelope_points": 50,
                 "block_k": 1, "block_cases": None, "trim_points": 50},
    }
    verify_cases = {"embedding": 6651, "representative": 6435, "tightness": 77_235}
    collections = {"sqrt3": {"kind": "concave_card", "k": 3, "exponent": 0.5},
                   "jaccard3": {"kind": "jaccard", "k": 3},
                   "zero_one3": {"kind": "zero_one", "k": 3},
                   "jaccard4": {"kind": "jaccard", "k": 4}}

    def setup(self, m) -> None:
        super().setup(m)
        self.work.mkdir(parents=True, exist_ok=True)
        self.paths = {}
        for key, obj in self.collections.items():
            self.paths[key] = str(self.work / f"{key}.json")
            Path(self.paths[key]).write_text(json.dumps(obj))
        self.sqrt3 = m.setfn.make_sqrt_card(3)
        self.jaccard3 = m.setfn.make_jaccard(3)
        rng = np.random.default_rng(self.seed)
        n = self.size["envelope_points"]
        corners = np.array(np.meshgrid(*[[-1.0, 0.0, 1.0]] * 4)).reshape(4, -1).T
        self.points = np.vstack([rng.uniform(-1.5, 1.5, (max(n - len(corners), 1), 4)), corners])[:n]
        self.codec = m.multiclass.BlockCodec(4)
        k = self.size["block_k"]
        self.costs = m.multiclass.ClassCosts.from_setfn(m.setfn.make_sqrt_card(k))
        self.trim_points = rng.uniform(-1.0, 1.0, (self.size["trim_points"], 2 * 3))
        self.trim_cfg = m.links.LinkConfig(epsilon=1.0 / 12, tau=0.5)
        # the lazy face tables and report lookups, as a first call would fill them
        m.links.envelope_members_gap(self.points[:1], 1.0 / 8)
        m.links.envelope_members_oracle(self.points[:1], 1.0 / 8)

    def reference(self) -> None:
        """Trimmed reports rebuilt from the plain link, block by block."""
        links, mc = self.m.links, self.m.multiclass
        d = self.codec.d
        self.expected_trim = []
        for u in self.trim_points:
            v = links.threshold_abstain_link(u, self.trim_cfg)
            entries = []
            for i in range(len(u) // d):
                if (v.zeros >> (i * d)) & ((1 << d) - 1):
                    entries.append(mc.ABSTAIN)
                else:
                    entries.append(self.codec.decode_bits((v.pos >> (i * d)) & ((1 << d) - 1)))
            self.expected_trim.append(tuple(entries))

    def operations(self):
        m, p, s = self.m, self.paths, self.size
        ops = []
        for what, keys in (("embedding", ("sqrt3", "jaccard3")),
                           ("representative", ("sqrt3", "jaccard3")),
                           ("tightness", ("sqrt3",))):
            for key in keys:
                argv = ["verify", what, "--collection", p[key], "--grid", "8"]
                ops.append((f"verify-{what}-{key}", lambda argv=argv: cli_call(m.cli, argv)))
        ops.append(("counterexample-zero_one3", lambda: cli_call(
            m.cli, ["counterexample", "--collection", p["zero_one3"], "--symmetric"])))
        ops.append(("counterexample-jaccard4", lambda: cli_call(
            m.cli, ["counterexample", "--collection", p["jaccard4"]])))
        for i, fc in enumerate((self.sqrt3, self.jaccard3)):
            ops.append((f"calibration-{i}", lambda fc=fc, i=i: m.oracle.calibration_sweep(
                fc, grid_m=s["calib_m"], taus=(0.0, 0.5, 1.0), n_perturb=20,
                rng=np.random.default_rng([self.seed, i]))))
        ops.append(("envelope-k4", lambda: (m.links.envelope_members_gap(self.points, 1.0 / 8),
                                            m.links.envelope_members_oracle(self.points, 1.0 / 8))))
        ops.append(("block-domination", lambda: m.multiclass.verify_block_domination(
            self.costs, self.codec, s["block_k"])))
        ops.append(("trimmed-link", lambda: [m.multiclass.trimmed_link(u, self.trim_cfg, self.codec)
                                             for u in self.trim_points]))
        return ops

    def check(self, op, output) -> None:
        if op.startswith("verify-"):
            rep = json.loads(output)
            what = op.split("-")[1]
            expect(rep["passed"], f"{op} did not pass: {rep['witness']}")
            expect(rep["cases"] == self.verify_cases[what],
                   f"{op} checked {rep['cases']} cases, not {self.verify_cases[what]}")
        elif op == "counterexample-zero_one3":
            rep = json.loads(output)
            expect(not rep["consistent_case"], "zero-one k=3 reported as consistent")
            expect(abs(rep["epsilon"] - 3 / 14) <= 1e-12, f"eps {rep['epsilon']!r} is not 3/14")
        elif op == "counterexample-jaccard4":
            rep = json.loads(output)
            expect(rep["mode"] in ("direct", "flipped", "sequence"), f"unknown mode {rep['mode']}")
            expect(rep["v_opt"] == "0000", f"optimal report {rep['v_opt']} is not all-abstain")
        elif op.startswith("calibration-"):
            want = self.size["calib_cases"][int(op[-1])]
            expect(output.passed, f"{op} found a violation: {output.witness}")
            expect(want is None or output.cases == want, f"{op} checked {output.cases} cases, not {want}")
        elif op == "envelope-k4":
            gap, face = output
            expect(gap.shape == face.shape and bool((gap == face).all()),
                   "gap and face envelope routes differ")
        elif op == "block-domination":
            want = self.size["block_cases"]
            expect(output.passed, f"block domination failed: {output.witness}")
            expect(want is None or output.cases == want, f"block domination checked {output.cases}, not {want}")
        elif op == "trimmed-link":
            got = [v.entries for v in output]
            expect(got == self.expected_trim, "trimmed link differs from the blockwise plain link")
        else:
            raise CheckFailed(f"no check for {op}")


WORKLOADS = {w.name: w for w in (TrainChain, TrainWide, SweepLink, VerifyOracle)}
