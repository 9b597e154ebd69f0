"""Benchmark of the lovasz_abstain package: one workload, timed end to end.

    python3 perfbench/run.py --workload train-chain --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ./src. Passes
of the workload run back to back until their timed total reaches --seconds;
each pass's outputs are checked outside the timed region. Seven or more
set-ups, each importing the package afresh, are spread evenly between the
passes and setup_s is their median. The last line of stdout is one JSON
object: with --trace 0 the end-to-end metrics, with --trace 1 the per-layer
metrics of traced passes, preceded by untraced passes that give the tracing
overhead. The lines above it are a readable table of the same figures. See
perfbench/README.md.
"""

from __future__ import annotations

import os

# BLAS pinned to one thread before numpy loads: the box has two cores and a
# second BLAS thread would compete with the Python thread for them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402  (imported before set-up: a dependency, not the program)

from tracer import LAYERS, PACKAGE, Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = (7, 25)  # set-ups per run: at least 7, more while they are cheap,
SETUP_BUDGET_S = 1.5     # up to about this much set-up time in all
UNTRACED_SHARE = 1 / 3  # share of a traced run spent on untraced passes, for the overhead


def blas_threads() -> str:
    """Thread count the bundled OpenBLAS reports, or 'unknown'."""
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "libscipy_openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(lib, sym):
                return str(getattr(lib, sym)())
    return "unknown"


def import_package() -> SimpleNamespace:
    """Import the package afresh: its modules run again and its caches start empty."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(PACKAGE)
    return SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS})


def quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


class Runner:
    def __init__(self, wl, tracer: Tracer | None = None):
        self.wl = wl
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def one_pass(self, traced: bool) -> float:
        """Run every operation once; returns the time spent inside them."""
        if traced:
            self.tracer.begin_pass()
        elapsed = 0.0
        outputs = []
        for op, call in self.wl.operations():
            t0 = time.perf_counter()
            try:
                out = call()
            except Exception as exc:  # a failed operation is counted; the run goes on
                elapsed += time.perf_counter() - t0
                outputs.append((op, exc))
                continue
            elapsed += time.perf_counter() - t0
            outputs.append((op, out))
        if traced:
            self.tracer.end_pass({"serialize.bytes_written": float(self.wl.bytes_written())})
        for op, out in outputs:
            self.attempted += 1
            try:
                if isinstance(out, Exception):
                    raise CheckFailed(f"raised {type(out).__name__}: {out}")
                self.wl.check(op, out)
            except CheckFailed as exc:
                self.failed += 1
                if len(self.failures) < 10:
                    self.failures.append(f"{op}: {exc}")
        return elapsed

    def passes(self, seconds: float, traced: bool, between=None) -> list[float]:
        """Passes until their timed total reaches seconds (at least one);
        between(total so far) runs after each pass, outside the timing."""
        times = []
        while not times or sum(times) < seconds:
            times.append(self.one_pass(traced))
            if between is not None:
                between(sum(times))
        return times


def measure(args) -> tuple[dict, list[str]]:
    scale = "tiny" if args.tiny else "full"
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    wl = WORKLOADS[args.workload](work, args.seed, scale)

    def timed_setup() -> float:
        shutil.rmtree(work, ignore_errors=True)
        t0 = time.perf_counter()
        wl.setup(import_package())
        return time.perf_counter() - t0

    setup_times = [timed_setup()]
    try:
        wl.reference()
    except CheckFailed as exc:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}, [f"reference: {exc}"]
    runner = Runner(wl)
    lines = [f"workload {wl.name}  seed {args.seed}  scale {scale}  seconds {args.seconds:g}  "
             f"trace {args.trace}  BLAS threads {blas_threads()} (OPENBLAS_NUM_THREADS="
             f"{os.environ['OPENBLAS_NUM_THREADS']})"]
    if not args.trace:
        # The set-ups are spread evenly between the passes, so their median
        # samples the same stretch of machine time as the passes do.
        least, most = SETUP_REPEATS
        repeats = 1 if args.tiny else max(least, min(most, int(SETUP_BUDGET_S / setup_times[0])))

        def interleave(done: float) -> None:
            if len(setup_times) < repeats and done >= len(setup_times) * args.seconds / repeats:
                setup_times.append(timed_setup())

        times = runner.passes(args.seconds, traced=False, between=interleave)
        while len(setup_times) < repeats:
            setup_times.append(timed_setup())
        metrics = {
            "run_p90_s": (quantile(times, 0.9), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
        lines.append(f"passes {len(times)}: median {statistics.median(times):.6g} s, "
                     f"fastest {min(times):.6g} s, slowest {max(times):.6g} s; set-ups {len(setup_times)}")
        for name, (value, unit) in metrics.items():
            lines.append(f"  {name:<28} {value:>14.6g} {unit}")
    else:
        plain = runner.passes(args.seconds * UNTRACED_SHARE, traced=False)
        tracer = runner.tracer = Tracer()
        tracer.install()
        traced = runner.passes(args.seconds * (1 - UNTRACED_SHARE), traced=True)
        untraced_s, traced_s = quantile(plain, 0.9), quantile(traced, 0.9)
        rows = tracer.passes
        metrics = {}
        for key in rows[0]:
            metrics[key] = (statistics.median(r[key] for r in rows), unit_of(key))
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
        metrics["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "ratio")
        lines.append(f"untraced passes {len(plain)} (p90 {untraced_s:.6g} s), "
                     f"traced passes {len(traced)} (p90 {traced_s:.6g} s)")
        lines.append(f"  {'layer':<12}{'calls/pass':>14}{'self s/pass':>14}{'share':>8}")
        total = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS) or 1.0
        for layer in LAYERS:
            own = metrics[f"{layer}.self_s"][0]
            lines.append(f"  {layer:<12}{metrics[f'{layer}.calls'][0]:>14.0f}{own:>14.6g}"
                         f"{100 * own / total:>7.1f}%")
        for name, (value, unit) in metrics.items():
            if not name.endswith((".calls", ".self_s")):
                lines.append(f"  {name:<32} {value:>14.6g} {unit}")
        trace_path = ROOT / ".perfbench_work" / f"trace-{wl.name}-seed{args.seed}.jsonl"
        tracer.write_jsonl(trace_path)
        lines.append(f"spans written to {trace_path.relative_to(ROOT)}")
    for key, value in wl.summary().items():
        lines.append(f"  {key:<28} {value!r}")
    error_rate = runner.failed / max(runner.attempted, 1)
    lines.append(f"operations {runner.attempted}, failed {runner.failed}, error_rate {error_rate:g}")
    lines.extend(f"FAILED {f}" for f in runner.failures)
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, lines


def unit_of(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_bytes") or key.endswith("bytes_written"):
        return "bytes"
    if key.endswith(("_frac", "_ratio")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="self-test sizes, one set-up")
    args = p.parse_args(argv)
    if not (ROOT / "src" / PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no {PACKAGE} package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        result, lines = measure(args)
    finally:
        shutil.rmtree(ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}", ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
