"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced, with --tiny and a
one-second budget, and checks that the last line of each run names every
metric of BENCHMARK.json with its unit, that the outputs were correct, and
that the benchmark refuses to run (non-zero exit, no result line) in a
directory holding only BENCHMARK.json and the benchmark's own files.
Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    argv = spec["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                              "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(workload: str, trace: int, spec: dict) -> list[str]:
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"{workload} trace={trace}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{workload} trace={trace}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{workload} trace={trace}: outputs not correct: {proc.stdout[-800:]}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    for m in wanted:
        if m["name"] not in got:
            problems.append(f"{workload} trace={trace}: metric {m['name']} missing")
        elif got[m["name"]]["unit"] != m["unit"]:
            problems.append(f"{workload} trace={trace}: {m['name']} has unit "
                            f"{got[m['name']]['unit']!r}, not {m['unit']!r}")
        elif not isinstance(got[m["name"]]["value"], (int, float)):
            problems.append(f"{workload} trace={trace}: {m['name']} is not a number")
    extra = set(got) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"{workload} trace={trace}: metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def check_without_program(spec: dict) -> list[str]:
    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in spec["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"without the program: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            found = check_run(w["name"], trace, spec)
            print(f"{w['name']:<16} trace={trace}: {'ok' if not found else 'FAIL'}")
            problems += found
    found = check_without_program(spec)
    print(f"{'without program':<16}        : {'ok' if not found else 'FAIL'}")
    problems += found
    for p in problems:
        print("  " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
