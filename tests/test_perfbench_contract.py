"""The package names the benchmark in perfbench/ reads from outside still resolve.

perfbench/tracer.py wraps the layer modules by name and perfbench/workloads.py
calls a few helpers directly; a rename in the package would only show up as a
failed benchmark run. These tests read the tracer's constants and the
workloads' source, and install nothing. Two run the workloads at their
self-test size in a subprocess, every workload untraced and verify-oracle
traced as well, and read the verdict.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lovasz_abstain import links, lovasz

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
WORKLOADS = TRACER.parent / "workloads.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_caches_exist(tracer):
    for name in tracer.CACHES:
        assert hasattr(getattr(links, name), "cache_info"), name


def test_every_traced_cache_is_read_by_the_envelope_routes(tracer):
    """links.cache_hit_ratio sums the lookups of the CACHES; the verify-oracle
    envelope-k4 operation's two calls, run from cold caches, look up each one,
    so none of them is a cache that no pass reads."""
    caches = {name: getattr(links, name) for name in tracer.CACHES}
    for cache in caches.values():
        cache.cache_clear()
    us = np.random.default_rng(0).uniform(-1.5, 1.5, (50, 4))
    links.envelope_members_gap(us, 1.0 / 8)
    links.envelope_members_oracle(us, 1.0 / 8)
    for name, cache in caches.items():
        info = cache.cache_info()
        assert info.hits + info.misses > 0, name


def test_extra_traced_names_resolve(tracer):
    for layer, dotted in tracer.EXTRA:
        obj = importlib.import_module(f"{tracer.PACKAGE}.{layer}")
        for attr in dotted.split("."):
            obj = getattr(obj, attr)
        assert callable(obj), f"{layer}.{dotted}"


def _dotted(node) -> list[str]:
    """["a", "b", "c"] for the expression a.b.c, or [] when it is not a plain dotted name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else []


def _layer_of(parts: list[str]) -> tuple[str, list[str]] | None:
    """(layer, names read from it) of m.<layer>... or self.m.<layer>..., else None."""
    if parts[:1] == ["self"]:
        parts = parts[1:]
    return (parts[1], parts[2:]) if len(parts) >= 2 and parts[0] == "m" else None


def _package_references(tree) -> set[tuple[str, tuple[str, ...]]]:
    """Every (layer, names) the workloads read from the package: m.<layer>.<name>...
    chains, and <alias>.<name>... where the alias was assigned from m.<layer>."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            lhs = [t for target in node.targets for t in (target.elts if isinstance(target, ast.Tuple) else [target])]
            rhs = node.value.elts if isinstance(node.value, ast.Tuple) else [node.value]
            for target, value in zip(lhs, rhs):
                found = _layer_of(_dotted(value))
                if isinstance(target, ast.Name) and found and not found[1]:
                    aliases[target.id] = found[0]
    refs = set()
    for node in ast.walk(tree):
        parts = _dotted(node) if isinstance(node, ast.Attribute) else []
        found = _layer_of(parts) if parts else None
        if found and found[1]:
            refs.add((found[0], tuple(found[1])))
        elif parts and parts[0] in aliases:
            refs.add((aliases[parts[0]], tuple(parts[1:])))
    return refs


def test_helpers_read_by_the_workloads_resolve():
    assert callable(lovasz._label_vec)  # read by the tracer's active-coordinate counter
    refs = _package_references(ast.parse(WORKLOADS.read_text()))
    assert {("targets", ("report_index",)), ("bench", ("synth_data",)),
            ("oracle", ("calibration_sweep",)), ("cli", ("main",))} <= refs
    for layer, names in sorted(refs):
        obj = importlib.import_module(f"lovasz_abstain.{layer}")
        for name in names:
            assert hasattr(obj, name), f"perfbench/workloads.py reads {layer}.{'.'.join(names)}"
            obj = getattr(obj, name)


def test_no_untracked_public_generator(tracer):
    """The tracer raises KeyError on a public generator it has no counter for."""
    for layer in tracer.LAYERS:
        mod = importlib.import_module(f"{tracer.PACKAGE}.{layer}")
        for name, obj in vars(mod).items():
            stage = f"{layer}.{name}"
            if (inspect.isgeneratorfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_") and stage not in tracer.UNTRACED):
                assert stage in tracer.GENERATOR_COUNTS, stage


def _tiny_run(workload: str, trace: str) -> dict:
    """The benchmark's own run of workload at its self-test size, as the benchmark invokes it."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--tiny", "--seconds", "1", "--trace", trace]
    done = subprocess.run(argv, cwd=TRACER.parent.parent, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_verify_oracle_run_is_correct(trace):
    """Every operation's output check passes and none fails, with the tracer's hooks on or off."""
    result = _tiny_run("verify-oracle", trace)
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0


@pytest.mark.parametrize("workload", ["train-chain", "train-wide", "sweep-link"])
def test_tiny_run_of_the_other_workloads_is_correct(workload):
    """The trainer and sweep workloads' output checks pass untraced as well."""
    result = _tiny_run(workload, "0")
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
