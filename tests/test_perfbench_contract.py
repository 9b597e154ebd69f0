"""The package names the benchmark in perfbench/ reads from outside still resolve.

perfbench/tracer.py wraps the layer modules by name and perfbench/workloads.py
calls a few helpers directly; a rename in the package would only show up as a
failed benchmark run. This test reads the tracer's constants and installs
nothing.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from lovasz_abstain import links, lovasz, targets

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_caches_exist(tracer):
    for name in tracer.CACHES:
        assert hasattr(getattr(links, name), "cache_info"), name


def test_extra_traced_names_resolve(tracer):
    for layer, dotted in tracer.EXTRA:
        obj = importlib.import_module(f"{tracer.PACKAGE}.{layer}")
        for attr in dotted.split("."):
            obj = getattr(obj, attr)
        assert callable(obj), f"{layer}.{dotted}"


def test_helpers_read_by_the_workloads_resolve():
    assert callable(lovasz._label_vec)
    assert callable(targets.report_index)


def test_no_untracked_public_generator(tracer):
    """The tracer raises KeyError on a public generator it has no counter for."""
    for layer in tracer.LAYERS:
        mod = importlib.import_module(f"{tracer.PACKAGE}.{layer}")
        for name, obj in vars(mod).items():
            stage = f"{layer}.{name}"
            if (inspect.isgeneratorfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_") and stage not in tracer.UNTRACED):
                assert stage in tracer.GENERATOR_COUNTS, stage
