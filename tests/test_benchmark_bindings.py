"""perfbench wraps treelab functions by name (perfbench/tracing.py) and
reads the dense-context counters; every name it uses must resolve, so a
rename fails here rather than in a later benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from treelab import checks, reps

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves(tracing):
    for module_name, attrs in tracing.TARGETS.items():
        module = importlib.import_module(f"treelab.{module_name}")
        for attr in attrs:
            owner, _, key = attr.rpartition(".")
            if owner:
                # a method is wrapped in its class's own namespace
                assert inspect.isfunction(vars(getattr(module, owner)).get(key)), attr
            else:
                assert inspect.isfunction(getattr(module, key, None)), attr


def test_every_traced_check_is_registered(tracing):
    assert tuple(name for name, _ in checks._CHECKS) == tracing.CHECKS


def test_dense_context_counters_are_readable():
    info = reps._dense_context.cache_info()
    assert isinstance(info.hits, int) and isinstance(info.misses, int)


@pytest.mark.parametrize("spec", ["star:4", "path:1"])
def test_every_registered_check_is_called_once_per_configuration(monkeypatch, spec):
    # perfbench counts one checks.<name> span per configuration: a rooted
    # check's one call hands out its per-origin runs
    calls = []

    def counted(name, fn):
        def call(ctx):
            calls.append(name)
            return fn(ctx)
        return call

    registry = [(name, counted(name, fn)) for name, fn in checks._CHECKS]
    monkeypatch.setattr(checks, "_CHECKS", registry)
    assert checks.run_check_suite(checks.SuiteConfig(spec)).aggregate_pass
    assert calls == [name for name, _ in checks._CHECKS]
