"""Every name a treelab module exports in `__all__` must resolve, so a
deleted or renamed definition fails here rather than at `import *`."""

import importlib
import pkgutil

import pytest

import treelab

# __main__ runs the CLI on import
MODULES = sorted(
    info.name for info in pkgutil.iter_modules(treelab.__path__)
    if info.name != "__main__"
)


def test_the_modules_are_found():
    assert {"checks", "cli", "operators", "trees"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"treelab.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []
