"""The names that perfbench/tracer.py rebinds must exist in the package.

The traced benchmark pass (`perfbench/run.py --trace 1`) wraps package
functions by module and attribute name, and subclasses the kd-tree class
that `dmig.estimation` binds. A rename in the package would break that
pass without failing any other test.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture
def tracer(monkeypatch):
    # Load the file without writing a bytecode cache next to it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_rebound_names_exist(tracer):
    assert tracer.TARGETS
    for mod_name, attr, _, _ in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(mod_name), attr))
    assert callable(importlib.import_module("dmig.estimation").cKDTree.query)
