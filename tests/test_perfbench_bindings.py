"""The benchmark's tracer must still fit the package.

The traced benchmark pass (`perfbench/run.py --trace 1`) wraps package
functions by module and attribute name, and subclasses the kd-tree class
that `dmig.estimation` binds. A rename in the package would break that
pass without failing any other test, and a change to how those calls
are made can break the spans or the bytes of a traced run.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


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


def test_selfcheck_finds_no_problems():
    # On tiny inputs of every workload: a traced `dmig eval` writes the same
    # bytes as an untraced one, its spans nest, and uninstalling restores
    # every rebound name.
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "selfcheck.py")],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selfcheck: 0 problems" in done.stdout
