"""dmig makes no floating-point BLAS call.

The CLI runs numpy's BLAS on one thread (see dmig.__main__), which costs
nothing only while no estimate goes through BLAS; a threaded kernel would
also make values depend on the BLAS build. Every golden dataset is
evaluated with numpy's BLAS-backed products wrapped to raise on a
floating-point operand, and a scan of the source finds no `@`, no
numpy.linalg and no product called other than through `np`, which the
wrappers cannot see.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from dmig import evaluate, write_report
from test_golden import CFG, DATASETS, GOLDEN

SRC = Path(__file__).resolve().parent.parent / "src" / "dmig"
PRODUCTS = ("dot", "matmul", "inner", "vdot", "tensordot", "einsum")


def _refusing_floats(name, func):
    def guarded(*args, **kwargs):
        for a in args:
            if not isinstance(a, str) and np.asarray(a).dtype.kind in "fc":
                raise AssertionError(f"numpy.{name} called on a {np.asarray(a).dtype} operand")
        return func(*args, **kwargs)

    return guarded


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(DATASETS))
def test_golden_evaluation_makes_no_float_blas_call(name, workers, tmp_path, monkeypatch):
    for product in PRODUCTS:
        monkeypatch.setattr(np, product, _refusing_floats(product, getattr(np, product)))
    out = tmp_path / f"{name}.report"
    write_report(evaluate(DATASETS[name](), CFG, workers=workers), out)
    assert out.read_bytes() == (GOLDEN / f"{name}.report").read_bytes()


def test_no_matmul_operator_or_linalg_in_source():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{path.name}:{node.lineno}: @")
            elif isinstance(node, ast.Attribute) and node.attr == "linalg":
                found.append(f"{path.name}:{node.lineno}: .linalg")
            elif (isinstance(node, ast.Attribute) and node.attr in PRODUCTS
                  and not (isinstance(node.value, ast.Name) and node.value.id == "np")):
                found.append(f"{path.name}:{node.lineno}: .{node.attr} not through np")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
                if any("linalg" in n or n in PRODUCTS for n in names):
                    found.append(f"{path.name}:{node.lineno}: import of {names}")
    assert found == []
