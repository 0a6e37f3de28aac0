"""What a fresh interpreter loads when it imports or runs dmig.

dmig imports no scipy: importing the package and evaluating any dataset,
continuous pairs included and with --workers, load no scipy module. Each
test starts its own interpreter, since this one has scipy loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dmig import SyntheticSpec, gen_discrete_joint, write_dataset
from test_golden import DATASETS, GOLDEN, PMF

SRC = Path(__file__).resolve().parent.parent / "src"


def scipy_modules_after(code: str) -> list[str]:
    """Run code in a fresh interpreter; return the scipy modules it loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code + probe],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def eval_code(*argv) -> str:
    return f"import dmig.cli\nassert dmig.cli.main({['eval', *map(str, argv)]!r}) == 0"


def test_import_loads_no_scipy():
    assert scipy_modules_after("import dmig, dmig.cli") == []


def test_all_discrete_eval_loads_no_scipy(tmp_path):
    spec = SyntheticSpec(family="discrete_joint", n=600, seed=1, pmf=PMF, d_total=2)
    path = tmp_path / "codes.csv"
    write_dataset(gen_discrete_joint(spec)[0], path)
    assert scipy_modules_after(eval_code(path)) == []


@pytest.mark.parametrize("workers", [1, 2])
def test_discrete_attribute_continuous_latent_eval_loads_no_scipy(tmp_path, workers):
    # Discrete attributes read through continuous latents: every cell is
    # plug-in or class-wise, and the report must still match its golden.
    path, out = tmp_path / "noisy_discrete.csv", tmp_path / "out.report"
    write_dataset(DATASETS["noisy_discrete"](), path)
    assert scipy_modules_after(eval_code(path, "--workers", workers, "--out", out)) == []
    assert out.read_bytes() == (GOLDEN / "noisy_discrete.report").read_bytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_continuous_eval_loads_no_scipy(tmp_path, workers):
    # Every pair is continuous x continuous, so every MI cell runs the KSG
    # k-th-neighbour search; the report must still match its golden.
    path, out = tmp_path / "continuous_m3.csv", tmp_path / "out.report"
    write_dataset(DATASETS["continuous_m3"](), path)
    assert scipy_modules_after(eval_code(path, "--workers", workers, "--out", out)) == []
    assert out.read_bytes() == (GOLDEN / "continuous_m3.report").read_bytes()
