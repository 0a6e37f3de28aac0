"""What a fresh interpreter loads when it imports or runs dmig.

dmig imports no scipy: importing the package and evaluating any dataset,
continuous pairs included and with --workers, load no scipy module.
Importing the package loads no numpy and leaves the environment alone;
the CLI entry runs numpy's BLAS on one thread unless the caller set a
thread count, and forks its epoch processes without multiprocessing. A
run that evaluates with one worker, as each epoch process does, loads no
thread pool. Only the CLI entry freezes the import heap for the
collector; an in-process call of the CLI's main freezes nothing.
Each test starts its own interpreter, since this one has scipy and numpy
loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dmig import SyntheticSpec, gen_discrete_joint, write_dataset
from test_golden import DATASETS, GOLDEN, PMF

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(**preset: str) -> dict[str, str]:
    """This environment with src on the path, no BLAS thread count, then `preset`."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return {**env, **preset}


def run_child(argv: list[str], **preset: str) -> str:
    """Run a fresh interpreter to exit 0; return the last line it printed."""
    proc = subprocess.run(
        [sys.executable, *argv], env=child_env(**preset), capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return (proc.stdout.splitlines() or [""])[-1]


def scipy_modules_after(code: str) -> list[str]:
    """Run code in a fresh interpreter; return the scipy modules it loaded."""
    probe = (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')))"
    )
    return json.loads(run_child(["-c", code + probe]))


def module_run(argv: list, probe: str, **preset: str) -> str:
    """Run `python -m dmig *argv` to exit 0 in a fresh interpreter, then probe.

    Returns the last line that probe printed; probe may use json and sys.
    """
    code = (
        "import json, runpy, sys\n"
        f"sys.argv = {['dmig', *map(str, argv)]!r}\n"
        "try:\n"
        "    runpy.run_module('dmig', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
    )
    return run_child(["-c", code + probe], **preset)


def write_golden_datasets(tmp_path: Path, *names: str) -> list[str]:
    paths = [str(tmp_path / f"{name}.csv") for name in names]
    for name, path in zip(names, paths):
        write_dataset(DATASETS[name](), path)
    return paths


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


def test_series_eval_through_the_entry_point_loads_no_process_pool(tmp_path):
    # Epoch processes are plain forks: no multiprocessing machinery loads.
    paths = write_golden_datasets(tmp_path, "discrete", "noisy_discrete", "sentinel")
    probe = (
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.partition('.')[0] == 'multiprocessing'\n"
        "                        or m == 'concurrent.futures.process')))"
    )
    argv = ["eval", *paths, "--workers", 2, "--out", tmp_path / "run.series"]
    assert json.loads(module_run(argv, probe)) == []


@pytest.mark.parametrize(
    "names, workers",
    [
        pytest.param(("noisy_discrete",), 1, id="dataset"),
        pytest.param(
            ("discrete", "noisy_discrete", "sentinel"), 2, id="series",
            marks=pytest.mark.skipif(
                len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2,
                reason="a series goes to epoch processes only where two CPUs are allowed",
            ),
        ),
    ],
)
def test_module_run_loads_no_thread_pool(tmp_path, names, workers):
    # Only mi_profile's --workers > 1 branch starts a thread pool. A
    # series goes to epoch processes, each of which evaluates with one
    # worker.
    paths = write_golden_datasets(tmp_path, *names)
    probe = "print(json.dumps(sorted(m for m in sys.modules if m.partition('.')[0] == 'concurrent')))"
    argv = ["eval", *paths, "--workers", workers, "--out", tmp_path / "out"]
    assert json.loads(module_run(argv, probe)) == []


def test_import_loads_no_numpy_and_leaves_environment():
    code = (
        "import json, os, sys\n"
        "before = dict(os.environ)\n"
        "import dmig\n"
        "print(json.dumps([sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy'),"
        " dict(os.environ) == before]))"
    )
    assert json.loads(run_child(["-c", code])) == [[], True]


def test_dir_lists_every_public_name():
    # dir() is the first use of the package here, so it binds the names.
    code = "import json, dmig\nnames = dir(dmig)\nprint(json.dumps([names, dmig.__all__]))"
    names, public = json.loads(run_child(["-c", code]))
    assert public and set(public) <= set(names)
    assert names == sorted(names)


def test_module_run_freezes_the_import_heap(tmp_path):
    # dmig's own process freezes what importing numpy and dmig made, so
    # the collector skips it, and the collector stays on.
    paths = write_golden_datasets(tmp_path, "noisy_discrete")
    probe = "import gc\nprint(json.dumps([gc.isenabled(), gc.get_freeze_count()]))"
    enabled, frozen = json.loads(module_run(["eval", *paths, "--out", tmp_path / "out"], probe))
    assert enabled and frozen > 0


def test_in_process_main_freezes_nothing(tmp_path):
    paths = write_golden_datasets(tmp_path, "noisy_discrete")
    code = eval_code(*paths, "--out", tmp_path / "out") + "\nimport gc\nprint(gc.get_freeze_count())"
    assert run_child(["-c", code]) == "0"


def test_module_run_writes_golden_bytes(tmp_path):
    path, out = tmp_path / "noisy_discrete.csv", tmp_path / "out.report"
    write_dataset(DATASETS["noisy_discrete"](), path)
    run_child(["-m", "dmig", "eval", str(path), "--out", str(out)])
    assert out.read_bytes() == (GOLDEN / "noisy_discrete.report").read_bytes()


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or not Path("/proc/self/status").is_file(),
    reason="reads the thread count from Linux's /proc",
)
@pytest.mark.skipif(
    hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) < 2,
    reason="on one CPU OpenBLAS starts no worker thread whatever the setting",
)
@pytest.mark.parametrize("preset, threads", [({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2)])
def test_module_run_keeps_blas_on_one_thread_unless_set(tmp_path, preset, threads):
    path, out = tmp_path / "noisy_discrete.csv", tmp_path / "out.report"
    write_dataset(DATASETS["noisy_discrete"](), path)
    probe = (
        "with open('/proc/self/status') as f:\n"
        "    print(next(line.split()[1] for line in f if line.startswith('Threads:')))"
    )
    argv = ["eval", path, "--workers", 1, "--out", out]
    assert int(module_run(argv, probe, **preset)) == threads
    assert out.read_bytes() == (GOLDEN / "noisy_discrete.report").read_bytes()


def test_script_is_the_function_the_module_runs():
    pytest.importorskip("tomllib")
    code = (
        "import importlib, json, runpy, sys, tomllib\n"
        "import dmig.cli\n"
        "calls = []\n"
        "dmig.cli.main = lambda argv=None: calls.append(sys.argv[1:]) or 0\n"
        "sys.argv = ['dmig', 'eval', 'x.csv']\n"
        "try:\n"
        "    runpy.run_module('dmig', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    calls.append(exc.code)\n"
        f"with open({str(ROOT / 'pyproject.toml')!r}, 'rb') as f:\n"
        "    target = tomllib.load(f)['project']['scripts']['dmig']\n"
        "module, _, attr = target.partition(':')\n"
        "entry = getattr(importlib.import_module(module), attr)\n"
        "import dmig.__main__\n"
        "calls.append([entry is dmig.__main__.main, entry()])\n"
        "print(json.dumps(calls))"
    )
    assert json.loads(run_child(["-c", code])) == [["eval", "x.csv"], 0, ["eval", "x.csv"], [True, 0]]
