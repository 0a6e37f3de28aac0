"""`dmig eval` over a series in epoch processes, run through the entry point.

Run as its own program with several datasets and --workers N > 1, eval
forks one process per allowed CPU, up to N and the number of datasets;
each takes every n-th epoch. Its bytes, stdout, stderr and exit code
must equal the serial loop's. One dataset gets a pool of at most one
thread per allowed CPU. In-process `dmig.cli.main` stays serial.
Failures cross the pipe pickled, so every error class must survive a
pickle round trip. Each run is a fresh interpreter; subprocess.run
returns only after every holder of its pipes has exited, so a child left
running fails the run by its timeout.
"""

import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from dmig import Dataset, SampleColumn, errors, read_dataset, write_dataset
from dmig.cli import main
from test_golden import DATASETS
from test_startup import child_env

CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
needs_affinity = pytest.mark.skipif(not CPUS, reason="pins processes with sched_setaffinity")

# Runs `dmig eval` through the module entry, in this interpreter, with the
# given CPUs allowed, and counts os.fork calls. A forked child never
# returns here, so the parent prints its exit code, its fork count and
# whether an unreaped child is left, and the CPUs it may then use. patch
# may replace names first.
PROBE = """
import json, os, runpy, sys
import dmig.cli
if {cpus!r} is not None:
    os.sched_setaffinity(0, {cpus!r})
forks, fork, parent = [], os.fork, os.getpid()
os.fork = lambda: forks.append(1) or fork()
{patch}
sys.argv = {argv!r}
try:
    runpy.run_module("dmig", run_name="__main__")
except SystemExit as exc:
    code = exc.code
try:
    left = os.waitpid(-1, os.WNOHANG) != (0, 0)
except ChildProcessError:
    left = False
print(json.dumps([code, len(forks), left, sorted(os.sched_getaffinity(0))]), file=sys.stderr)
"""


def run_module(argv, cpus=None, patch=""):
    """`dmig eval argv` in a fresh interpreter: (exit code, forks, child left, stdout, stderr).

    The run must end with the CPUs it was given.
    """
    code = PROBE.format(cpus=cpus, argv=["dmig", "eval", *map(str, argv)], patch=patch)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True,
        timeout=120,
    )
    *err, last = proc.stderr.splitlines()
    exit_code, forks, left, after = json.loads(last)
    assert after == sorted(cpus or CPUS)
    return exit_code, forks, left, proc.stdout, "".join(line + "\n" for line in err)


def golden_series(tmp_path):
    paths = []
    for name, build in DATASETS.items():
        paths.append(tmp_path / f"{name}.csv")
        write_dataset(build(), paths[-1])
    return paths


def flat(path):
    """A dataset whose continuous attribute is constant: estimation fails, exit 1."""
    rng = np.random.default_rng(22)
    ds = Dataset(
        latents=rng.standard_normal((200, 2)),
        attributes=(SampleColumn(np.full(200, 0.5), kind="continuous"),),
    )
    write_dataset(ds, path)
    return path


@needs_affinity
def test_series_bytes_and_stdout_equal_the_serial_loop(tmp_path):
    paths = golden_series(tmp_path)
    out = tmp_path / "run.series"
    runs = {}
    for workers in (1, 2, 4):
        code, forks, left, stdout, stderr = run_module(
            [*paths, "--workers", workers, "--out", out]
        )
        assert (code, left, stderr) == (0, False, "")
        assert forks == min(workers, len(CPUS)) - 1
        runs[workers] = out.read_bytes(), stdout
        out.unlink()
    assert runs[2] == runs[1] and runs[4] == runs[1]
    assert runs[1][1].count("epoch ") == len(paths) >= 4


@needs_affinity
@pytest.mark.parametrize(
    "flat_at, missing_at",
    [(1, 3), (None, 3), (1, 2), (2, 1)],
    ids=["fail1-missing3", "missing3", "fail1-missing2", "fail2-missing1"],
)
def test_failure_of_the_lowest_epoch_is_reported(tmp_path, flat_at, missing_at):
    # With two processes the parent takes epochs 0, 2, 4 and the child 1, 3,
    # so each case puts a failure in one of them or in both.
    paths = golden_series(tmp_path)[:5]
    if flat_at is not None:
        paths[flat_at] = flat(tmp_path / "flat.csv")
    paths[missing_at] = tmp_path / "missing.csv"
    out = tmp_path / "run.series"
    serial = run_module([*paths, "--workers", 1, "--out", out])
    forked = run_module([*paths, "--workers", 2, "--out", out])
    assert forked[1] == min(2, len(CPUS)) - 1
    code, _, left, stdout, stderr = forked
    assert (code, left, stdout, stderr) == (serial[0], False, serial[3], serial[4])
    first = min(i for i in (flat_at, missing_at) if i is not None)
    assert code == (1 if first == flat_at else 2)
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
    assert ("missing.csv" in stderr) == (first == missing_at)
    assert not out.exists()


@needs_affinity
def test_one_allowed_cpu_takes_the_serial_path(tmp_path):
    paths = golden_series(tmp_path)[:4]
    out = tmp_path / "run.series"
    code, forks, left, _, stderr = run_module(
        [*paths, "--workers", 2, "--out", out], cpus={CPUS[0]}
    )
    assert (code, forks, left, stderr) == (0, 0, False, "")
    serial = out.read_bytes()
    assert run_module([*paths, "--workers", 1, "--out", out])[0] == 0
    assert out.read_bytes() == serial


@needs_affinity
def test_one_dataset_starts_at_most_one_pool_thread_per_allowed_cpu(tmp_path):
    # Each thread prints a line as it starts; --workers 8 is capped at the CPUs.
    patch = (
        "import threading\n"
        "start = threading.Thread.start\n"
        "threading.Thread.start = lambda self: print('thread', file=sys.stderr) or start(self)"
    )
    path = golden_series(tmp_path)[1]  # continuous_m3: 18 KSG and KL cells
    out = tmp_path / "one.report"
    code, _, _, stdout, stderr = run_module([path, "--workers", 1, "--out", out], patch=patch)
    assert (code, stderr) == (0, "")
    serial = out.read_bytes(), stdout
    for cpus in ({CPUS[0]}, set(CPUS)):
        out.unlink()
        code, forks, left, stdout, stderr = run_module(
            [path, "--workers", 8, "--out", out], cpus=cpus, patch=patch
        )
        assert (code, forks, left) == (0, 0, False)
        assert (out.read_bytes(), stdout) == serial
        assert stderr == "thread\n" * stderr.count("thread\n")
        assert stderr.count("thread\n") <= len(cpus)


@pytest.mark.skipif(len(CPUS) < 2, reason="forks only where two CPUs are allowed")
def test_a_child_that_dies_is_an_operational_error(tmp_path):
    # The child exits before it sends anything back.
    patch = (
        "share = dmig.cli._evaluate_share\n"
        "dmig.cli._evaluate_share = lambda *a: share(*a) if os.getpid() == parent else os._exit(3)"
    )
    paths = golden_series(tmp_path)[:4]
    out = tmp_path / "run.series"
    code, forks, left, stdout, stderr = run_module(
        [*paths, "--workers", 2, "--out", out], patch=patch
    )
    assert (code, forks, left, stdout) == (2, 1, False, "")
    assert stderr == "error: an epoch worker exited with code 3\n"
    assert not out.exists()


@pytest.mark.skipif(len(CPUS) < 2, reason="forks only where two CPUs are allowed")
def test_a_fork_that_fails_is_an_operational_error(tmp_path):
    patch = "def fork():\n    raise BlockingIOError(11, 'Resource temporarily unavailable')\nos.fork = fork"
    paths = golden_series(tmp_path)[:4]
    out = tmp_path / "run.series"
    code, _, left, stdout, stderr = run_module([*paths, "--workers", 2, "--out", out], patch=patch)
    assert (code, left, stdout) == (2, False, "")
    assert stderr == "error: [Errno 11] Resource temporarily unavailable\n"
    assert not out.exists()


def test_in_process_main_never_forks(tmp_path, monkeypatch):
    paths = golden_series(tmp_path)[:3]

    def refuse():
        raise AssertionError("in-process eval forked")

    monkeypatch.setattr(os, "fork", refuse)
    assert main(["eval", *map(str, paths), "--workers", "2", "--out", str(tmp_path / "s")]) == 0


@pytest.mark.parametrize("name", errors.__all__)
def test_every_error_survives_a_pickle_round_trip(name):
    cls = getattr(errors, name)
    exc = pickle.loads(pickle.dumps(cls(f"{name} message")))
    assert type(exc) is cls and str(exc) == f"{name} message"


def test_error_attributes_survive_a_pickle_round_trip(tmp_path):
    exc = pickle.loads(pickle.dumps(errors.ZeroEntropyAttributeError("zero", attribute_index=2)))
    assert (str(exc), exc.attribute_index) == ("zero", 2)
    with pytest.raises(FileNotFoundError) as raised:
        read_dataset(tmp_path / "missing.csv")
    exc = pickle.loads(pickle.dumps(raised.value))
    assert type(exc) is FileNotFoundError
    assert (exc.filename, str(exc)) == (raised.value.filename, str(raised.value))
