"""Benchmark of `dmig eval`, end to end (--trace 0) or per layer (--trace 1).

    python3 perfbench/run.py --workload cont_pair --seed 7 --seconds 38 --trace 0

Run from the root of a checkout. Inputs are generated from --seed under
.perfbench_work/ and removed at exit.

--trace 0 is a closed loop with one client: it runs `python -m dmig eval`
as a child process, one at a time, until the ops have taken --seconds
(at least MIN_OPS of them). A fixed reference job runs on every CPU
before and after each op. The run reports the median of op wall time
over the mean reference wall time on the op's CPUs, the largest child
peak RSS and the median set-up time. The median raw op wall time goes on
the record line.

--trace 1 calls the same CLI entry point in-process, alternating an
untraced op with one whose layer calls are wrapped by tracer.py, and
reports the per-layer spans and counters of the traced ops.

Every op's output is checked: exit 0, parses with the package readers,
bytes identical across the run, denominators within ABS_ERR_TOL of the
closed form, and DMIG = 1 on exact-copy discrete codes. The last stdout
line is one JSON object; the line before it records the environment and
the figures that are not benchmark metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_OPS = 3
SETUP_REPS = 8
STARTUP_REPS = 3
OP_TIMEOUT_S = 150.0

# The reference job: a fresh interpreter doing the kinds of work an op
# does (imports, text parsing, kd-tree queries) on fixed inputs, with no
# `dmig` in it. The host's CPUs change speed by a fifth or more over tens
# of seconds, each CPU on its own. One reference job runs on each CPU
# before and after every op; the op's wall time over the mean time of
# those on the CPUs the op ran on cancels most of that drift, and no
# change to the program moves it.
REFERENCE_JOB = r"""
import io

import numpy as np
import scipy.stats  # noqa: F401  (dmig imports it for rankdata)
from scipy.spatial import cKDTree

rng = np.random.default_rng(20211012)
points = rng.standard_normal((20_000, 2))
text = "\n".join(",".join(f"{v:.17g}" for v in row) for row in rng.standard_normal((30_000, 4)))
tree = cKDTree(points)
tree.query_ball_point(points, 0.1, return_length=True)
tree.query(points, k=4)
np.loadtxt(io.StringIO(text), delimiter=",")
"""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _spawn(argv: list[str], log: Path) -> tuple[int, float, float]:
    """Run a child python to exit; return (exit code, wall s, peak RSS MB)."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, env=_child_env(),
            stdout=out, stderr=subprocess.STDOUT,
        )
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _cpu_sets(workers: int) -> list[set[int]]:
    """Disjoint sets of `workers` CPUs to pin successive ops to."""
    cpus = sorted(os.sched_getaffinity(0))
    if workers >= len(cpus):
        return [set(cpus)]
    return [set(cpus[i:i + workers]) for i in range(0, len(cpus) - workers + 1, workers)]


@contextlib.contextmanager
def _pinned(cpus: set[int]):
    """Pin this process, and so the children it starts, to `cpus`."""
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


def _reference(cpus: list[int], work: Path) -> dict[int, tuple[int, float]]:
    """Run the reference job once on each of `cpus`, all at once; return (exit code, wall s)."""
    results: dict[int, tuple[int, float]] = {}

    def one(cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # this thread only; the child inherits it
        code, wall, _ = _spawn(["-c", REFERENCE_JOB], work / f"ref{cpu}.log")
        results[cpu] = code, wall

    threads = [threading.Thread(target=one, args=(cpu,)) for cpu in cpus]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def _digest(paths: list[Path]) -> str:
    h = hashlib.blake2b(digest_size=16)
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def _environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break

    caches = {}
    with contextlib.suppress(OSError, ValueError):
        for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
            level = int((index / "level").read_text())
            caches[f"l{level}_{(index / 'type').read_text().strip().lower()}"] = (
                (index / "size").read_text().strip()
            )

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches": caches,
    }


class Checker:
    """Checks each op's output and counts the ops that fail."""

    def __init__(self, w, truth) -> None:
        self.w = w
        self.truth = truth
        self.reference: bytes | None = None
        self.attempted = 0
        self.failed = 0
        self.abs_err = 0.0
        self.problems: list[str] = []

    def op(self, label: str, code: int, out: Path, log: Path | None = None) -> None:
        import dmig
        import workloads

        self.attempted += 1
        problems = []
        if code != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-1:] if log else []
            problems.append(f"exit code {code} {' '.join(tail)}".rstrip())
        if out.is_file():
            data = out.read_bytes()
            if self.reference is None:
                self.reference = data
            elif data != self.reference:
                problems.append("output bytes differ from the run's first op")
            try:
                reports = workloads.read_output(self.w, out)
            except (dmig.DmigError, ValueError) as exc:
                problems.append(f"unreadable output: {exc}")
            else:
                err, bad = workloads.check_reports(self.w, reports, self.truth)
                self.abs_err = max(self.abs_err, err)
                problems += bad
        else:
            problems.append("no output file")
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]


class Setup:
    """Generates a workload's inputs, timing each repetition and checking its bytes."""

    def __init__(self, w, seed: int, work: Path) -> None:
        self.w, self.seed, self.work = w, seed, work
        self.times: list[float] = []
        self.digests: set[str] = set()

    def rep(self):
        import workloads

        start = time.perf_counter()
        inputs, truth = workloads.generate(self.w, self.seed, self.work)
        self.times.append(time.perf_counter() - start)
        self.digests.add(_digest(inputs))
        return inputs, truth

    def problems(self) -> list[str]:
        return [] if len(self.digests) == 1 else ["set-up output differs between repetitions"]


def _keep_going(elapsed: float, seconds: float, done: int, minimum: int, last: float) -> bool:
    """Start another op while it should end within the run, or too few are done."""
    return done < minimum or elapsed + last <= seconds


def run_end_to_end(w, seed: int, seconds: float, work: Path) -> tuple[dict, dict, Checker]:
    import workloads

    # Set-up repetitions are spread between the ops, so that they sample
    # the same stretch of host speed as the ops do, and go round the CPUs
    # in turn. With as many on each CPU, the median lies between the CPUs'
    # speeds whichever CPU is the slower one at the time.
    setup = Setup(w, seed, work)
    all_cpus = sorted(os.sched_getaffinity(0))

    def setup_rep():
        with _pinned({all_cpus[len(setup.times) % len(all_cpus)]}):
            return setup.rep()

    inputs, truth = setup_rep()
    check = Checker(w, truth)

    def op(label: str) -> tuple[float, float]:
        out = work / f"{label}.out"
        argv = ["-m", "dmig", *workloads.eval_argv(w, inputs, out)]
        code, wall, peak = _spawn(argv, work / "child.log")
        check.op(label, code, out, work / "child.log")
        return wall, peak

    def reference() -> dict[int, float]:
        walls = {}
        for cpu, (code, wall) in _reference(all_cpus, work).items():
            if code != 0:
                check.problems.append(f"reference job on CPU {cpu} exited {code}")
            walls[cpu] = wall
        return walls

    cpu_sets = _cpu_sets(w.workers)
    # The run's --seconds start here and cover everything up to the last
    # op. One untimed op goes first: it warms the page cache and the CPU,
    # as the previous call of a training loop would.
    start = time.perf_counter()
    with _pinned(cpu_sets[0]):
        _, peak = op("warm-up op")
    before = reference()
    last = time.perf_counter() - start
    walls, refs, rel, rss = [], [], [], [peak]
    while _keep_going(time.perf_counter() - start, seconds, len(walls), MIN_OPS, last):
        pair_start = time.perf_counter()
        cpus = cpu_sets[len(walls) % len(cpu_sets)]
        with _pinned(cpus):
            wall, peak = op(f"op {len(walls) + 1}")
        after = reference()
        ref = statistics.fmean(t[cpu] for t in (before, after) for cpu in cpus)
        before = after
        if len(setup.times) < SETUP_REPS:
            setup_rep()
        walls.append(wall)
        refs.append(ref)
        rel.append(wall / ref)
        rss.append(peak)
        last = time.perf_counter() - pair_start
    while len(setup.times) < SETUP_REPS:
        setup_rep()
    check.problems += setup.problems()
    metrics = {
        "eval_rel": statistics.median(rel),
        "peak_rss_mb": max(rss),
        "setup_s": statistics.median(setup.times),
    }
    extra = {
        "eval_s": statistics.median(walls),
        "eval_s_samples": len(walls),
        "eval_s_all": walls,
        "reference_s_all": refs,
        "setup_s_all": setup.times,
        "cpu_sets": [sorted(c) for c in cpu_sets],
        "dataset_bytes": sum(p.stat().st_size for p in inputs),
    }
    return metrics, extra, check


def _in_process_op(argv: list[str]) -> tuple[int, float]:
    import dmig.cli

    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        code = dmig.cli.main(argv)
    return code, time.perf_counter() - start


def run_traced(w, seed: int, seconds: float, work: Path) -> tuple[dict, dict, Checker]:
    import tracer as tr
    import workloads

    setup = Setup(w, seed, work)
    inputs, truth = setup.rep()
    setup_tracer = tr.Tracer()
    uninstall = tr.install(setup_tracer)
    try:
        setup.rep()
    finally:
        uninstall()
    problems = setup.problems()
    layer = {
        k: v for k, v in tr.summarize(setup_tracer).items()
        if k.startswith(("synthetic.", "dataio.write_dataset."))
    }

    start = time.perf_counter()
    startup = []
    for _ in range(STARTUP_REPS):
        code, wall, _ = _spawn(["-c", "import dmig.cli"], work / "child.log")
        if code != 0:
            problems.append(f"`import dmig.cli` exited {code}")
        startup.append(wall)
    layer["cli.startup_s"] = statistics.median(startup)

    check = Checker(w, truth)
    check.problems += problems
    out = work / "child.out"
    code, _, _ = _spawn(["-m", "dmig", *workloads.eval_argv(w, inputs, out)], work / "child.log")
    check.op("child op", code, out, work / "child.log")

    plain_walls, traced_walls, samples = [], [], []
    while _keep_going(time.perf_counter() - start, seconds, len(samples), 1,
                      plain_walls[-1] + traced_walls[-1] if samples else 0.0):
        k = len(samples)
        out = work / f"plain{k}.out"
        code, wall = _in_process_op(workloads.eval_argv(w, inputs, out))
        plain_walls.append(wall)
        check.op(f"in-process op {k}", code, out)

        t = tr.Tracer()
        out = work / f"traced{k}.out"
        uninstall = tr.install(t)
        try:
            op_start = time.perf_counter()
            code, wall = _in_process_op(workloads.eval_argv(w, inputs, out))
            op_end = time.perf_counter()
        finally:
            uninstall()
        traced_walls.append(wall)
        check.op(f"traced op {k}", code, out)
        check.problems += [f"traced op {k}: {p}" for p in tr.check_nesting(t)]
        summary = tr.summarize(t, workers=w.workers)
        summary["trace.uncovered_frac"] = 1.0 - tr.covered_seconds(t, op_start, op_end) / (
            op_end - op_start
        )
        samples.append(summary)

    for key in {k for s in samples for k in s}:
        layer[key] = statistics.median(s.get(key, 0.0) for s in samples)
    layer["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    )
    layer["abs_err_nats"] = check.abs_err
    extra = {
        "traced_ops": len(samples),
        "plain_s_all": plain_walls,
        "traced_s_all": traced_walls,
        "startup_s_all": startup,
        "dataset_bytes": sum(p.stat().st_size for p in inputs),
    }
    return layer, extra, check


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dmig" / "__init__.py").is_file():
        print(f"perfbench: no dmig package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK))
    try:
        runner = run_traced if args.trace else run_end_to_end
        values, extra, check = runner(w, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    for p in check.problems:
        print(f"FAIL {p}")
    record = {
        "workload": w.name, "seed": args.seed, "trace": args.trace,
        "n": w.n, "m": w.m, "d": w.d, "epochs": w.epochs, "workers": w.workers,
        "abs_err_nats": check.abs_err,
        "error_rate": check.failed / check.attempted,
        **extra,
        "env": _environment(),
    }
    print(json.dumps(record))
    result = {
        "correct": not check.problems,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
