"""Self-check of the benchmark's own code on tiny inputs.

    python3 perfbench/selfcheck.py

Runs in a few seconds and exits 1 if any of these fail:

* the tracer's interval arithmetic on hand-made spans;
* transparency: `dmig eval` writes the same bytes with and without the
  wrappers, and uninstalling restores every rebound attribute;
* nesting: every span lies inside its parent, and spans recorded on
  `--workers` pool threads hang under the open `metrics.mi_profile`;
* names: every span, counter and benchmark metric name uses only
  [A-Za-z0-9_.-].
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import shutil
import sys
import tempfile
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402

TINY_N = {"cont_pair": 400, "factor_series": 300, "disc_codes": 1000}


def check_arithmetic() -> list[str]:
    t = tr.Tracer()
    t.spans = [
        tr.Span(0, "metrics.mi_profile", None, 0.0, 10.0, 1),
        tr.Span(1, "estimation.a", 0, 1.0, 6.0, 2),
        tr.Span(2, "estimation.b", 0, 4.0, 9.0, 3),
        tr.Span(3, "estimation.c", 1, 2.0, 3.0, 2),
    ]
    got = tr.summarize(t, workers=2)
    want = {
        "metrics.mi_profile.self_s": 2.0,  # children cover [1, 9]
        "estimation.a.self_s": 4.0,
        "metrics.mi_profile.parallel_eff": 10.0 / 20.0,
    }
    problems = [f"{k}: {got.get(k)} != {v}" for k, v in want.items() if got.get(k) != v]
    if tr.covered_seconds(t, 0.0, 20.0) != 10.0:
        problems.append("covered_seconds of one root span over [0, 20] != 10")
    return problems


def _snapshot() -> dict:
    return {
        (name, attr): value
        for name in tr.DMIG_MODULES
        for attr, value in vars(sys.modules[name]).items()
    }


def check_workload(name: str, work: Path) -> tuple[list[str], set[str]]:
    w = dataclasses.replace(workloads.WORKLOADS[name], n=TINY_N[name])
    inputs, _ = workloads.generate(w, 7, work)
    problems = []

    plain_out, traced_out = work / f"{name}.plain", work / f"{name}.traced"
    code, _ = run._in_process_op(workloads.eval_argv(w, inputs, plain_out))
    before = _snapshot()
    t = tr.Tracer()
    uninstall = tr.install(t)
    try:
        traced_code, _ = run._in_process_op(workloads.eval_argv(w, inputs, traced_out))
    finally:
        uninstall()
    if code != 0 or traced_code != 0:
        problems.append(f"exit codes {code} untraced, {traced_code} traced")
    elif plain_out.read_bytes() != traced_out.read_bytes():
        problems.append("traced output bytes differ from untraced")
    if _snapshot() != before:
        problems.append("uninstall left rebound attributes behind")
    workloads.read_output(w, traced_out)

    problems += tr.check_nesting(t)
    by_id = {s.id: s for s in t.spans}
    main = threading.get_ident()
    pool_roots = [
        s for s in t.spans
        if s.thread != main and (s.parent is None or by_id[s.parent].thread != s.thread)
    ]
    if w.workers > 1 and not pool_roots:
        problems.append("no spans were recorded on pool threads")
    for s in pool_roots:
        parent = by_id[s.parent].name if s.parent is not None else None
        if parent != tr.POOL_PARENT:
            problems.append(f"pool span {s.name} hangs under {parent}")
    names = {s.name for s in t.spans} | set(tr.summarize(t, w.workers))
    return [f"{name}: {p}" for p in problems], names


def main() -> int:
    problems = [f"arithmetic: {p}" for p in check_arithmetic()]
    names: set[str] = set()
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=run.WORK))
    try:
        for name in workloads.WORKLOADS:
            found, emitted = check_workload(name, work)
            problems += found
            names |= emitted
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK.rmdir()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names |= {m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]}
    problems += [f"bad name {n!r}" for n in sorted(names) if not tr.NAME_RE.match(n)]
    for p in problems:
        print(f"FAIL {p}")
    print(f"selfcheck: {len(problems)} problems, {len(names)} names checked")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
