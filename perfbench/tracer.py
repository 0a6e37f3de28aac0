"""Spans around the public calls of the dmig layers, installed from outside.

`install(tracer)` rebinds the public functions of `dmig.dataio`,
`dmig.metrics`, `dmig.estimation` and `dmig.synthetic`, plus the scipy
kernels as `dmig.estimation` binds them, to wrappers that record a span
per call. Every module attribute that holds the original object is
rebound, so calls through `from .x import f` bindings are seen too.
The returned callable restores the originals.

Spans nest by thread: a span's parent is the innermost open span of the
same thread. A thread with no open span (a `--workers` pool thread)
parents its spans to the innermost open `metrics.mi_profile` span.
"""

from __future__ import annotations

import functools
import itertools
import os
import re
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")
POOL_PARENT = "metrics.mi_profile"
DMIG_MODULES = (
    "dmig", "dmig.cli", "dmig.dataio", "dmig.metrics", "dmig.estimation", "dmig.synthetic",
)


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float
    thread: int


class Tracer:
    """In-memory span and counter store; safe to use from several threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._pool_parents: list[int] = []

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            sid = next(self._ids)
            if stack:
                parent = stack[-1]
            else:
                parent = self._pool_parents[-1] if self._pool_parents else None
            if name == POOL_PARENT:
                self._pool_parents.append(sid)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                if name == POOL_PARENT:
                    self._pool_parents.remove(sid)
                self.spans.append(Span(sid, name, parent, start, end, threading.get_ident()))

    def count(self, name: str, n: int) -> None:
        with self._lock:
            self.counts[name] += n


def _wrap(tracer: Tracer, name: str, fn, counter=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if counter is not None:
            counter(tracer, *args, **kwargs)
        return result

    return traced


def _count_write_bytes(tracer, ds, path, *args, **kwargs):
    tracer.count("dataio.write_dataset.bytes", os.path.getsize(path))


def _count_read_bytes(tracer, path, *args, **kwargs):
    tracer.count("dataio.read_dataset.bytes", os.path.getsize(path))


def _count_ksg_points(tracer, x, *args, **kwargs):
    tracer.count("estimation.ksg.points", x.n)


def _traced_kdtree(tracer: Tracer, base):
    class TracedKDTree(base):
        def __init__(self, *args, **kwargs):
            with tracer.span("estimation.cKDTree.build"):
                super().__init__(*args, **kwargs)

        def query(self, *args, **kwargs):
            with tracer.span("estimation.cKDTree.query"):
                return super().query(*args, **kwargs)

        def query_ball_point(self, x, *args, **kwargs):
            tracer.count("estimation.cKDTree.query_ball_point.points", len(x))
            with tracer.span("estimation.cKDTree.query_ball_point"):
                return super().query_ball_point(x, *args, **kwargs)

    return TracedKDTree


# (module, attribute, span name, counter called after the call returns)
TARGETS = (
    ("dmig.dataio", "read_dataset", "dataio.read_dataset", _count_read_bytes),
    ("dmig.dataio", "write_dataset", "dataio.write_dataset", _count_write_bytes),
    ("dmig.dataio", "write_report", "dataio.write_report", None),
    ("dmig.dataio", "write_series", "dataio.write_series", None),
    ("dmig.synthetic", "gen_trajectory", "synthetic.generate", None),
    ("dmig.synthetic", "gen_discrete_joint", "synthetic.generate", None),
    ("dmig.synthetic", "gen_gaussian_pair", "synthetic.generate", None),
    ("dmig.metrics", "evaluate", "metrics.evaluate", None),
    ("dmig.metrics", "mi_profile", "metrics.mi_profile", None),
    ("dmig.estimation", "mi_continuous_detailed", "estimation.mi_continuous_detailed",
     _count_ksg_points),
    ("dmig.estimation", "entropy_continuous", "estimation.entropy_continuous", None),
    ("dmig.estimation", "conditional_entropy", "estimation.conditional_entropy", None),
    ("dmig.estimation", "mi_discrete", "estimation.mi_discrete", None),
    ("dmig.estimation", "entropy_discrete", "estimation.entropy_discrete", None),
    ("dmig.estimation", "spearman", "estimation.spearman", None),
    ("dmig.estimation", "rankdata", "estimation.rankdata", None),
)


def _rebind(original, replacement, undo: list) -> None:
    for mod_name in DMIG_MODULES:
        mod = sys.modules.get(mod_name)
        if mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))


def install(tracer: Tracer):
    """Wrap every target for tracer; return a function that undoes it."""
    import dmig.cli  # noqa: F401  (so its bindings are rebound too)
    import dmig.estimation

    undo: list = []
    for mod_name, attr, name, counter in TARGETS:
        original = getattr(sys.modules[mod_name], attr)
        _rebind(original, _wrap(tracer, name, original, counter), undo)
    kdtree = dmig.estimation.cKDTree
    _rebind(kdtree, _traced_kdtree(tracer, kdtree), undo)

    def uninstall() -> None:
        for mod, attr, original in reversed(undo):
            setattr(mod, attr, original)

    return uninstall


def _union(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    covered = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def summarize(tracer: Tracer, workers: int = 1) -> dict[str, float]:
    """Per-name calls, total and self seconds, counters, and pool efficiency.

    Self time is a span's duration minus the part of it that its child
    spans cover; pool-thread children may overlap, so their union counts.
    """
    children: dict[int | None, list[Span]] = defaultdict(list)
    for s in tracer.spans:
        children[s.parent].append(s)
    out: dict[str, float] = defaultdict(int)
    for s in tracer.spans:
        kids = [(c.start, c.end) for c in children[s.id]]
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.s"] += s.end - s.start
        out[f"{s.name}.self_s"] += (s.end - s.start) - _union(kids, s.start, s.end)
    out.update(tracer.counts)
    profiles = [s for s in tracer.spans if s.name == POOL_PARENT]
    if profiles:
        cells = sum(c.end - c.start for p in profiles for c in children[p.id])
        wall = sum(p.end - p.start for p in profiles)
        out[f"{POOL_PARENT}.parallel_eff"] = cells / (workers * wall)
    return dict(out)


def covered_seconds(tracer: Tracer, start: float, end: float) -> float:
    """Seconds of [start, end] covered by some root span."""
    roots = [(s.start, s.end) for s in tracer.spans if s.parent is None]
    return _union(roots, start, end)


def check_nesting(tracer: Tracer) -> list[str]:
    """Problems with the span tree: unknown parents or children outside them."""
    by_id = {s.id: s for s in tracer.spans}
    problems = []
    for s in tracer.spans:
        if not NAME_RE.match(s.name):
            problems.append(f"bad span name {s.name!r}")
        if s.parent is None:
            continue
        p = by_id.get(s.parent)
        if p is None:
            problems.append(f"{s.name} has an unrecorded parent")
        elif not (p.start <= s.start and s.end <= p.end):
            problems.append(f"{s.name} is not inside its parent {p.name}")
    return problems
