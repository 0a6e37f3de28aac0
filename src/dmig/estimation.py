"""Nonparametric information estimators over sample columns.

Implements the estimator layer used by the metric computations:

* plug-in Shannon entropy and mutual information for discrete columns,
* Kozachenko-Leonenko kNN differential entropy for continuous columns,
* the class-wise kNN mutual information of Ross (2014) of a discrete
  and a continuous column (mi_classwise),
* KSG (type 1) kNN mutual information for continuous pairs,
* conditional entropy assembled from the above,
* Spearman rank correlation.

All quantities are in nats. Each column finds its levels once, counted
where its codes span fewer than N integers, else sorted; the plug-in,
class-wise and Spearman estimators read them. Continuous estimators
break ties with deterministic, content-keyed jitter: the noise applied
to a column is a pure function of the column bytes, so estimates are
reproducible, symmetric in their arguments, and safe to compute
concurrently. Mean reductions use math.fsum, which makes results
invariant under joint row permutations of pre-jittered data. Every
digamma argument is a positive integer and is evaluated exactly here,
and the k-th neighbour search of a continuous pair is numpy's too: the
package imports no scipy.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Literal

import numpy as np

from .errors import (
    AlignmentError,
    DegenerateSampleError,
    InsufficientSamplesError,
    KindMismatchError,
    UndefinedCorrelationError,
)

__all__ = [
    "SampleColumn",
    "EstimatorConfig",
    "MIEstimate",
    "entropy_discrete",
    "entropy_continuous",
    "mi_continuous_detailed",
    "spearman",
    "CONTINUOUS",
    "DISCRETE",
]

Kind = Literal["continuous", "discrete"]

CONTINUOUS: Kind = "continuous"
DISCRETE: Kind = "discrete"


def _as_readonly_f64(values: Iterable[float]) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True)
    arr.setflags(write=False)
    return arr


def _integer_valued(values: np.ndarray) -> bool:
    """Whether every value is a whole number, as a discrete code must be."""
    return np.array_equal(values, np.floor(values))


@dataclass(frozen=True, eq=False)
class SampleColumn:
    """One realized sample vector (an attribute a_i or a latent z_d).

    values are held as a read-only float64 array; discrete columns must
    contain integer-valued category codes.
    """

    values: np.ndarray
    kind: Kind

    def __post_init__(self) -> None:
        vals = _as_readonly_f64(self.values)
        if vals.ndim != 1:
            raise KindMismatchError("SampleColumn values must be one-dimensional")
        if vals.size < 2:
            raise InsufficientSamplesError(
                f"SampleColumn needs at least 2 samples, got {vals.size}"
            )
        if not np.all(np.isfinite(vals)):
            raise DegenerateSampleError("SampleColumn values must be finite (no NaN/inf)")
        if self.kind not in (CONTINUOUS, DISCRETE):
            raise KindMismatchError(f"unknown column kind: {self.kind!r}")
        if self.kind == DISCRETE and not _integer_valued(vals):
            raise KindMismatchError("discrete column contains non-integer codes")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return int(self.values.size)

    @cached_property
    def _levels(self) -> tuple[np.ndarray, np.ndarray]:
        """Each row's level, as a dense code in value order, and each level's count.

        Found once per column, on first use: a discrete column whose integer
        range is below N by np.bincount of each value's exact offset from
        the minimum, any other by rankdata's one sort; -0.0 and 0.0 are one
        level. The codes take the narrowest unsigned type. Both arrays are
        read-only and kept with the column: for a continuous attribute of a
        Dataset, uint16 or uint32 codes and int64 counts, 10 to 12 bytes a row.
        """
        lo = float(self.values.min())
        if self.kind == CONTINUOUS or float(self.values.max()) - lo >= self.n:
            codes, counts = rankdata(self.values)
        else:
            offsets = (self.values - lo).astype(np.intp)
            counts = np.bincount(offsets)
            seen = counts > 0
            counts = counts[seen]
            codes = (np.cumsum(seen) - 1).astype(np.min_scalar_type(counts.size - 1))[offsets]
        for arr in (codes, counts):
            arr.setflags(write=False)
        return codes, counts


@dataclass(frozen=True)
class EstimatorConfig:
    """The setting shared by all kNN estimators: k, the neighbor count.

    Every estimate is in nats (closed-form oracles are natural-log).
    """

    k: int = 3

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InsufficientSamplesError(f"k must be >= 1, got {self.k}")


@dataclass(frozen=True)
class MIEstimate:
    """Raw KSG or class-wise estimate plus the deterministic-relation diagnostic.

    deterministic_relation is set when some k-th neighbor distance is zero
    even after jitter: in KSG's joint space (k+1 coincident joint points),
    or within a class for class-wise MI. The value stays finite.
    """

    value: float
    deterministic_relation: bool


# The exact k-th-neighbour search of KSG's joint space. Around each point,
# a block of grid cells (3x3 at first) is searched, and the k-th distance
# found there is exact when no point outside the block can be closer, that
# is, when the block reaches at least that far from the point on all four
# sides. Cell sides are powers of two, so x / side is exact and every block
# edge is an exact float; fl(b - a) is monotone in a and b, so a point
# beyond an edge is at least fl(|point - edge|) away, the same fact that
# _kth_gap and _count_within rely on. Each point picks its own cell side
# from the number of points around it, so clusters of ties, thin strips and
# far outliers each get cells of their own scale. Every pass over the
# points of one grid, the first 3x3 one and each wider one, takes them in
# cell order, _BATCH at a time, and so does the move of crowded points to
# a finer grid: the points of a batch lie in few cells and share their
# blocks, and a batch's arrays, with _nearest's chunks of _CHUNK entries,
# take a few MiB at most, whatever the number of points. Only the grid
# and a few words of state per point grow with it: each value in the
# narrowest type that holds it (int16 levels, int32 counts and ranks), and
# each index intp, which numpy's fancy indexing takes without a cast.
_BLOCK_MAX = 64        # a point whose 3x3 block holds more, and more than k, moves finer
_WIDEST = 11           # widest block half-width tried before a coarser grid
_BATCH = 1 << 12       # points searched at once
_CHUNK = 1 << 16       # entries in one candidate matrix


def _exponent(v):
    """e with 2**(e-1) <= |v| < 2**e (0 for 0), elementwise."""
    return np.frexp(v)[1]


def _runs(ordered: np.ndarray) -> np.ndarray:
    """True where a sorted array starts a run of equal values."""
    first = np.empty(ordered.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return first


class cKDTree:
    """k-th nearest distances among 2-D points under the max norm, in numpy.

    This answers the one query that KSG makes of its joint space: for each
    point (x_i, y_i), the distance to its k-th nearest other point, equal
    to scipy's kd-tree's bit for bit, since both take max(|x_j - x_i|,
    |y_j - y_i|) in float64 and the search is exact. Each column is sorted
    once, and KSG's marginal counts reuse the orders. perfbench/tracer.py
    times the constructor and query under the name of scipy's class.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray) -> None:
        self.x = x
        self.y = y
        self.by_x = np.argsort(x)
        self.by_y = np.argsort(y)

    def query(self, k: int) -> np.ndarray:
        """Each point's distance to its k-th nearest other point."""
        # An edge or distance past the float64 maximum is inf, still in order.
        with np.errstate(over="ignore"):
            return _kth_distances(self, k)


class _Grid:
    """The points in square cells of side 2**level; only occupied cells count.

    A cell is keyed by the dense ranks of its column and its row among the
    occupied ones, so keys stay below n**2 whatever the spread of the data.
    The points are sorted by key, so one row of cells in a block is one
    slice of them; cell c holds the points ends[c] to ends[c + 1]. queue
    lists the rows given to the constructor, the ones to search here, in
    cell order, and cells their cells. The methods take cells in that
    order and cost O(cells given), whatever the number of cells in the
    grid, as repeats of a cell share the work.
    """

    def __init__(self, tree: cKDTree, level: int, rows: np.ndarray) -> None:
        self.side = math.ldexp(1.0, level)
        rank, self.columns = self._ranks(tree.x, tree.by_x)
        key, self.rows = self._ranks(tree.y, tree.by_y)
        key = key.astype(np.int64)
        key *= self.columns.size
        key += rank
        del rank
        order = np.argsort(key)
        key = key[order]
        # A point at infinity pads short candidate lists.
        self.x = np.append(tree.x[order], np.inf)
        self.y = np.append(tree.y[order], np.inf)
        first = _runs(key)
        self.cell_key = key[first]
        self.ends = np.append(np.flatnonzero(first), key.size)
        queued = np.zeros(key.size, dtype=bool)
        queued[rows] = True
        queued = queued[order]
        self.queue = order[queued]
        self.cells = (np.cumsum(first) - 1)[queued]

    def _ranks(self, values: np.ndarray, order: np.ndarray):
        """Each point's dense int32 rank among the occupied cells of one axis, and those cells."""
        cells = values[order]
        with np.errstate(over="ignore"):
            cells /= self.side
        np.clip(cells, -2.0**60, 2.0**60, out=cells)
        np.floor(cells, out=cells)
        first = _runs(cells)
        rank = np.empty(order.size, dtype=np.int32)
        rank[order] = np.cumsum(first, dtype=np.int32)
        rank -= 1
        return rank, cells[first]

    def blocks(self, cells: np.ndarray, h: int):
        """The blocks of (2h+1)**2 cells around the distinct cells given.

        Returns at, the index of each given cell among the distinct ones,
        and, for each distinct one, lo, hi and edges: lo[:, j], hi[:, j]
        bound the slice of sorted points in the block's j-th row of cells,
        and edges holds its left, right, lower and upper edge.
        """
        first = _runs(cells)
        at = np.cumsum(first) - 1
        ncol = self.columns.size
        row, col = np.divmod(self.cell_key[cells[first]], ncol)
        cx, cy = self.columns[col], self.rows[row]
        left = np.searchsorted(self.columns, cx - h, "left")
        right = np.searchsorted(self.columns, cx + h, "right")
        # Each row of cells in use is looked up once (the keys are sorted),
        # and the queries go one row of the blocks at a time, in key order,
        # among the cells of the rows they reach, which keeps them fast; a
        # slice ends where the next cell key starts.
        first = _runs(row)
        of_row = np.cumsum(first) - 1
        want = cy[first] + np.arange(-h, h + 1)[:, None]
        r = np.searchsorted(self.rows, want)
        found = (self.rows[np.minimum(r, self.rows.size - 1)] == want)[:, of_row]
        base = r[:, of_row] * ncol
        a, b = np.searchsorted(self.cell_key, (r[0, 0] * ncol, (r[-1, -1] + 1) * ncol))
        ends, keys = self.ends[a:], self.cell_key[a:b]
        lo = ends[np.searchsorted(keys, base + left)]
        hi = np.where(found, ends[np.searchsorted(keys, base + right)], lo)
        s = self.side
        edges = np.stack(((cx - h) * s, (cx + h + 1) * s, (cy - h) * s, (cy + h + 1) * s), axis=1)
        return at, lo.T, hi.T, edges

    def cell_shape(self, cells: np.ndarray):
        """Point count, width and height of the points in each cell."""
        first = _runs(cells)
        at = np.cumsum(first) - 1
        cell = cells[first]
        # Even entries reduce over the cells' points; odd ones are dropped.
        bounds = np.column_stack((self.ends[cell], self.ends[cell + 1])).ravel()
        size = np.diff(bounds)[::2]
        width, height = (
            np.maximum.reduceat(v, bounds)[::2] - np.minimum.reduceat(v, bounds)[::2]
            for v in (self.x, self.y)
        )
        return size[at], width[at], height[at]


def _nearest(grid: _Grid, qx, qy, lo, hi, kth: int) -> np.ndarray:
    """The (kth + 1)-th smallest distance from (qx, qy) to the points of lo..hi.

    Rows are taken in order of their candidate count, in chunks of at most
    _CHUNK entries, of which at most _CHUNK // 16 pad rows to the chunk's
    widest, so one crowded row widens only its own chunk. Each row lists
    its slices, then points past the end, which take the last point (the
    one at infinity) as padding.
    """
    out = np.empty(qx.size)
    counts = hi - lo
    count = counts.sum(1)
    order = np.argsort(count)
    ordered = count[order]
    before = np.append(0, np.cumsum(ordered))
    i = 0
    while i < order.size:
        # Both the entries and the padding grow with the chunk.
        size = np.arange(1, min(order.size - i, _CHUNK) + 1)
        entries = size * ordered[i:i + size.size]
        padding = entries - (before[i + 1:i + size.size + 1] - before[i])
        j = i + max(1, np.count_nonzero((entries <= _CHUNK) & (padding <= _CHUNK // 16)))
        rows = order[i:j]
        width = max(int(ordered[j - 1]), kth + 1)
        lengths = np.column_stack((counts[rows], width - count[rows])).ravel()
        starts = np.column_stack((lo[rows], np.full(rows.size, grid.x.size - 1))).ravel()
        idx = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        idx += np.arange(idx.size)
        idx = idx.reshape(rows.size, width)
        d = np.take(grid.x, idx, mode="clip")
        d -= qx[rows, None]
        np.abs(d, out=d)
        e = np.take(grid.y, idx, mode="clip")
        e -= qy[rows, None]
        np.abs(e, out=e)
        np.maximum(d, e, out=d)
        d.sort(axis=1)
        out[rows] = d[:, kth]
        i = j
    return out


def _search(tree: cKDTree, grid: _Grid, rows: np.ndarray, cells: np.ndarray,
            h: int, kth: int, out: np.ndarray, most=None):
    """One pass over rows, in cell order, with blocks of (2h+1)**2 cells.

    A row whose block holds at least kth + 1 points, or all of them, and
    no more than most (where given) is searched there; where the block
    reaches its distance on all four sides, the distance is exact and
    goes to out. Rows go _BATCH at a time. Returns each row's block count
    and whether its distance was found.
    """
    n = tree.x.size
    count = np.empty(rows.size, dtype=np.int32)
    found = np.zeros(rows.size, dtype=bool)
    for i in range(0, rows.size, _BATCH):
        at, lo, hi, edges = grid.blocks(cells[i:i + _BATCH], h)
        count[i:i + _BATCH] = c = (hi - lo).sum(1)[at]
        full = (c > kth) | (c == n)
        if most is not None:
            full &= c <= most[i:i + _BATCH]
        part, at = rows[i:i + _BATCH][full], at[full]
        x, y = tree.x[part], tree.y[part]
        eps = _nearest(grid, x, y, lo[at], hi[at], kth)
        e = edges[at]
        exact = (c[full] == n) | (
            (eps <= x - e[:, 0]) & (eps <= e[:, 1] - x) & (eps <= y - e[:, 2]) & (eps <= e[:, 3] - y)
        )
        out[part[exact]] = eps[exact]
        found[i:i + _BATCH][full] = exact
    return count, found


def _start_level(tree: cKDTree, k: int) -> int:
    """A level whose cells hold about k points at a typical density.

    The area is the IQR box of the points, or that of the points turned by
    45 degrees when it is smaller, as for a correlated pair.
    """
    n = tree.x.size
    q = [n // 4, (3 * n) // 4]
    with np.errstate(over="ignore", invalid="ignore"):
        iqr = [float(v[by[q[1]]] - v[by[q[0]]])
               for v, by in ((tree.x, tree.by_x), (tree.y, tree.by_y))]
        iqr += [float(np.diff(np.partition(v, q)[q])[0]) for v in (tree.x + tree.y, tree.x - tree.y)]
        area = min(iqr[0] * iqr[1], iqr[2] * iqr[3] / 2)
    return int(_exponent(math.sqrt(k * area / n))) if 0.0 < area < math.inf else 1023


def _kth_distances(tree: cKDTree, kth: int) -> np.ndarray:
    """The distance from each point to its (kth + 1)-th nearest.

    The points go through grids in rounds, one level's grid at a time. On
    each, they run passes of widening blocks through _search, in cell
    order and _BATCH points at a time; a point in a crowded block moves to
    a finer grid, also _BATCH at a time, and one whose widest block holds
    fewer than kth + 1 points to a coarser one. So the memory is one
    grid, a few words of state per point (about 120 bytes a point in all,
    with the tree's orders, on a Gaussian pair at N = 2e5) and one batch's
    arrays, which do not grow with the number of points.
    """
    n = tree.x.size
    k = kth + 1
    out = np.empty(n)
    # The 3x3 block of the top level holds every point; below a row's
    # floor, its cell index would lose integer precision.
    norm = np.maximum(np.abs(tree.x), np.abs(tree.y))
    top = min(int(_exponent(norm.max(initial=0.0))), 1023)
    floor = np.maximum(_exponent(norm) - 52, -1022).astype(np.int16)
    level = np.clip(_start_level(tree, k), floor, top).astype(np.int16)
    sparse_at = floor - 1                # finest level known to hold too few
    del norm, floor
    dense_at = np.full(n, top + 1, dtype=np.int16)   # coarsest level known to hold too many
    moves = np.zeros(n, dtype=np.int32)
    pending = np.arange(n)
    while pending.size:
        moved = []
        levels = level[pending]
        low = int(levels.min())
        for lv in (np.flatnonzero(np.bincount(levels - low)) + low).tolist():
            grid = _Grid(tree, lv, pending[levels == lv])
            rows, cells = grid.queue, grid.cells
            # A crowded block moves to a finer grid, unless searching all of
            # them here costs less than building one. That is known after
            # the last batch, so the first pass leaves them out. A crowded
            # block holds more than k points, so no row searched here is short.
            most = np.where(sparse_at[rows] < lv - 1, max(_BLOCK_MAX, k), n).astype(np.int32)
            count, found = _search(tree, grid, rows, cells, 1, kth, out, most)
            dense = count > most
            del most
            if dense.any() and count[dense].sum() <= n:
                count[dense], found[dense] = _search(tree, grid, rows[dense], cells[dense], 1, kth, out)
            elif dense.any():
                crowded = np.flatnonzero(dense)
                for i in range(0, crowded.size, _BATCH):
                    sel = crowded[i:i + _BATCH]
                    part = rows[sel]
                    size, width, height = grid.cell_shape(cells[sel])
                    # >= k coincident points: the kth distance is 0.
                    same = (size >= k) & (width == 0) & (height == 0)
                    out[part[same]] = 0.0
                    # The finer side comes from the density of the block, or
                    # of the row's own cell where that holds k points.
                    guess = 1.5 * grid.side * np.sqrt(k / count[sel])
                    with np.errstate(over="ignore", invalid="ignore"):
                        own = 0.5 * np.maximum(np.sqrt(k * width * height / size),
                                               k * np.maximum(width, height) / size)
                    guess = np.where(size >= k, np.minimum(guess, own), guess)[~same]
                    part = part[~same]
                    dense_at[part] = lv
                    level[part] = np.clip(_exponent(guess), sparse_at[part] + 1, lv - 1)
                    moved.append(part)
                found |= dense
            h = 1
            while True:
                rows, cells, count = rows[~found], cells[~found], count[~found]
                if not rows.size:
                    break
                # A row whose k-th point may lie beyond its block tries a
                # block one ring wider or more, which is then exact: eps is
                # below (h + 1) cell sides, and that block reaches so far.
                # A row short of k points widens up to _WIDEST, then moves
                # five levels up, where the 3x3 block covers the widest.
                # Repeated moves double; a row that reaches a level known
                # to be crowded, or the top, is searched there.
                full = (count >= k) | (count == n)
                short = rows[~full]
                h = 2 * h + 1 if h > 1 else 2
                if h > _WIDEST and short.size:
                    sparse_at[short] = lv
                    up = lv + np.maximum(5, 1 << np.minimum(moves[short], 30))
                    moves[short] += 1
                    cap = np.minimum(dense_at[short], top)
                    stop = up >= cap
                    level[short] = np.where(stop, cap, up)
                    sparse_at[short[stop]] = cap[stop] - 1
                    moved.append(short)
                    rows, cells = rows[full], cells[full]
                count, found = _search(tree, grid, rows, cells, h, kth, out)
            del grid    # before the next level's grid is built
        pending = np.concatenate(moved) if moved else pending[:0]
    return out


# Coefficients of the asymptotic series of cephes' psi, and its Euler
# constant; with them digamma equals scipy.special.digamma bit for bit.
_PSI_A = (
    8.33333333333333333333e-2,
    -2.10927960927960927961e-2,
    7.57575757575757575758e-3,
    -4.16666666666666666667e-3,
    3.96825396825396825397e-3,
    -8.33333333333333333333e-3,
    8.33333333333333333333e-2,
)
_EULER = 0.577215664901532860606512090082402431


def digamma(n: int) -> float:
    """psi(n) for a positive integer n, computed as cephes' psi does.

    Below 11 it is the harmonic sum H(n-1) - gamma, added left to right;
    above, ln n - 1/(2n) - z*P(z) with z = 1/n**2 and P the seven-term
    asymptotic series in Horner form. math.log is used because numpy's
    vectorised log can differ from libm in the last bit.
    """
    if n <= 10:
        y = 0.0
        for i in range(1, n):
            y += 1.0 / i
        return y - _EULER
    s = float(n)
    z = 1.0 / (s * s)
    p = _PSI_A[0]
    for a in _PSI_A[1:]:
        p = p * z + a
    return math.log(s) - 0.5 / s - z * p


def _digamma_each(counts: np.ndarray) -> np.ndarray:
    """digamma of each positive integer count, evaluated once per distinct count."""
    table = np.zeros(int(counts.max()) + 1)
    for n in np.flatnonzero(np.bincount(counts)):
        table[n] = digamma(int(n))
    return table[counts]


def _require_kind(col: SampleColumn, kind: Kind, op: str) -> None:
    if col.kind != kind:
        raise KindMismatchError(f"{op} requires a {kind} column, got {col.kind}")


def _require_aligned(x: SampleColumn, y: SampleColumn) -> int:
    if x.n != y.n:
        raise AlignmentError(f"columns must share N, got {x.n} and {y.n}")
    return x.n


def _require_samples(n: int, k: int) -> None:
    # kNN estimators need k neighbors besides the query point itself.
    if n <= k:
        raise InsufficientSamplesError(f"need N >= k+1 samples, got N={n} with k={k}")


# The tie-breaking noise: its amplitude as a fraction of the column's
# standard deviation, and the seed that keys it. Reports echo both.
_JITTER = 1e-10
_SEED = 0


def _spread(values: np.ndarray) -> float:
    """The standard deviation of values, finite for any finite values.

    np.std of the values scaled by the power of two that brings their
    largest magnitude into [0.5, 1), scaled back: exact where np.std
    itself neither overflows nor underflows, and 0 for a constant array.
    np.std sums in array order, so callers that must not depend on row
    order pass the values sorted.
    """
    _, e = math.frexp(float(np.max(np.abs(values))))
    return math.ldexp(float(np.std(np.ldexp(values, -e))), e)


def _jittered(col: SampleColumn) -> np.ndarray:
    """Return column values with deterministic tie-breaking noise.

    The noise stream is keyed by (_SEED, column content), not by argument
    position, so mi(x, y) and mi(y, x) see identical point clouds and the
    estimates agree bit for bit. Its amplitude is _JITTER times the
    column's _spread, taken in row order, the rule KSG's unit scale
    shares. A constant column returns the values unchanged. Where adding
    the noise overflows float64, it is subtracted.
    """
    vals = col.values
    sd = _spread(vals)
    if sd == 0.0:
        return vals
    key = hashlib.blake2b(
        _SEED.to_bytes(8, "little") + vals.tobytes(), digest_size=16
    ).digest()
    rng = np.random.default_rng(int.from_bytes(key, "little"))
    noise = (_JITTER * sd) * rng.random(vals.size)
    with np.errstate(over="ignore"):
        out = vals + noise
    over = np.isinf(out)
    if over.any():
        out[over] = vals[over] - noise[over]
    return out


def _plugin_entropy(counts: np.ndarray, n: int) -> float:
    return -math.fsum((c / n) * math.log(c / n) for c in counts)


def entropy_discrete(a: SampleColumn) -> float:
    """Plug-in Shannon entropy of a discrete column, in nats."""
    _require_kind(a, DISCRETE, "entropy_discrete")
    return _plugin_entropy(a._levels[1], a.n)


def _joint_entropy_discrete(x: SampleColumn, y: SampleColumn) -> float:
    n = _require_aligned(x, y)
    ix, x_counts = x._levels
    iy, y_counts = y._levels
    # One integer key per (x, y) cell, counted if there are at most N cells:
    # the multiset of counts of a row-wise unique, and fsum ignores order.
    keys = ix.astype(np.intp) * y_counts.size + iy
    if x_counts.size * y_counts.size > n:
        return _plugin_entropy(np.unique(keys, return_counts=True)[1], n)
    counts = np.bincount(keys)
    return _plugin_entropy(counts[counts > 0], n)


def entropy_continuous(a: SampleColumn, cfg: EstimatorConfig) -> float:
    """Kozachenko-Leonenko kNN differential entropy of a 1-D sample, in nats.

    H = psi(N) - psi(k) + (1/N) * sum_i ln(2 * eps_i), where eps_i is the
    distance from sample i to its k-th nearest neighbor. May be negative
    for concentrated distributions. Refused where the jitter leaves k + 1
    values tied, naming the most frequent value and its share of the rows.
    """
    _require_kind(a, CONTINUOUS, "entropy_continuous")
    _require_samples(a.n, cfg.k)
    eps = _kth_gap(np.sort(_jittered(a)), cfg.k)
    if np.any(eps == 0.0):
        codes, counts = a._levels
        top = int(np.argmax(counts))
        value = float(a.values[np.argmax(codes == top)])
        raise DegenerateSampleError(
            f"coincident samples: {value!r} holds {counts[top] / a.n:.1%} of "
            f"{a.n} rows, so a k-th neighbor distance is zero and the differential entropy "
            "is undefined (tied values: declare the column discrete)"
        )
    with np.errstate(over="ignore"):
        logs = np.log(2.0 * eps)
    # 2 * eps overflows float64 only where eps passes half its maximum.
    over = np.isinf(logs)
    logs[over] = np.log(eps[over]) + math.log(2.0)
    n = a.n
    return digamma(n) - digamma(cfg.k) + math.fsum(logs) / n


def _kth_gap(ordered: np.ndarray, k: int) -> np.ndarray:
    """Distance from each value of a sorted array to its k-th nearest other value.

    In 1-D the k nearest others of a point lie among its k left and k
    right neighbours in sorted order, and fl(b - a) is monotone in both
    a and b, so the k-th smallest of those 2k gaps equals the kd-tree's
    k-th neighbour distance bit for bit. The left gaps L_1..L_k grow with
    the step, and so do the right gaps R_1..R_k, so the k-th smallest of
    the two runs is min over i = 0..k of max(L_i, R_(k-i)), with
    L_0 = R_0 = -inf: k + 1 elementwise passes in O(n) memory. Padding
    with k infinities on each side makes every gap defined; with at least
    k + 1 values the result is finite, or inf where a gap passes the
    float64 maximum. The radii follow ordered.
    """
    n = ordered.size
    inf = np.full(k, np.inf)
    padded = np.concatenate((-inf, ordered, inf))
    mid = padded[k:k + n]
    with np.errstate(over="ignore"):
        out = padded[2 * k:] - mid                     # i = 0: R_k
        np.minimum(out, mid - padded[:n], out=out)     # i = k: L_k
        left, right = np.empty(n), np.empty(n)
        for i in range(1, k):
            np.subtract(mid, padded[k - i:k - i + n], out=left)
            np.subtract(padded[2 * k - i:2 * k - i + n], mid, out=right)
            np.maximum(left, right, out=left)
            np.minimum(out, left, out=out)
    return out


def _count_within(ordered: np.ndarray, order: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Strict marginal counts #{j != i : |values_j - values_i| < eps_i}.

    ordered is values[order], order an argsort of values; eps and the
    counts follow values. Binary search over the sorted distinct values u
    for the window [x - eps, x + eps], then an exact fix-up of both edges.
    fl(u - x) is monotone in u, so the values passing |u - x| < eps form
    one run that holds x itself when eps > 0. Searching the rounded bounds
    inclusively can only take in extra values at the edges, never miss one
    inside (a u beyond fl(x + eps) has u - x > eps exactly, and eps is a
    float), so each edge steps inwards until its distinct value passes. A
    row with eps == 0 counts nothing. Rows are searched in value order,
    which keeps the memory reads local. Each row's count depends only on
    its own value and radius and goes back to its own index, so the order
    of tied rows in the sort does not matter and no stable sort is needed.
    """
    first = _runs(ordered)
    u = ordered[first]
    below = np.concatenate((np.flatnonzero(first), [ordered.size]))
    x, r, rows = ordered, eps[order], order
    live = r > 0.0
    if not live.all():
        x, r, rows = x[live], r[live], rows[live]
    # A bound or distance past the float64 maximum is inf, still in order.
    with np.errstate(over="ignore"):
        lo = np.searchsorted(u, x - r, side="left")
        hi = np.searchsorted(u, x + r, side="right")
        while True:
            out = np.abs(u[lo] - x) >= r
            if not out.any():
                break
            lo += out
        while True:
            out = np.abs(u[hi - 1] - x) >= r
            if not out.any():
                break
            hi -= out
    counts = np.zeros(ordered.size, dtype=np.int64)
    counts[rows] = below[hi] - below[lo] - 1
    return counts


def mi_continuous_detailed(
    x: SampleColumn, y: SampleColumn, cfg: EstimatorConfig
) -> MIEstimate:
    """KSG type-1 mutual information with diagnostics, in nats.

    I = psi(k) + psi(N) - mean_i[psi(nx_i + 1) + psi(ny_i + 1)], where
    eps_i is the Chebyshev distance to the k-th joint neighbor and nx_i,
    ny_i count marginal neighbors strictly inside eps_i. Discrete codes
    are admitted here by jittering them into continuous treatment, but a
    pair with one discrete column is better served by mi_classwise. The
    raw estimate may be slightly negative; metric consumers clamp it.

    The max-norm joint space compares distances along x with distances
    along y, so, as Kraskov, Stoegbauer & Grassberger (2004) assume, each
    jittered column is first divided by its _spread, taken over its sorted
    values so that row order cannot move the scale. The estimate then does
    not depend on either column's units. A constant column stays unscaled.
    """
    n = _require_aligned(x, y)
    _require_samples(n, cfg.k)
    px, py = (_jittered(c) / (_spread(np.sort(c.values)) or 1.0) for c in (x, y))

    tree = cKDTree(px, py)
    eps = tree.query(cfg.k)

    # eps == 0 (>= k+1 coincident joint points) counts no marginal
    # neighbours and is reported through the deterministic-relation
    # diagnostic.
    nx = _count_within(px[tree.by_x], tree.by_x, eps)
    ny = _count_within(py[tree.by_y], tree.by_y, eps)

    mean_psi = math.fsum(_digamma_each(nx + 1) + _digamma_each(ny + 1)) / n
    value = digamma(cfg.k) + digamma(n) - mean_psi
    return MIEstimate(value=value, deterministic_relation=bool(np.any(eps == 0.0)))


def mi_classwise(codes: SampleColumn, cont: SampleColumn, cfg: EstimatorConfig) -> MIEstimate:
    """Mutual information of a discrete and a continuous column, in nats.

    The class-wise kNN estimator of Ross 2014 (PLoS ONE 9(2): e87357):

        I = psi(N) - mean_i psi(N_c) + psi(k) - mean_i psi(m_i),

    where d_i is the distance from point i to its k-th nearest neighbour
    within its own class c of cont, m_i counts the points of the whole
    of cont strictly within d_i, i itself included, and N_c is the size
    of class c. Small classes follow scikit-learn's _compute_mi_cd:
    singleton classes are dropped, so N counts the other points, and a
    class uses k_c = min(k, N_c - 1) neighbours, psi(k) becoming the mean
    of psi(k_c). cont is jittered as in KSG and the codes are not; only
    cont carries units, and the estimate does not depend on them. Where
    KSG's k joint neighbours of every point lie in its own class, KSG
    counts the same N_c and m_i up to its jitter of the codes and reduces
    in the same order, so the two mostly agree bit for bit.

    The classes come from the column's level map: a stable argsort of its
    narrow codes lists the rows class by class, and its level counts are
    the class sizes. cont is gathered into that order and sorted within
    each class, the same values as a lexsort of (values, codes); the k-th
    gaps, the marginal counts and the fsum reduction follow.
    """
    _require_kind(codes, DISCRETE, "mi_classwise")
    _require_kind(cont, CONTINUOUS, "mi_classwise")
    _require_samples(_require_aligned(codes, cont), cfg.k)
    levels, sizes = codes._levels
    keep = sizes > 1
    if not keep.any():
        raise DegenerateSampleError("class-wise MI needs a class of at least 2 samples")
    order = np.argsort(levels, kind="stable")[np.repeat(keep, sizes)]
    sizes = sizes[keep]
    ks = np.minimum(cfg.k, sizes - 1)
    ends = np.cumsum(sizes)
    n = order.size
    if ks.min() == cfg.k:
        psi_k = digamma(cfg.k)
    else:
        psi_k = math.fsum(sizes * _digamma_each(ks)) / n
    values = _jittered(cont)[order]
    eps = np.empty(n)
    for lo, hi, k in zip((ends - sizes).tolist(), ends.tolist(), ks.tolist()):
        values[lo:hi].sort()
        eps[lo:hi] = _kth_gap(values[lo:hi], k)
    by_value = np.argsort(values)
    m = _count_within(values[by_value], by_value, eps) + 1
    mean_psi = math.fsum(np.repeat(_digamma_each(sizes), sizes) + _digamma_each(m)) / n
    return MIEstimate(value=psi_k + digamma(n) - mean_psi,
                      deterministic_relation=bool(np.any(eps == 0.0)))


def mi_discrete(x: SampleColumn, y: SampleColumn) -> float:
    """Plug-in mutual information of two discrete columns, in nats.

    Computed as max(0, H(x) + H(y) - H(x, y)) from the empirical tables,
    which keeps the estimate exactly nonnegative and makes the entropy
    chain rule hold to rounding error.
    """
    _require_kind(x, DISCRETE, "mi_discrete")
    _require_kind(y, DISCRETE, "mi_discrete")
    hx = entropy_discrete(x)
    hy = entropy_discrete(y)
    hxy = _joint_entropy_discrete(x, y)
    return max(0.0, hx + hy - hxy)


def conditional_entropy(
    a: SampleColumn, b: SampleColumn, cfg: EstimatorConfig
) -> float:
    """Conditional entropy H(a | b), in nats.

    Discrete pairs use the exact identity H(a,b) - H(b) on the joint
    table. Any pair involving a continuous column uses H(a) - I(a; b)
    with the kNN estimators, class-wise for a mixed pair and KSG for a
    continuous one, so the result may be negative when a is continuous.
    """
    _require_aligned(a, b)
    if a.kind == DISCRETE and b.kind == DISCRETE:
        return _joint_entropy_discrete(a, b) - entropy_discrete(b)
    if a.kind == DISCRETE:
        return entropy_discrete(a) - mi_classwise(a, b, cfg).value
    if b.kind == DISCRETE:
        return entropy_continuous(a, cfg) - mi_classwise(b, a, cfg).value
    return entropy_continuous(a, cfg) - mi_continuous_detailed(a, b, cfg).value


def rankdata(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each value's dense code in value order, and each code's count.

    Each run of equal values after one argsort is a code, so -0.0 and 0.0
    share one and no stable sort is needed. The codes take the narrowest
    unsigned type that holds them. SampleColumn._levels finds the levels
    of every column it does not count with it.
    """
    order = np.argsort(values)
    first = _runs(values[order])
    counts = np.diff(np.append(np.flatnonzero(first), values.size))
    # Without the first row's start, the running count is the code itself.
    first[0] = False
    codes = np.empty(values.size, dtype=np.min_scalar_type(counts.size - 1))
    codes[order] = np.cumsum(first, dtype=codes.dtype)
    return codes, counts


def spearman(x: SampleColumn, y: SampleColumn) -> float:
    """Spearman rank correlation: Pearson correlation of average ranks.

    Each row's 2r - (N + 1), for its average rank r, is the integer
    2e_l - c_l - N of its level l: c_l rows follow e_l - c_l lower ones.
    Exact on the cases that matter downstream: identical rank vectors
    give 1.0, exactly reversed ranks give -1.0, and tie-free data uses
    the integer formula 1 - 6*sum(d^2)/(n*(n^2-1)). With ties, the three
    sums of the Pearson formula are exact integers, so the value depends
    on no BLAS kernel; it makes no BLAS call.
    """
    n = _require_aligned(x, y)
    (cx, distinct_x), (cy, distinct_y) = (((2 * np.cumsum(c) - c - n)[codes], c.size)
                                          for codes, c in (x._levels, y._levels))
    for distinct, label in ((distinct_x, "x"), (distinct_y, "y")):
        if distinct < 2:
            raise UndefinedCorrelationError(
                f"spearman undefined: column {label} is constant"
            )
    if np.array_equal(cx, cy):
        return 1.0
    if np.array_equal(cx, -cy):
        return -1.0
    if distinct_x == distinct_y == n:
        # Tie-free ranks are exact integers, and so is half their difference.
        d = (cx - cy) // 2
        return 1.0 - (6.0 * _int_dot(d, d)) / (n * (n * n - 1.0))
    # The 4s that doubling puts into the sums cancel exactly in the quotient.
    return _int_dot(cx, cy) / math.sqrt(float(_int_dot(cx, cx)) * float(_int_dot(cy, cy)))


def _int_dot(a: np.ndarray, b: np.ndarray) -> int:
    """Exact sum of a*b for int64 arrays whose entries lie within +-a.size.

    Each chunk's sum stays below 2**62, so int64 cannot overflow.
    """
    n = a.size
    step = max(1, 2**62 // (n * n))
    return sum(int(np.dot(a[i:i + step], b[i:i + step])) for i in range(0, n, step))
