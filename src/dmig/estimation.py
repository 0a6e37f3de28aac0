"""Nonparametric information estimators over sample columns.

Implements the estimator layer used by the metric computations:

* plug-in Shannon entropy and mutual information for discrete columns,
* Kozachenko-Leonenko kNN differential entropy for continuous columns,
* the class-wise kNN mutual information of Ross (2014) for a discrete
  column paired with a continuous one,
* KSG (type 1) kNN mutual information for continuous pairs,
* conditional entropy assembled from the above,
* Spearman rank correlation.

All quantities are in nats. Continuous estimators break ties with
deterministic, content-keyed jitter: the noise applied to a column is a
pure function of the config seed and the column bytes, so estimates are
reproducible, symmetric in their arguments, and safe to compute
concurrently. Mean reductions use math.fsum, which makes results
invariant under joint row permutations of pre-jittered data. Every
digamma argument is a positive integer and is evaluated exactly here;
scipy is imported only for the kd-tree of a continuous pair.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
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
        if self.kind == DISCRETE and not np.array_equal(vals, np.floor(vals)):
            raise KindMismatchError("discrete column contains non-integer codes")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs shared by all kNN estimators.

    k: neighbor count; jitter: tie-breaking noise amplitude as a fraction
    of the column standard deviation; seed: keys the jitter noise. Every
    estimate is in nats (closed-form oracles are natural-log).
    """

    k: int = 3
    jitter: float = 1e-10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InsufficientSamplesError(f"k must be >= 1, got {self.k}")
        if not (0.0 <= self.jitter < math.inf):
            raise DegenerateSampleError(f"jitter must be finite and >= 0, got {self.jitter}")
        if not (0 <= self.seed < 2**64):
            raise DegenerateSampleError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class MIEstimate:
    """Raw KSG estimate plus the deterministic-relation diagnostic.

    deterministic_relation is set when some k-th neighbor distance in the
    joint space underflows to zero, i.e. the sample contains at least k+1
    coincident joint points even after jitter. The value stays finite.
    """

    value: float
    deterministic_relation: bool


class cKDTree:
    """scipy's kd-tree over the rows of data, loaded on first use.

    Importing scipy.spatial takes longer than a whole evaluation without
    a continuous pair, and only the KSG estimate of a continuous pair
    builds a kd-tree, so the import waits until one runs.
    """

    def __init__(self, data: np.ndarray) -> None:
        import scipy.spatial

        self._tree = scipy.spatial.cKDTree(data)

    def query(self, *args, **kwargs):
        return self._tree.query(*args, **kwargs)


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


def _jittered(col: SampleColumn, cfg: EstimatorConfig) -> np.ndarray:
    """Return column values with deterministic tie-breaking noise.

    The noise stream is keyed by (seed, column content), not by argument
    position, so mi(x, y) and mi(y, x) see identical point clouds and the
    estimates agree bit for bit. Zero jitter or a constant column returns
    the values unchanged.
    """
    vals = col.values
    if cfg.jitter == 0.0:
        return vals
    sd = float(np.std(vals))
    if sd == 0.0:
        return vals
    key = hashlib.blake2b(
        cfg.seed.to_bytes(8, "little") + vals.tobytes(), digest_size=16
    ).digest()
    rng = np.random.default_rng(int.from_bytes(key, "little"))
    return vals + (cfg.jitter * sd) * rng.random(vals.size)


def _plugin_entropy(counts: np.ndarray, n: int) -> float:
    return -math.fsum((c / n) * math.log(c / n) for c in counts)


def entropy_discrete(a: SampleColumn) -> float:
    """Plug-in Shannon entropy of a discrete column, in nats."""
    _require_kind(a, DISCRETE, "entropy_discrete")
    _, counts = np.unique(a.values, return_counts=True)
    return _plugin_entropy(counts, a.n)


def _joint_entropy_discrete(x: SampleColumn, y: SampleColumn) -> float:
    n = _require_aligned(x, y)
    _, ix = np.unique(x.values, return_inverse=True)
    y_codes, iy = np.unique(y.values, return_inverse=True)
    # One integer key per (x, y) cell: the same multiset of counts as a
    # row-wise unique of the pairs, and fsum ignores their order.
    _, counts = np.unique(ix * y_codes.size + iy, return_counts=True)
    return _plugin_entropy(counts, n)


def entropy_continuous(a: SampleColumn, cfg: EstimatorConfig) -> float:
    """Kozachenko-Leonenko kNN differential entropy of a 1-D sample, in nats.

    H = psi(N) - psi(k) + (1/N) * sum_i ln(2 * eps_i), where eps_i is the
    distance from sample i to its k-th nearest neighbor. May be negative
    for concentrated distributions.
    """
    _require_kind(a, CONTINUOUS, "entropy_continuous")
    _require_samples(a.n, cfg.k)
    pts = _jittered(a, cfg)
    if float(np.std(pts)) == 0.0:
        raise DegenerateSampleError("zero-variance column after jitter")
    eps = _kth_gap(pts, cfg.k)
    if np.any(eps == 0.0):
        raise DegenerateSampleError(
            "coincident samples: k-th neighbor distance is zero, "
            "differential entropy undefined (increase jitter)"
        )
    n = a.n
    return digamma(n) - digamma(cfg.k) + math.fsum(np.log(2.0 * eps)) / n


def _kth_gap(values: np.ndarray, k: int) -> np.ndarray:
    """Distance from each value to its k-th nearest other value, in value order.

    In 1-D the k nearest others of a point lie among its k left and k
    right neighbours in sorted order, and fl(b - a) is monotone in both
    a and b, so the k-th smallest of those 2k gaps equals the kd-tree's
    k-th neighbour distance bit for bit. Padding with k infinities on
    each side makes every gap defined; with at least k + 1 values the
    result is finite. Rows come out sorted by value, not in input order.
    """
    n = values.size
    inf = np.full(k, np.inf)
    padded = np.concatenate((-inf, np.sort(values), inf))
    mid = padded[k:k + n]
    gaps = np.empty((n, 2 * k))
    for j in range(1, k + 1):
        gaps[:, j - 1] = mid - padded[k - j:k - j + n]
        gaps[:, k + j - 1] = padded[k + j:k + j + n] - mid
    return np.partition(gaps, k - 1, axis=1)[:, k - 1]


def _count_within(values: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Strict marginal counts #{j != i : |values_j - values_i| < eps_i}.

    Binary search over the sorted distinct values u for the window
    [x - eps, x + eps], then an exact fix-up of both edges. fl(u - x) is
    monotone in u, so the values passing |u - x| < eps form one run that
    holds x itself when eps > 0. Searching the rounded bounds inclusively
    can only take in extra values at the edges, never miss one inside (a
    u beyond fl(x + eps) has u - x > eps exactly, and eps is a float), so
    each edge steps inwards until its distinct value passes. A row with
    eps == 0 counts nothing. Rows are searched in value order, which keeps
    the memory reads local. Each row's count depends only on its own value
    and radius and goes back to its own index, so the order of tied rows
    in the sort does not matter and no stable sort is needed.
    """
    order = np.argsort(values)
    ordered = values[order]
    first = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    u = ordered[first]
    below = np.concatenate((np.flatnonzero(first), [values.size]))
    radius = eps[order]
    live = radius > 0.0
    x = ordered[live]
    r = radius[live]
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
    counts = np.zeros(values.size, dtype=np.int64)
    counts[order[live]] = below[hi] - below[lo] - 1
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
    """
    n = _require_aligned(x, y)
    _require_samples(n, cfg.k)
    px = _jittered(x, cfg)
    py = _jittered(y, cfg)

    joint = np.column_stack([px, py])
    tree = cKDTree(joint)
    eps = tree.query(joint, k=[cfg.k + 1], p=np.inf)[0][:, 0]

    # eps == 0 (>= k+1 coincident joint points) counts no marginal
    # neighbours and is reported through the deterministic-relation
    # diagnostic.
    nx = _count_within(px, eps)
    ny = _count_within(py, eps)

    mean_psi = math.fsum(_digamma_each(nx + 1) + _digamma_each(ny + 1)) / n
    value = digamma(cfg.k) + digamma(n) - mean_psi
    return MIEstimate(value=value, deterministic_relation=bool(np.any(eps == 0.0)))


def mi_classwise(
    x: SampleColumn, y: SampleColumn, cfg: EstimatorConfig
) -> MIEstimate:
    """Mutual information of a discrete and a continuous column, in nats.

    The class-wise kNN estimator of Ross 2014 (PLoS ONE 9(2): e87357):

        I = psi(N) - mean_i psi(N_c) + psi(k) - mean_i psi(m_i),

    where d_i is the distance from point i to its k-th nearest neighbour
    within its own class c of the continuous column, m_i counts the points
    of the whole column strictly within d_i, i itself included, and N_c is
    the size of class c. Small classes follow scikit-learn's
    _compute_mi_cd: singleton classes are dropped, so N counts the other
    points, and a class uses k_c = min(k, N_c - 1) neighbours, psi(k)
    becoming the mean of psi(k_c). The continuous column is jittered as in
    KSG; the discrete one is not, and no kd-tree is built. Only the
    continuous column carries units, so the estimate does not depend on
    them. Where KSG's k joint neighbours of every point lie in the point's
    own class, KSG counts the same N_c and m_i up to its jitter of the
    codes, and the reduction runs in KSG's order, so the two mostly agree
    bit for bit.
    """
    _require_samples(_require_aligned(x, y), cfg.k)
    codes, cont = (x, y) if x.kind == DISCRETE else (y, x)
    _require_kind(codes, DISCRETE, "mi_classwise")
    _require_kind(cont, CONTINUOUS, "mi_classwise")
    pts = _jittered(cont, cfg)
    order = np.lexsort((pts, codes.values))
    ordered = codes.values[order]
    bounds = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    classes = [c for c in np.split(pts[order], bounds) if c.size > 1]
    if not classes:
        raise DegenerateSampleError("class-wise MI needs a class of at least 2 samples")
    sizes = np.array([c.size for c in classes])
    ks = np.minimum(cfg.k, sizes - 1)
    # Each class is in value order, the order of _kth_gap's radii, so
    # values and eps stay row-aligned.
    values = np.concatenate(classes)
    eps = np.concatenate([_kth_gap(c, int(k)) for c, k in zip(classes, ks)])
    m = _count_within(values, eps) + 1
    n = values.size
    if ks.min() == cfg.k:
        psi_k = digamma(cfg.k)
    else:
        psi_k = math.fsum(sizes * _digamma_each(ks)) / n
    mean_psi = math.fsum(_digamma_each(np.repeat(sizes, sizes)) + _digamma_each(m)) / n
    value = psi_k + digamma(n) - mean_psi
    return MIEstimate(value=value, deterministic_relation=bool(np.any(eps == 0.0)))


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
        h_a = entropy_discrete(a)
    else:
        h_a = entropy_continuous(a, cfg)
    mi = mi_continuous_detailed if a.kind == b.kind else mi_classwise
    return h_a - mi(a, b, cfg).value


def rankdata(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Average ranks from 1 and the number of distinct values.

    Tied values share the mean of their ranks; the ranks equal
    scipy.stats.rankdata(values, method="average"), float64 too. Every
    member of a tie gets the same rank, so the order of tied values in the
    sort does not matter and no stable sort is needed.
    """
    order = np.argsort(values)
    ordered = values[order]
    first = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    dense = np.empty(values.size, dtype=np.intp)
    dense[order] = np.cumsum(first)
    count = np.concatenate((np.flatnonzero(first), [values.size]))
    return 0.5 * (count[dense] + count[dense - 1] + 1), count.size - 1


def spearman(x: SampleColumn, y: SampleColumn) -> float:
    """Spearman rank correlation: Pearson correlation of average ranks.

    Exact on the cases that matter downstream: identical rank vectors
    give 1.0, exactly reversed ranks give -1.0, and tie-free data uses
    the integer formula 1 - 6*sum(d^2)/(n*(n^2-1)).
    """
    n = _require_aligned(x, y)
    rx, distinct_x = rankdata(x.values)
    ry, distinct_y = rankdata(y.values)
    for distinct, label in ((distinct_x, "x"), (distinct_y, "y")):
        if distinct < 2:
            raise UndefinedCorrelationError(
                f"spearman undefined: column {label} is constant"
            )
    if np.array_equal(rx, ry):
        return 1.0
    if np.array_equal(rx, (n + 1.0) - ry):
        return -1.0
    if distinct_x == distinct_y == n:
        # Tie-free ranks are exact integers; each chunk's sum of squared
        # differences stays below 2**62, so int64 cannot overflow.
        d = (rx - ry).astype(np.int64)
        step = max(1, 2**62 // (n * n))
        d2 = sum(int(np.dot(d[i:i + step], d[i:i + step])) for i in range(0, n, step))
        return 1.0 - (6.0 * d2) / (n * (n * n - 1.0))
    cx = rx - rx.mean()
    cy = ry - ry.mean()
    return float(np.dot(cx, cy) / math.sqrt(np.dot(cx, cx) * np.dot(cy, cy)))
