"""Dataset-level MI profiles and the MIG / DMIG metrics.

MIG for attribute a_i is the normalized gap between the mutual
information carried by its regularized latent dimension and by the
strongest other dimension:

    MIG(a_i) = (I(a_i, z_map(i)) - I(a_i, z_j)) / H(a_i),
    j = argmax_{k != map(i)} I(a_i, z_k).

The first term is always taken at the regularized dimension, so MIG goes
negative when another dimension dominates (regularization failure).

DMIG keeps the numerator and swaps the normalizer: when the runner-up
dimension j is itself regularized for some attribute a_j, the denominator
becomes the conditional entropy H(a_i | a_j), which discounts the MI that
z_j holds about a_i merely through the attribute dependence. When the
runner-up is unregularized, DMIG reduces to MIG exactly. Conditional
differential entropy can be negative or near zero, which is surfaced
through flags and a signed infinity sentinel rather than clamped away.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Literal

import numpy as np

from .errors import (
    DatasetInvariantError,
    DmigError,
    MetricComputationError,
    ZeroEntropyAttributeError,
)
from .estimation import (
    CONTINUOUS,
    DISCRETE,
    EstimatorConfig,
    SampleColumn,
    _integer_valued,
    _joint_entropy_discrete,
    entropy_continuous,
    entropy_discrete,
    mi_classwise,
    mi_continuous_detailed,
    spearman,
)

__all__ = [
    "Dataset",
    "MIProfile",
    "AttributeMetrics",
    "MetricReport",
    "mi_profile",
    "compute_dmig",
    "evaluate",
    "FLAG_REGULARIZATION_FAILURE",
    "FLAG_NEAR_ZERO_DENOMINATOR",
    "FLAG_NEGATIVE_DENOMINATOR",
    "FLAG_DMIG_ABOVE_ONE",
    "EPS_ENTROPY",
    "EPS_DENOMINATOR",
]

FLAG_REGULARIZATION_FAILURE = "regularization_failure"
FLAG_NEAR_ZERO_DENOMINATOR = "near_zero_denominator"
FLAG_NEGATIVE_DENOMINATOR = "negative_denominator"
FLAG_DMIG_ABOVE_ONE = "dmig_above_one"
_FLAGS = frozenset(
    {FLAG_REGULARIZATION_FAILURE, FLAG_NEAR_ZERO_DENOMINATOR,
     FLAG_NEGATIVE_DENOMINATOR, FLAG_DMIG_ABOVE_ONE}
)

# Attribute entropies at or below EPS_ENTROPY make the normalization
# undefined and are rejected; |denominator| below EPS_DENOMINATOR trips
# the signed-infinity sentinel instead of dividing.
EPS_ENTROPY = 1e-9
EPS_DENOMINATOR = 1e-6

Branch = Literal["regularized", "unregularized"]


def _infer_kind(values: np.ndarray) -> str:
    return DISCRETE if _integer_valued(values) else CONTINUOUS


@dataclass(frozen=True, eq=False)
class Dataset:
    """N samples of a D-dimensional latent code paired with M attributes.

    regularized_map[i] is the 0-based latent dimension supervised to
    encode attribute i (identity by default); it must be injective.
    Latent column kinds are inferred: a column whose entries are all
    integer-valued is treated as discrete.
    """

    latents: np.ndarray
    attributes: tuple[SampleColumn, ...]
    regularized_map: tuple[int, ...] | None = None
    names: tuple[str, ...] | None = None
    latent_kinds: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        lat = np.array(self.latents, dtype=np.float64, copy=True)
        if lat.ndim != 2:
            raise DatasetInvariantError("latents must be an N x D matrix")
        if not np.all(np.isfinite(lat)):
            raise DatasetInvariantError("latents contain NaN or infinite entries")
        lat.setflags(write=False)
        n, d = lat.shape
        if n < 2 or d < 1:
            raise DatasetInvariantError(f"latents need N >= 2 and D >= 1, got {lat.shape}")

        attrs = tuple(self.attributes)
        m = len(attrs)
        for i, col in enumerate(attrs):
            if not isinstance(col, SampleColumn):
                raise DatasetInvariantError(f"attribute {i} is not a SampleColumn")
            if col.n != n:
                raise DatasetInvariantError(
                    f"attribute {i} has N={col.n}, latents have N={n}"
                )
        if m > d:
            raise DatasetInvariantError(f"M={m} attributes exceed D={d} latent dims")

        reg = self.regularized_map
        reg = tuple(range(m)) if reg is None else tuple(int(j) for j in reg)
        if len(reg) != m:
            raise DatasetInvariantError("regularized_map length must equal M")
        if any(j < 0 or j >= d for j in reg):
            raise DatasetInvariantError("regularized_map targets outside 0..D-1")
        if len(set(reg)) != m:
            raise DatasetInvariantError("regularized_map must be injective")

        names = self.names
        names = tuple(str(i + 1) for i in range(m)) if names is None else tuple(names)
        if len(names) != m:
            raise DatasetInvariantError("names length must equal M")
        if len(set(names)) != m:
            raise DatasetInvariantError("attribute names must be unique")
        if any(not s for s in names):
            raise DatasetInvariantError("attribute names must be nonempty")

        object.__setattr__(self, "latents", lat)
        object.__setattr__(self, "attributes", attrs)
        object.__setattr__(self, "regularized_map", reg)
        object.__setattr__(self, "names", names)
        object.__setattr__(
            self, "latent_kinds", tuple(_infer_kind(lat[:, j]) for j in range(d))
        )

    @property
    def n(self) -> int:
        return int(self.latents.shape[0])

    @property
    def d(self) -> int:
        return int(self.latents.shape[1])

    @property
    def m(self) -> int:
        return len(self.attributes)

    def latent_column(self, j: int) -> SampleColumn:
        return SampleColumn(self.latents[:, j], kind=self.latent_kinds[j])

    def digest(self) -> str:
        """Content hash covering latents, attributes, map and names."""
        h = hashlib.blake2b(digest_size=16)
        h.update(np.asarray(self.latents.shape, dtype=np.int64).tobytes())
        h.update(self.latents.tobytes())
        for name, col in zip(self.names, self.attributes):
            h.update(name.encode())
            h.update(col.kind.encode())
            h.update(col.values.tobytes())
        h.update(np.asarray(self.regularized_map, dtype=np.int64).tobytes())
        return h.hexdigest()


@dataclass(frozen=True, eq=False)
class MIProfile:
    """All estimated information quantities a metric pass needs.

    mi is clamped at zero from below; mi_raw keeps the unclamped kNN
    estimates for diagnostics. Its discrete x discrete cells are plug-in
    estimates, clamped at zero there too, as in mi_discrete. h_cond[i][j]
    is H(a_i | a_j); the diagonal is unused and left at zero.
    """

    mi: np.ndarray
    mi_raw: np.ndarray
    h_marginal: np.ndarray
    h_cond: np.ndarray


@dataclass(frozen=True)
class AttributeMetrics:
    """Per-attribute metric record carried by a MetricReport."""

    name: str | None
    mig: float
    dmig: float
    scc: float | None
    top_dim: int
    runner_up_dim: int | None
    branch: Branch
    denominator: float
    flags: frozenset[str]


@dataclass(frozen=True)
class MetricReport:
    """Self-describing evaluation result for one dataset."""

    per_attribute: tuple[AttributeMetrics, ...]
    mean_mig: float
    mean_dmig: float
    config_echo: EstimatorConfig
    dataset_digest: str


def _entropy_cell(col: SampleColumn, cfg: EstimatorConfig) -> float:
    return entropy_discrete(col) if col.kind == DISCRETE else entropy_continuous(col, cfg)


def _pair_cell(x: SampleColumn, y: SampleColumn, cfg: EstimatorConfig) -> tuple[bool, float]:
    """(True, H(x, y)) for a discrete pair, else (False, I(x; y)).

    I(x; y) is class-wise when exactly one column is discrete, else KSG.
    """
    if x.kind == DISCRETE and y.kind == DISCRETE:
        return True, _joint_entropy_discrete(x, y)
    if x.kind == y.kind:
        return False, mi_continuous_detailed(x, y, cfg).value
    codes, cont = (x, y) if x.kind == DISCRETE else (y, x)
    return False, mi_classwise(codes, cont, cfg).value


def _pair_info(cell: tuple[bool, float], h_x: float, h_y: float | None) -> tuple[float, float]:
    """I(x; y) and H(x | y) from a pair cell and the entropies of x and y.

    The discrete branch repeats the operations of mi_discrete and
    conditional_entropy in their order, so it equals them bit for bit.
    """
    joint, v = cell
    if joint:
        return max(0.0, h_x + h_y - v), v - h_y
    return v, h_x - v


def _run_cell(cell: tuple[str, Callable[..., object], tuple]) -> object:
    """Evaluate one profile cell, naming its attribute and latent on failure."""
    context, fn, args = cell
    try:
        return fn(*args)
    except DmigError as exc:
        raise MetricComputationError(f"{context}: {exc}") from exc


def mi_profile(ds: Dataset, cfg: EstimatorConfig, workers: int = 1) -> MIProfile:
    """Estimate every I(a_i, z_d), H(a_i) and H(a_i | a_j) for a dataset.

    Each cell is estimated once: the entropy of every attribute and every
    discrete latent, and one _pair_cell per (attribute, latent) pair and
    per unordered attribute pair. Each discrete column finds its levels
    once, in whichever of its cells first needs them. The kNN estimators
    are symmetric bit for bit, so mi_raw equals mi_discrete on discrete
    cells and h_cond equals conditional_entropy exactly. With workers > 1
    the cells run in a thread pool; each is a pure function of its
    inputs, so concurrent results equal serial ones exactly.
    """
    if ds.n <= cfg.k:
        raise MetricComputationError(
            f"dataset has N={ds.n} samples but estimators need N >= k+1 with k={cfg.k}"
        )
    m, d = ds.m, ds.d
    cols = list(ds.attributes) + [ds.latent_column(j) for j in range(d)]
    labels = [f"attribute '{name}' (index {i})" for i, name in enumerate(ds.names)]
    labels += [f"latent z{j + 1}" for j in range(d)]
    entropies = [c for c, col in enumerate(cols) if c < m or col.kind == DISCRETE]
    pairs = [(i, m + j) for i in range(m) for j in range(d)]
    pairs += [(i, j) for i in range(m) for j in range(i + 1, m)]
    cells = [
        (f"entropy estimation failed for {labels[c]}", _entropy_cell, (cols[c], cfg))
        for c in entropies
    ]
    cells += [
        (f"MI estimation failed for {labels[x]} vs {labels[y]}", _pair_cell,
         (cols[x], cols[y], cfg))
        for x, y in pairs
    ]
    if workers > 1:
        # Imported here: it loads logging and more, which no serial run needs.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            values = list(pool.map(_run_cell, cells))
    else:
        values = [_run_cell(cell) for cell in cells]

    h = dict(zip(entropies, values))
    mi_raw = np.zeros((m, d))
    h_cond = np.zeros((m, m))
    for (x, y), cell in zip(pairs, values[len(entropies):]):
        if y >= m:
            mi_raw[x, y - m] = _pair_info(cell, h[x], h.get(y))[0]
        else:
            h_cond[x, y] = _pair_info(cell, h[x], h[y])[1]
            h_cond[y, x] = _pair_info(cell, h[y], h[x])[1]

    h_marginal = np.array([h[i] for i in range(m)])
    mi = np.maximum(mi_raw, 0.0)
    for arr in (mi, mi_raw, h_marginal, h_cond):
        arr.setflags(write=False)
    return MIProfile(mi=mi, mi_raw=mi_raw, h_marginal=h_marginal, h_cond=h_cond)


def compute_dmig(
    i: int,
    p: MIProfile,
    regularized_map: tuple[int, ...],
    name: str | None = None,
) -> AttributeMetrics:
    """MIG and DMIG for attribute i, with branch selection and diagnostics.

    The argmax for the runner-up excludes the regularized dimension and
    breaks ties toward the lowest dimension index. When some other
    dimension carries more information about a_i than its regularized
    one, MIG goes negative and the regularization_failure flag is set.

    If the runner-up dimension is in the image of the regularized map,
    the denominator is H(a_i | a_j) for the attribute a_j mapped there
    (branch "regularized"); otherwise it is H(a_i) and DMIG equals MIG
    exactly (branch "unregularized"). A near-zero denominator yields a
    signed infinity sentinel instead of a division; a negative
    denominator is computed as-is and flagged. The dmig_above_one flag
    covers both ways the metric can exceed its ideal ceiling: a value
    above 1, or a negative denominator (where the ratio semantics break
    down entirely).
    """
    map_i = regularized_map[i]
    row = p.mi[i]
    h_i = float(p.h_marginal[i])
    if h_i <= EPS_ENTROPY:
        raise ZeroEntropyAttributeError(
            f"attribute index {i} has entropy {h_i!r} <= {EPS_ENTROPY}; "
            "MIG/DMIG normalization undefined",
            attribute_index=i,
        )
    top_dim = int(np.argmax(row))
    if row.size == 1:
        runner_up_dim: int | None = None
        runner_mi = 0.0
    else:
        masked = row.copy()
        masked[map_i] = -np.inf
        runner_up_dim = int(np.argmax(masked))
        runner_mi = float(row[runner_up_dim])
    numerator = float(row[map_i]) - runner_mi
    flags = set()
    if top_dim != map_i:
        flags.add(FLAG_REGULARIZATION_FAILURE)

    image = {dim: a for a, dim in enumerate(regularized_map)}
    if runner_up_dim is not None and runner_up_dim in image:
        branch: Branch = "regularized"
        denominator = float(p.h_cond[i][image[runner_up_dim]])
    else:
        branch = "unregularized"
        denominator = h_i

    if abs(denominator) < EPS_DENOMINATOR:
        dmig = math.inf if numerator >= 0 else -math.inf
        flags.add(FLAG_NEAR_ZERO_DENOMINATOR)
    else:
        dmig = numerator / denominator
    if denominator < 0.0:
        flags.add(FLAG_NEGATIVE_DENOMINATOR)
    if denominator < 0.0 or dmig > 1.0:
        flags.add(FLAG_DMIG_ABOVE_ONE)

    return AttributeMetrics(
        name=name,
        mig=numerator / h_i,
        dmig=dmig,
        scc=None,
        top_dim=top_dim,
        runner_up_dim=runner_up_dim,
        branch=branch,
        denominator=denominator,
        flags=frozenset(flags),
    )


def _mean(vals: list[float]) -> float:
    # fsum keeps aggregates permutation-invariant but rejects mixed
    # infinities; sentinel-bearing reports fall back to plain summation.
    if all(math.isfinite(v) for v in vals):
        return math.fsum(vals) / len(vals)
    return sum(vals) / len(vals)


def evaluate(ds: Dataset, cfg: EstimatorConfig, workers: int = 1) -> MetricReport:
    """Full evaluation: MI profile, per-attribute MIG/DMIG/SCC, aggregates.

    SCC is the Spearman correlation between each attribute and its
    regularized latent dimension. Aggregates are arithmetic means; they
    go non-finite if any attribute hit the denominator sentinel.
    """
    if ds.m == 0:
        raise DatasetInvariantError("dataset has no attributes; nothing to evaluate")
    profile = mi_profile(ds, cfg, workers=workers)
    per = []
    for i in range(ds.m):
        am = compute_dmig(i, profile, ds.regularized_map, name=ds.names[i])
        context = f"SCC failed for attribute '{ds.names[i]}' (index {i})"
        pair = (ds.attributes[i], ds.latent_column(ds.regularized_map[i]))
        per.append(replace(am, scc=_run_cell((context, spearman, pair))))
    mean_mig = _mean([a.mig for a in per])
    mean_dmig = _mean([a.dmig for a in per])
    return MetricReport(
        per_attribute=tuple(per),
        mean_mig=mean_mig,
        mean_dmig=mean_dmig,
        config_echo=cfg,
        dataset_digest=ds.digest(),
    )
