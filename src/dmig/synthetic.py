"""Synthetic datasets with analytically known information quantities.

Three families, all with M=2 attributes:

* gaussian_pair: (a_1, a_2) bivariate standard normal with correlation
  rho, latents are exact copies plus optional noise dimensions. Entropies
  and MI have closed forms.
* discrete_joint: (a_1, a_2) i.i.d. from a given 2-D pmf, latents exact
  copies. Ground truth by enumeration over the table.
* trajectory: fixed gaussian_pair attributes re-encoded per epoch as
  z_i = a_i + sigma_t * noise with sigma_t from a decreasing schedule,
  simulating a training run whose encoder improves over time.

Generation is pure and seeded: the same spec reproduces the same dataset
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SpecValidationError
from .estimation import CONTINUOUS, DISCRETE, SampleColumn
from .metrics import EPS_DENOMINATOR, Dataset

__all__ = [
    "SyntheticSpec",
    "GroundTruth",
    "gen_gaussian_pair",
    "gen_discrete_joint",
    "gen_trajectory",
    "gaussian_truth",
    "discrete_truth",
]


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for one synthetic dataset family."""

    family: str
    n: int
    seed: int
    rho: float = 0.0
    pmf: tuple[tuple[float, ...], ...] | None = None
    noise_schedule: tuple[float, ...] | None = None
    d_total: int = 2

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise SpecValidationError(f"unknown family {self.family!r}")
        if self.n < 2:
            raise SpecValidationError(f"n must be >= 2, got {self.n}")
        if not (0 <= self.seed < 2**64):
            raise SpecValidationError("seed must fit in 64 unsigned bits")
        if self.d_total < 2:
            raise SpecValidationError(
                f"d_total must be >= M=2, got {self.d_total}"
            )
        if self.family in ("gaussian_pair", "trajectory"):
            if not abs(self.rho) < 1.0:
                raise SpecValidationError(f"|rho| must be < 1, got {self.rho}")
        if self.family == "discrete_joint":
            if self.pmf is None:
                raise SpecValidationError("discrete_joint requires a pmf")
            rows = tuple(tuple(float(v) for v in row) for row in self.pmf)
            if not rows or any(len(r) != len(rows[0]) or not r for r in rows):
                raise SpecValidationError("pmf must be a nonempty rectangular table")
            flat = [v for row in rows for v in row]
            # Both checks are written so that a NaN entry fails them.
            if not all(v >= 0.0 for v in flat):
                raise SpecValidationError("pmf entries must be >= 0")
            if not abs(math.fsum(flat) - 1.0) <= 1e-12:
                raise SpecValidationError("pmf must sum to 1 within 1e-12")
            object.__setattr__(self, "pmf", rows)
        if self.family == "trajectory":
            if not self.noise_schedule:
                raise SpecValidationError("trajectory requires a noise_schedule")
            sched = tuple(float(s) for s in self.noise_schedule)
            if any(not (s > 0.0) for s in sched):
                raise SpecValidationError("noise_schedule must be strictly positive")
            if any(b >= a for a, b in zip(sched, sched[1:])):
                raise SpecValidationError("noise_schedule must be strictly decreasing")
            object.__setattr__(self, "noise_schedule", sched)


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Closed-form information quantities for a synthetic family.

    ideal_dmig is the DMIG an exact-copy encoder attains: 1.0 for
    discrete families (where I(a_i; z_i) = H(a_i) holds), NaN where the
    ideal value is undefined - continuous copies have divergent MI, and a
    (near-)zero conditional entropy hits the denominator sentinel.
    """

    h_a: tuple[float, float]
    i_a1a2: float
    h_cond: tuple[tuple[float, float], tuple[float, float]]
    ideal_dmig: tuple[float, float]


def gaussian_truth(rho: float) -> GroundTruth:
    """Closed forms for a bivariate standard normal pair."""
    h = 0.5 * math.log(2.0 * math.pi * math.e)
    i = -0.5 * math.log(1.0 - rho * rho)
    hc = h - i
    return GroundTruth(
        h_a=(h, h),
        i_a1a2=i,
        h_cond=((0.0, hc), (hc, 0.0)),
        ideal_dmig=(math.nan, math.nan),
    )


def discrete_truth(pmf: tuple[tuple[float, ...], ...]) -> GroundTruth:
    """Enumerated entropies and MI for a 2-D probability table."""
    rows = [math.fsum(r) for r in pmf]
    cols = [math.fsum(r[j] for r in pmf) for j in range(len(pmf[0]))]

    def h(ps: list[float]) -> float:
        return -math.fsum(p * math.log(p) for p in ps if p > 0.0)

    h1 = h(rows)
    h2 = h(cols)
    h12 = h([v for r in pmf for v in r])
    i = max(0.0, h1 + h2 - h12)
    hc12 = h1 - i
    hc21 = h2 - i
    ideal = tuple(
        1.0 if abs(hc) >= EPS_DENOMINATOR else math.nan for hc in (hc12, hc21)
    )
    return GroundTruth(
        h_a=(h1, h2),
        i_a1a2=i,
        h_cond=((0.0, hc12), (hc21, 0.0)),
        ideal_dmig=ideal,
    )


def _require_family(spec: SyntheticSpec, family: str) -> None:
    if spec.family != family:
        raise SpecValidationError(
            f"spec has family {spec.family!r}, generator expects {family!r}"
        )


def _gaussian_attributes(spec: SyntheticSpec, rng: np.random.Generator):
    g = rng.standard_normal((spec.n, 2))
    a1 = g[:, 0]
    a2 = spec.rho * a1 + math.sqrt(1.0 - spec.rho * spec.rho) * g[:, 1]
    return a1, a2


def _dataset(
    spec: SyntheticSpec,
    first_two: tuple[np.ndarray, np.ndarray],
    attrs: tuple[SampleColumn, SampleColumn],
    rng: np.random.Generator,
) -> Dataset:
    """The encoded pair followed by d_total - 2 noise dimensions from rng."""
    noise = rng.standard_normal((spec.n, spec.d_total - 2))
    return Dataset(latents=np.column_stack([*first_two, noise]), attributes=attrs)


def gen_gaussian_pair(spec: SyntheticSpec) -> tuple[Dataset, GroundTruth]:
    """Correlated Gaussian attributes with an exact-copy encoder."""
    _require_family(spec, "gaussian_pair")
    rng = np.random.default_rng(spec.seed)
    a1, a2 = _gaussian_attributes(spec, rng)
    attrs = (SampleColumn(a1, kind=CONTINUOUS), SampleColumn(a2, kind=CONTINUOUS))
    return _dataset(spec, (a1, a2), attrs, rng), gaussian_truth(spec.rho)


def gen_discrete_joint(spec: SyntheticSpec) -> tuple[Dataset, GroundTruth]:
    """Discrete attribute pair sampled from a pmf, exact-copy encoder."""
    _require_family(spec, "discrete_joint")
    rng = np.random.default_rng(spec.seed)
    flat = np.array([v for row in spec.pmf for v in row], dtype=np.float64)
    codes = rng.choice(flat.size, size=spec.n, p=flat / flat.sum())
    ncols = len(spec.pmf[0])
    a1 = (codes // ncols).astype(np.float64)
    a2 = (codes % ncols).astype(np.float64)
    attrs = (SampleColumn(a1, kind=DISCRETE), SampleColumn(a2, kind=DISCRETE))
    return _dataset(spec, (a1, a2), attrs, rng), discrete_truth(spec.pmf)


def gen_trajectory(spec: SyntheticSpec) -> list[tuple[int, Dataset]]:
    """Epoch-indexed datasets with shared attributes and shrinking noise.

    Attributes are drawn once from the gaussian_pair model; epoch t
    encodes them as z_i = a_i + sigma_t * eps with fresh seeded noise
    (and fresh noise dimensions beyond the first two, when d_total > 2).
    """
    _require_family(spec, "trajectory")
    rng = np.random.default_rng(spec.seed)
    a1, a2 = _gaussian_attributes(spec, rng)
    attrs = (SampleColumn(a1, kind=CONTINUOUS), SampleColumn(a2, kind=CONTINUOUS))
    epochs = []
    for t, sigma in enumerate(spec.noise_schedule):
        # key [seed, 0] would collide with the attribute stream: seed
        # sequences zero-pad entropy, so [s] and [s, 0] are identical.
        erng = np.random.default_rng([spec.seed, t + 1])
        noise = erng.standard_normal((spec.n, 2))
        encoded = (a1 + sigma * noise[:, 0], a2 + sigma * noise[:, 1])
        epochs.append((t, _dataset(spec, encoded, attrs, erng)))
    return epochs


# The generator of each family, by the name that specs, the CLI's --family
# and truth sidecars use.
FAMILIES = {
    "gaussian_pair": gen_gaussian_pair,
    "discrete_joint": gen_discrete_joint,
    "trajectory": gen_trajectory,
}
