"""Seeded inputs for the three `dmig eval` workloads and their output checks.

Each workload is a pure function of its seed: it writes one or more
dataset files for `dmig eval` and returns the closed-form truth that the
reported denominators are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

import dmig

# A 3x3 table with correlated factors: both conditional entropies are
# well away from zero, so the DMIG regularized branch has a stable
# closed-form denominator.
PMF = ((0.22, 0.06, 0.05), (0.06, 0.22, 0.05), (0.05, 0.05, 0.24))

# Absolute tolerance on a reported denominator, the default of `dmig oracle`.
ABS_ERR_TOL = 0.03
# Acceptance 3: exact-copy discrete latents give DMIG = 1.
IDEAL_DMIG_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    m: int
    d: int
    epochs: int
    workers: int
    ideal_dmig: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cont_pair", n=25_000, m=2, d=2, epochs=1, workers=1, ideal_dmig=False),
        Workload("factor_series", n=5_000, m=2, d=8, epochs=5, workers=2, ideal_dmig=False),
        Workload("disc_codes", n=100_000, m=2, d=2, epochs=1, workers=1, ideal_dmig=True),
    )
}

FACTOR_SIGMAS = tuple(np.geomspace(3.0, 0.05, 5))
FACTOR_NOISE_DIMS = 6


def generate(w: Workload, seed: int, out_dir: Path) -> tuple[list[Path], dmig.GroundTruth]:
    """Write the workload's dataset files into out_dir; return them and the truth."""
    if w.name == "cont_pair":
        spec = dmig.SyntheticSpec(
            family="trajectory", n=w.n, seed=seed, rho=0.8,
            noise_schedule=(0.3,), d_total=w.d,
        )
        [(_, ds)] = dmig.gen_trajectory(spec)
        path = out_dir / "cont_pair.csv"
        dmig.write_dataset(ds, path)
        return [path], dmig.gaussian_truth(0.8)
    if w.name == "factor_series":
        spec = dmig.SyntheticSpec(
            family="discrete_joint", n=w.n, seed=seed, pmf=PMF, d_total=2
        )
        base, truth = dmig.gen_discrete_joint(spec)
        paths = []
        for t, sigma in enumerate(FACTOR_SIGMAS):
            # [seed, 0] would repeat the attribute stream (zero-padded seeds).
            rng = np.random.default_rng([seed, t + 1])
            encoded = base.latents + sigma * rng.standard_normal((w.n, 2))
            noise = rng.standard_normal((w.n, FACTOR_NOISE_DIMS))
            ds = dmig.Dataset(
                latents=np.column_stack([encoded, noise]), attributes=base.attributes
            )
            path = out_dir / f"factor_series_epoch{t}.csv"
            dmig.write_dataset(ds, path)
            paths.append(path)
        return paths, truth
    if w.name == "disc_codes":
        spec = dmig.SyntheticSpec(
            family="discrete_joint", n=w.n, seed=seed, pmf=PMF, d_total=w.d
        )
        ds, truth = dmig.gen_discrete_joint(spec)
        path = out_dir / "disc_codes.csv"
        dmig.write_dataset(ds, path)
        return [path], truth
    raise ValueError(f"unknown workload {w.name!r}")


def eval_argv(w: Workload, inputs: list[Path], out: Path) -> list[str]:
    """Arguments of the `dmig eval` invocation a user would type."""
    return ["eval", *map(str, inputs), "--workers", str(w.workers), "--out", str(out)]


def read_output(w: Workload, out: Path) -> list[dmig.MetricReport]:
    """Parse an eval output with the package's own reader, one report per epoch."""
    if w.epochs == 1:
        return [dmig.read_report(out)]
    return [report for _, report in dmig.read_series(out)]


def check_reports(
    w: Workload, reports: list[dmig.MetricReport], truth: dmig.GroundTruth
) -> tuple[float, list[str]]:
    """Largest |denominator - closed form| and the list of failed checks."""
    problems = []
    if len(reports) != w.epochs:
        problems.append(f"expected {w.epochs} epochs, got {len(reports)}")
    max_err = 0.0
    for t, report in enumerate(reports):
        for i, a in enumerate(report.per_attribute):
            if a.branch == "regularized":
                # Every workload maps attribute j to latent j, so the
                # runner-up dimension names the conditioning attribute.
                expected = truth.h_cond[i][a.runner_up_dim]
            else:
                expected = truth.h_a[i]
            err = abs(a.denominator - expected)
            max_err = max(max_err, err)
            if not err <= ABS_ERR_TOL:
                problems.append(
                    f"epoch {t} attribute {a.name}: |denominator - truth| = {err!r}"
                )
            if w.ideal_dmig and not abs(a.dmig - 1.0) <= IDEAL_DMIG_TOL:
                problems.append(f"epoch {t} attribute {a.name}: dmig {a.dmig!r} != 1")
    return max_err, problems
