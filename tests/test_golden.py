"""Frozen report bytes for a fixed set of seeded datasets.

Each dataset is rebuilt from seeded generators, evaluated serially and
with a two-thread pool, and its report must match the file under
tests/golden/ byte for byte. The files were written by an earlier
implementation of the MI profile; a refactor of the estimator or metric
layers must leave them unchanged. Run this module as a script to write
the files again when the report format itself changes on purpose.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from dmig import (
    FLAG_DMIG_ABOVE_ONE,
    FLAG_NEAR_ZERO_DENOMINATOR,
    FLAG_NEGATIVE_DENOMINATOR,
    FLAG_REGULARIZATION_FAILURE,
    Dataset,
    EstimatorConfig,
    SampleColumn,
    SyntheticSpec,
    evaluate,
    gen_discrete_joint,
    gen_gaussian_pair,
    mi_profile,
    read_report,
    write_report,
)
from dmig.estimation import conditional_entropy, mi_discrete

GOLDEN = Path(__file__).parent / "golden"
CFG = EstimatorConfig()
N = 600
PMF = ((0.30, 0.10, 0.05), (0.05, 0.25, 0.05), (0.05, 0.05, 0.10))


def disc(values):
    return SampleColumn(np.asarray(values, dtype=float), kind="discrete")


def cont(values):
    return SampleColumn(np.asarray(values, dtype=float), kind="continuous")


def discrete():
    """Discrete pair, exact-copy latents plus one noise dimension."""
    spec = SyntheticSpec(family="discrete_joint", n=N, seed=1, pmf=PMF, d_total=3)
    return gen_discrete_joint(spec)[0]


def continuous_m3():
    """Three chained Gaussian attributes, noisy latents plus a noise dimension."""
    rng = np.random.default_rng(2)
    g = rng.standard_normal((N, 3))
    a1 = g[:, 0]
    a2 = 0.7 * a1 + math.sqrt(0.51) * g[:, 1]
    a3 = 0.5 * a2 + math.sqrt(0.75) * g[:, 2]
    attrs = np.column_stack([a1, a2, a3])
    lat = np.column_stack(
        [attrs + 0.3 * rng.standard_normal((N, 3)), rng.standard_normal(N)]
    )
    return Dataset(
        latents=lat, attributes=tuple(cont(c) for c in attrs.T), names=("x", "y", "w")
    )


def mixed_m3():
    """Kinds disc/disc/cont: two dependent factors and a continuous readout."""
    rng = np.random.default_rng(3)
    a1 = rng.integers(0, 3, N).astype(float)
    flip = rng.random(N) < 0.3
    a2 = np.where(flip, (a1 + rng.integers(1, 3, N)) % 3, a1)
    a3 = a1 + 0.5 * a2 + rng.standard_normal(N)
    lat = np.column_stack(
        [
            a1 + 0.4 * rng.standard_normal(N),
            a2 + 0.4 * rng.standard_normal(N),
            a3 + 0.4 * rng.standard_normal(N),
            rng.standard_normal(N),
        ]
    )
    return Dataset(
        latents=lat, attributes=(disc(a1), disc(a2), cont(a3)), names=("p", "q", "r")
    )


def noisy_discrete():
    """Discrete attributes read through noisy continuous latents."""
    spec = SyntheticSpec(family="discrete_joint", n=N, seed=4, pmf=PMF, d_total=2)
    base = gen_discrete_joint(spec)[0]
    noise = np.random.default_rng([4, 1]).standard_normal((N, 2))
    return Dataset(latents=base.latents + 0.5 * noise, attributes=base.attributes)


def negative_denominator():
    """rho = 0.99: H(a_i | a_j) is a negative differential entropy."""
    spec = SyntheticSpec(family="gaussian_pair", n=N, seed=5, rho=0.99)
    return gen_gaussian_pair(spec)[0]


def sentinel():
    """Identical discrete attributes: H(a_i | a_j) = 0 trips the sentinel."""
    a = np.random.default_rng(6).integers(0, 2, N).astype(float)
    return Dataset(
        latents=np.column_stack([a, a]), attributes=(disc(a), disc(a)), names=("u", "v")
    )


DATASETS = {
    f.__name__: f
    for f in (
        discrete,
        continuous_m3,
        mixed_m3,
        noisy_discrete,
        negative_denominator,
        sentinel,
    )
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(DATASETS))
def test_report_bytes_frozen(name, workers, tmp_path):
    out = tmp_path / f"{name}.report"
    write_report(evaluate(DATASETS[name](), CFG, workers=workers), out)
    assert out.read_bytes() == (GOLDEN / f"{name}.report").read_bytes()


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_report_read_back_writes_same_bytes(name, tmp_path):
    out = tmp_path / f"{name}.report"
    write_report(read_report(GOLDEN / f"{name}.report"), out)
    assert out.read_bytes() == (GOLDEN / f"{name}.report").read_bytes()


def test_golden_reports_carry_every_flag_and_token():
    # So the read-back above covers every flag, "+inf" and an empty flag set.
    texts = [(GOLDEN / f"{name}.report").read_text() for name in DATASETS]
    reports = [read_report(GOLDEN / f"{name}.report") for name in DATASETS]
    flags = set().union(*(a.flags for r in reports for a in r.per_attribute))
    assert flags == {
        FLAG_DMIG_ABOVE_ONE,
        FLAG_NEAR_ZERO_DENOMINATOR,
        FLAG_NEGATIVE_DENOMINATOR,
        FLAG_REGULARIZATION_FAILURE,
    }
    assert any("+inf" in t for t in texts) and any("flags=-" in t for t in texts)


def test_golden_cases_reach_their_branches():
    flags = {
        name: set().union(*(a.flags for a in evaluate(f(), CFG).per_attribute))
        for name, f in DATASETS.items()
    }
    assert "negative_denominator" in flags["negative_denominator"]
    assert "near_zero_denominator" in flags["sentinel"]


def test_h_cond_matches_conditional_entropy():
    ds = mixed_m3()
    h_cond = mi_profile(ds, CFG).h_cond
    for i in range(ds.m):
        for j in range(ds.m):
            if i != j:
                ref = conditional_entropy(ds.attributes[i], ds.attributes[j], CFG)
                assert h_cond[i][j] == ref, (i, j)
    checked = 0
    for build in (discrete, sentinel):
        ds = build()
        mi_raw = mi_profile(ds, CFG).mi_raw
        for i, a in enumerate(ds.attributes):
            for j in range(ds.d):
                z = ds.latent_column(j)
                if a.kind == z.kind == "discrete":
                    assert mi_raw[i][j] == mi_discrete(a, z), (build.__name__, i, j)
                    checked += 1
    assert checked == 8


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, build in DATASETS.items():
        write_report(evaluate(build(), CFG), GOLDEN / f"{name}.report")
        print(f"wrote {GOLDEN / name}.report", file=sys.stderr)
