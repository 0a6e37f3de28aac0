"""Acceptance gate: one printed verdict line per criterion, then the assert.

Each test computes its measurements first, prints an
``ACCEPTANCE <id> (<label>): PASS/FAIL`` line through
conftest.record_acceptance, and only then asserts, so the verdict is
visible even when a criterion fails.
"""

import time

import numpy as np
import pytest

from dmig import (
    Dataset,
    EstimatorConfig,
    FLAG_DMIG_ABOVE_ONE,
    FLAG_NEGATIVE_DENOMINATOR,
    FLAG_REGULARIZATION_FAILURE,
    SampleColumn,
    SyntheticSpec,
    entropy_continuous,
    entropy_discrete,
    evaluate,
    gen_discrete_joint,
    gen_gaussian_pair,
    gen_trajectory,
    mi_continuous_detailed,
    read_dataset,
    read_report,
    read_series,
    read_truth,
    write_dataset,
    write_report,
    write_series,
    write_truth,
)
from dmig.estimation import conditional_entropy, mi_discrete
from dmig.synthetic import discrete_truth, gaussian_truth

from conftest import record_acceptance, tie_noise

I_GAUSS_08 = 0.5108256237659907
H_NORMAL_S01 = -0.883646559789373

CFG = EstimatorConfig()


def verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def factorial_dataset(levels1: int, levels2: int, reps: int, latents_fn) -> Dataset:
    """Balanced full-factorial attribute pair, so empirical MI is exactly 0."""
    grid = [(float(x), float(y)) for x in range(levels1) for y in range(levels2)]
    rows = np.array(grid * reps)
    a1 = SampleColumn(rows[:, 0], kind="discrete")
    a2 = SampleColumn(rows[:, 1], kind="discrete")
    return Dataset(
        latents=latents_fn(rows[:, 0], rows[:, 1]),
        attributes=(a1, a2),
        regularized_map=(0, 1),
    )


def random_floored_table(rng: np.random.Generator, side: int) -> tuple:
    pmf = rng.dirichlet(np.ones(side * side)).reshape(side, side)
    pmf = np.maximum(pmf, 0.02)
    pmf = pmf / pmf.sum()
    return tuple(tuple(float(c) for c in row) for row in pmf)


def test_criterion_1_ksg_accuracy():
    t0 = time.perf_counter()
    vals = []
    for seed in range(10):
        spec = SyntheticSpec(family="gaussian_pair", n=20000, seed=seed, rho=0.8)
        ds, _ = gen_gaussian_pair(spec)
        a1, a2 = ds.attributes
        vals.append(mi_continuous_detailed(a1, a2, CFG).value)
    elapsed = time.perf_counter() - t0
    mean = float(np.mean(vals))
    ok = abs(mean - I_GAUSS_08) <= 0.03 and elapsed < 10.0
    record_acceptance(
        f"ACCEPTANCE 1 (KSG accuracy): {verdict(ok)} - "
        f"mean over 10 seeds {mean:.4f} vs {I_GAUSS_08:.4f} "
        f"(tol 0.03), {elapsed:.1f}s (< 10s)"
    )
    assert abs(mean - I_GAUSS_08) <= 0.03
    assert elapsed < 10.0


def test_criterion_2_negative_differential_entropy():
    x = np.random.default_rng(0).normal(0.0, 0.1, 20000)
    est = entropy_continuous(SampleColumn(x, kind="continuous"), CFG)
    ok = abs(est - H_NORMAL_S01) <= 0.03 and est < 0.0
    record_acceptance(
        f"ACCEPTANCE 2 (negative differential entropy): {verdict(ok)} - "
        f"estimate {est:.4f} vs {H_NORMAL_S01:.4f} (tol 0.03)"
    )
    assert abs(est - H_NORMAL_S01) <= 0.03
    assert est < 0.0


def test_criterion_3_ideal_case_unity():
    rng = np.random.default_rng(3)
    worst = 0.0
    tables = 0
    while tables < 20:
        side = 2 if tables < 10 else 3
        pmf = random_floored_table(rng, side)
        truth = discrete_truth(pmf)
        if truth.i_a1a2 <= 1e-3:
            continue
        tables += 1
        spec = SyntheticSpec(
            family="discrete_joint", n=4000, seed=100 + tables, pmf=pmf
        )
        ds, _ = gen_discrete_joint(spec)
        rep = evaluate(ds, CFG)
        for attr in rep.per_attribute:
            worst = max(worst, abs(attr.dmig - 1.0))
    ok = worst <= 1e-9
    record_acceptance(
        f"ACCEPTANCE 3 (ideal-case DMIG=1): {verdict(ok)} - "
        f"max |dmig-1| over 20 tables {worst:.2e} (tol 1e-9)"
    )
    assert worst <= 1e-9


def test_criterion_4_reduction_to_mig():
    designs = [
        (4, 2, lambda x, y: np.column_stack([x, y, x % 2.0])),
        (3, 3, lambda x, y: np.column_stack([x, y, x // 2.0])),
        (4, 3, lambda x, y: np.column_stack([x, y, x % 2.0])),
    ]
    checked = 0
    exact = True
    for levels1, levels2, fn in designs:
        ds = factorial_dataset(levels1, levels2, 50, fn)
        assert mi_discrete(ds.attributes[0], ds.attributes[1]) <= 1e-12
        rep = evaluate(ds, CFG)
        first = rep.per_attribute[0]
        assert first.branch == "unregularized"
        assert first.runner_up_dim == 2
        checked += 1
        exact = exact and first.dmig == first.mig
    ok = exact and checked == 3
    record_acceptance(
        f"ACCEPTANCE 4 (reduction to MIG): {verdict(ok)} - "
        f"dmig == mig bitwise on {checked} independent-attribute designs "
        f"with unregularized runner-up"
    )
    assert ok


def test_criterion_5_failure_signaling():
    ds = factorial_dataset(2, 2, 100, lambda x, y: np.column_stack([y, x]))
    rep = evaluate(ds, CFG)
    migs = [a.mig for a in rep.per_attribute]
    flagged = [FLAG_REGULARIZATION_FAILURE in a.flags for a in rep.per_attribute]
    ok = all(m < 0.0 for m in migs) and all(flagged)
    record_acceptance(
        f"ACCEPTANCE 5 (failure signaling): {verdict(ok)} - "
        f"swapped latents give mig {migs[0]:.2f}/{migs[1]:.2f} with "
        f"regularization_failure on both attributes"
    )
    assert all(m < 0.0 for m in migs)
    assert all(flagged)


TRAJECTORY_SCHEDULE = tuple(np.geomspace(10.0, 0.01, 30))


@pytest.fixture(scope="module")
def trajectory_run():
    spec = SyntheticSpec(
        family="trajectory",
        n=8000,
        seed=1,
        rho=0.95,
        noise_schedule=TRAJECTORY_SCHEDULE,
        d_total=2,
    )
    t0 = time.perf_counter()
    reports = [(t, evaluate(ds, CFG)) for t, ds in gen_trajectory(spec)]
    elapsed = time.perf_counter() - t0
    return reports, elapsed


def neighbour_coupled_pmf(levels: int, stay: float) -> tuple:
    """a_1 uniform; a_2 = a_1 with probability `stay`, else an adjacent level."""
    pmf = np.zeros((levels, levels))
    for x in range(levels):
        near = [y for y in (x - 1, x + 1) if 0 <= y < levels]
        pmf[x, near] = (1.0 - stay) / len(near)
        pmf[x, x] = stay
    pmf /= levels
    return tuple(tuple(float(c) for c in row) for row in pmf)


def test_criterion_6a_final_epoch_profile():
    # The MIG ceiling H(a_i|a_j)/H(a_i) is a theorem only for discrete
    # attributes, where I(a_i; z_i) <= H(a_i). Continuous MIG is normalised
    # by differential entropy and has no ceiling: on the Gaussian trajectory
    # it is 0.5*log(1 + (1 - rho^2)/sigma^2)/H(a), unbounded as sigma -> 0.
    # So this criterion runs the final trajectory epoch on discrete factors.
    n, seed = 8000, 1
    pmf = neighbour_coupled_pmf(5, 0.97)
    ds, truth = gen_discrete_joint(
        SyntheticSpec(family="discrete_joint", n=n, seed=seed, pmf=pmf)
    )
    final_t = len(TRAJECTORY_SCHEDULE) - 1
    noise = np.random.default_rng([seed, final_t + 1]).standard_normal((n, 2))
    attrs = np.column_stack([a.values for a in ds.attributes])
    final = evaluate(
        Dataset(
            latents=attrs + TRAJECTORY_SCHEDULE[final_t] * noise,
            attributes=ds.attributes,
        ),
        CFG,
    )
    marginals = (np.sum(pmf, axis=1), np.sum(pmf, axis=0))
    scc_limits = [float(np.sqrt(1.0 - np.sum(p**3))) for p in marginals]
    ceilings = [truth.h_cond[i][1 - i] / truth.h_a[i] for i in range(2)]
    sccs = [a.scc for a in final.per_attribute]
    migs = [a.mig for a in final.per_attribute]
    dmigs = [a.dmig for a in final.per_attribute]
    scc_ok = all(s > 0.95 for s in sccs)
    mig_ok = all(m < 0.15 for m in migs)
    ceiling_ok = all(abs(m - c) <= 0.02 for m, c in zip(migs, ceilings))
    ok = scc_ok and mig_ok and ceiling_ok
    record_acceptance(
        f"ACCEPTANCE 6a (final SCC>0.95 with all MIG<0.15): {verdict(ok)} - "
        f"scc {sccs[0]:.4f}/{sccs[1]:.4f} (limit {scc_limits[0]:.4f}/"
        f"{scc_limits[1]:.4f}), mig {migs[0]:.4f}/{migs[1]:.4f} (ceiling "
        f"{ceilings[0]:.4f}/{ceilings[1]:.4f}, tol 0.02), "
        f"dmig {dmigs[0]:.4f}/{dmigs[1]:.4f}"
    )
    assert scc_ok
    assert mig_ok
    assert ceiling_ok


def test_criterion_6b_final_dmig(trajectory_run):
    reports, _ = trajectory_run
    final = reports[-1][1]
    dmigs = [a.dmig for a in final.per_attribute]
    ok = all(d > 0.8 for d in dmigs)
    record_acceptance(
        f"ACCEPTANCE 6b (final DMIG>0.8): {verdict(ok)} - "
        f"dmig {dmigs[0]:.2f}/{dmigs[1]:.2f}"
    )
    assert ok


def test_criterion_6c_mig_dmig_affinity(trajectory_run):
    reports, _ = trajectory_run
    corrs = []
    for i in range(2):
        pairs = [
            (rep.per_attribute[i].mig, rep.per_attribute[i].dmig)
            for _, rep in reports
            if rep.per_attribute[i].branch == "regularized"
            and rep.per_attribute[i].runner_up_dim == 1 - i
        ]
        assert len(pairs) >= 10
        xs, ys = zip(*pairs)
        corrs.append(float(np.corrcoef(xs, ys)[0, 1]))
    ok = all(c > 0.999 for c in corrs)
    record_acceptance(
        f"ACCEPTANCE 6c (MIG~DMIG affinity): {verdict(ok)} - "
        f"per-attribute Pearson {corrs[0]:.6f}/{corrs[1]:.6f} over "
        f"fixed-runner-up epochs"
    )
    assert ok


def test_criterion_6_runtime(trajectory_run):
    _, elapsed = trajectory_run
    ok = elapsed < 60.0
    record_acceptance(
        f"ACCEPTANCE 6 runtime (30 epochs): {verdict(ok)} - "
        f"{elapsed:.1f}s (< 60s)"
    )
    assert ok


def test_criterion_7_above_unity_pathology():
    spec = SyntheticSpec(
        family="trajectory", n=20000, seed=2, rho=0.99, noise_schedule=(0.01,)
    )
    rep = evaluate(gen_trajectory(spec)[0][1], CFG)
    attr = rep.per_attribute[0]
    numerator = attr.dmig * attr.denominator
    magnitude = numerator / abs(attr.denominator)
    flags_ok = (
        FLAG_DMIG_ABOVE_ONE in attr.flags
        and FLAG_NEGATIVE_DENOMINATOR in attr.flags
    )
    ok = attr.denominator < 0.0 and magnitude > 1.0 and flags_ok
    record_acceptance(
        f"ACCEPTANCE 7 (above-unity pathology): {verdict(ok)} - "
        f"denominator {attr.denominator:.3f} < 0, |dmig| {magnitude:.2f} > 1, "
        f"dmig_above_one + negative_denominator set"
    )
    assert attr.denominator < 0.0
    assert attr.branch == "regularized"
    assert magnitude > 1.0
    assert flags_ok


def test_criterion_8_chain_and_round_trips(tmp_path):
    rng = np.random.default_rng(8)

    worst_chain = 0.0
    for _ in range(50):
        kx = int(rng.integers(2, 5))
        ky = int(rng.integers(2, 5))
        joint = rng.dirichlet(np.ones(kx * ky)).reshape(kx, ky)
        flat = rng.choice(kx * ky, size=300, p=joint.ravel())
        x = SampleColumn((flat // ky).astype(float), kind="discrete")
        y = SampleColumn((flat % ky).astype(float), kind="discrete")
        i_xy = mi_discrete(x, y)
        gap = abs(i_xy - (entropy_discrete(x) - conditional_entropy(x, y, CFG)))
        worst_chain = max(worst_chain, gap)
    chain_ok = worst_chain <= 1e-12

    round_trips = 0
    for i in range(100):
        pick = i % 4
        if pick == 0:
            n, d = int(rng.integers(4, 24)), int(rng.integers(2, 5))
            m = int(rng.integers(1, min(d, 3) + 1))
            attrs = tuple(
                SampleColumn(rng.integers(0, 3, n).astype(float), kind="discrete")
                if rng.random() < 0.5
                else SampleColumn(rng.standard_normal(n), kind="continuous")
                for _ in range(m)
            )
            ds = Dataset(
                latents=rng.standard_normal((n, d)),
                attributes=attrs,
                regularized_map=tuple(int(j) for j in rng.permutation(d)[:m]),
                names=tuple(f"v{k}" for k in range(m)),
            )
            p = tmp_path / f"{i}.csv"
            write_dataset(ds, p)
            assert read_dataset(p).digest() == ds.digest()
        elif pick == 1:
            rep = _random_report(rng)
            p = tmp_path / f"{i}.report"
            write_report(rep, p)
            assert read_report(p) == rep
        elif pick == 2:
            series = [(t * 2, _random_report(rng)) for t in range(int(rng.integers(2, 5)))]
            p = tmp_path / f"{i}.series"
            write_series(series, p)
            assert read_series(p) == series
        else:
            if rng.random() < 0.5:
                family, truth = "gaussian_pair", gaussian_truth(float(rng.uniform(-0.9, 0.9)))
            else:
                family, truth = "discrete_joint", discrete_truth(random_floored_table(rng, 2))
            p = tmp_path / f"{i}.truth"
            write_truth(family, truth, p)
            family_back, truth_back = read_truth(p)
            assert family_back == family
            np.testing.assert_equal(vars(truth_back), vars(truth))
        round_trips += 1

    ok = chain_ok and round_trips == 100
    record_acceptance(
        f"ACCEPTANCE 8 (chain rule + round trips): {verdict(ok)} - "
        f"max chain gap {worst_chain:.2e} (tol 1e-12) over 50 tables, "
        f"{round_trips}/100 file round trips identical"
    )
    assert chain_ok
    assert round_trips == 100


def _random_report(rng: np.random.Generator):
    spec = SyntheticSpec(
        family="discrete_joint",
        n=int(rng.integers(60, 200)),
        seed=int(rng.integers(0, 10000)),
        pmf=random_floored_table(rng, 2),
    )
    ds, _ = gen_discrete_joint(spec)
    with tie_noise(seed=int(rng.integers(0, 100))):
        return evaluate(ds, CFG)
