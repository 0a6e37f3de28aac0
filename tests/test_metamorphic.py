"""Metamorphic relations of MIG and DMIG: symmetries of their definition.

Each relation transforms a dataset in a way the metric must not see and
checks that evaluate gives the same records bit for bit, mapped through
the transformation:

R1  permute the latent columns, and the regularized map with them;
R2  permute the attributes, and the map and the names with them;
R3  relabel a discrete attribute's codes injectively;
R4  negate one latent (SCC may change sign);
R5  shuffle the rows: the report bytes stay, apart from the digest line,
    a strict xfail until ROADMAP item 12 lands;
R6  rescale one continuous attribute: the other attributes' MIG and
    DMIG stay (to 1e-12).

The design has one 4-level discrete attribute and two correlated
continuous ones over D = 6 continuous latents, so no two runner-up
candidates tie exactly and the lowest-index rule never picks by column
order. Where they do tie, R1 can fail; test_r1_exact_runner_up_tie draws
that case and pins what the rule does there.
"""

import numpy as np
import pytest

from dmig import (Dataset, EstimatorConfig, SampleColumn, entropy_discrete, evaluate,
                  write_report)
from dmig.estimation import conditional_entropy

CFG = EstimatorConfig()
N, D = 1500, 6


def design(seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 4, N).astype(float)
    b = rng.standard_normal(N)
    c = 0.7 * b + 0.5 * rng.standard_normal(N)
    sigma = rng.uniform(0.05, 1.0, 3)
    lat = rng.standard_normal((N, D))
    lat[:, :3] = np.column_stack([a, b, c]) + sigma * lat[:, :3]
    # Every attribute has a runner-up that carries information about it,
    # so no runner-up MI is clamped to an exact tie at 0.
    lat[:, 3] += 0.5 * c
    lat[:, 4] += 0.5 * a
    # Spread the regularized dims over the D columns.
    cols = rng.permutation(D)
    ds = Dataset(
        latents=lat[:, cols],
        attributes=(SampleColumn(a, kind="discrete"), SampleColumn(b, kind="continuous"),
                    SampleColumn(c, kind="continuous")),
        regularized_map=tuple(int(np.flatnonzero(cols == j)[0]) for j in range(3)),
        names=("a", "b", "c"),
    )
    return ds, rng


def key(rec, dim=lambda j: j):
    """The fields a relation keeps, floats by their bits."""
    runner = None if rec.runner_up_dim is None else dim(rec.runner_up_dim)
    return (rec.name, rec.mig.hex(), rec.dmig.hex(), rec.denominator.hex(), rec.branch,
            rec.flags, dim(rec.top_dim), runner)


SEEDS = range(6)


@pytest.fixture(scope="module")
def bases():
    return {seed: evaluate(design(seed)[0], CFG).per_attribute for seed in SEEDS}


@pytest.mark.parametrize("seed", SEEDS)
def test_r1_permuted_latents(seed, bases):
    ds, rng = design(seed)
    perm = rng.permutation(D)                  # new column j is old column perm[j]
    inv = np.argsort(perm)
    moved = Dataset(latents=ds.latents[:, perm], attributes=ds.attributes,
                    regularized_map=tuple(int(inv[j]) for j in ds.regularized_map),
                    names=ds.names)
    got = evaluate(moved, CFG).per_attribute
    assert [key(r) for r in got] == [key(r, lambda j: int(inv[j])) for r in bases[seed]]
    assert [r.scc for r in got] == [r.scc for r in bases[seed]]


@pytest.mark.parametrize("seed", SEEDS)
def test_r2_permuted_attributes(seed, bases):
    ds, rng = design(seed)
    perm = rng.permutation(ds.m)               # new attribute i is old attribute perm[i]
    moved = Dataset(latents=ds.latents, attributes=tuple(ds.attributes[i] for i in perm),
                    regularized_map=tuple(ds.regularized_map[i] for i in perm),
                    names=tuple(ds.names[i] for i in perm))
    got = evaluate(moved, CFG).per_attribute
    assert [(key(r), r.scc) for r in got] == [(key(bases[seed][i]), bases[seed][i].scc)
                                              for i in perm]


@pytest.mark.parametrize("seed", SEEDS)
def test_r3_relabelled_codes(seed, bases):
    ds, rng = design(seed)
    labels = rng.choice([7.0, -2.0, 100.0, 5.0, 0.0, 31.0], size=4, replace=False)
    codes = SampleColumn(labels[ds.attributes[0].values.astype(int)], kind="discrete")
    moved = Dataset(latents=ds.latents, attributes=(codes, *ds.attributes[1:]),
                    regularized_map=ds.regularized_map, names=ds.names)
    # SCC ranks the codes, so a relabelling may move it.
    assert [key(r) for r in evaluate(moved, CFG).per_attribute] == [
        key(r) for r in bases[seed]]


@pytest.mark.parametrize("seed", SEEDS)
def test_r4_negated_latent(seed, bases):
    ds, rng = design(seed)
    lat = ds.latents.copy()
    j = int(rng.integers(D))
    lat[:, j] = -lat[:, j]
    moved = Dataset(latents=lat, attributes=ds.attributes,
                    regularized_map=ds.regularized_map, names=ds.names)
    got = evaluate(moved, CFG).per_attribute
    assert [key(r) for r in got] == [key(r) for r in bases[seed]]
    for new, old, reg in zip(got, bases[seed], ds.regularized_map):
        assert new.scc == pytest.approx(-old.scc if reg == j else old.scc, abs=1e-12)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 12: the tie-breaking jitter is keyed by each column's bytes, so a row "
    "shuffle redraws it; the largest move over seeds 0-5 at workers 1 and 2 is c's DMIG "
    "at seed 0, 1.581734556716314 -> 1.5817345521499733 (4.6e-09)"))
def test_r5_shuffled_rows(tmp_path):
    def lines(ds, workers):
        out = tmp_path / "r5.report"
        write_report(evaluate(ds, CFG, workers=workers), out)
        return [line for line in out.read_text().splitlines() if not line.startswith("digest ")]

    got, want = [], []
    for seed in SEEDS:
        ds, rng = design(seed)
        perm = rng.permutation(N)
        moved = Dataset(latents=ds.latents[perm],
                        attributes=tuple(SampleColumn(a.values[perm], kind=a.kind)
                                         for a in ds.attributes),
                        regularized_map=ds.regularized_map, names=ds.names)
        for workers in (1, 2):
            got += lines(moved, workers)
            want += lines(ds, workers)
    assert got == want


@pytest.mark.parametrize("seed", SEEDS)
def test_r6_rescaled_attribute(seed, bases):
    ds, _ = design(seed)
    a, b, c = ds.attributes
    moved = Dataset(latents=ds.latents,
                    attributes=(a, SampleColumn(b.values * 1000.0, kind="continuous"), c),
                    regularized_map=ds.regularized_map, names=ds.names)
    got = evaluate(moved, CFG).per_attribute
    for i in (0, 2):
        assert got[i].mig == pytest.approx(bases[seed][i].mig, abs=1e-12)
        assert got[i].dmig == pytest.approx(bases[seed][i].dmig, abs=1e-12)


def test_r1_exact_runner_up_tie():
    """R1 where two candidate dims tie exactly: the lowest-index rule decides.

    z3 is an exact copy of z2, so mapping c to z3 instead of z2 is R1's
    swap of those two columns, with the map, on identical data. The tie
    leaves MIG bit-equal, but DMIG, its branch and its denominator follow
    whichever tied dim has the lower index. ROADMAP item 4 is to show the
    runner-up margin (here 0) that makes this choice visible.
    """
    rng = np.random.default_rng(3)
    a = rng.integers(0, 4, N).astype(float)
    c = np.where(rng.random(N) < 0.7, a, rng.integers(0, 4, N)).astype(float)
    z1 = a + 0.3 * rng.standard_normal(N)
    z2 = c + 0.3 * rng.standard_normal(N)
    attrs = (SampleColumn(a, kind="discrete"), SampleColumn(c, kind="discrete"))
    (a_z2, c_z2), (a_z3, c_z3) = (
        evaluate(Dataset(latents=np.column_stack([z1, z2, z2]), attributes=attrs,
                         regularized_map=reg, names=("a", "c")), CFG).per_attribute
        for reg in [(0, 1), (0, 2)])

    assert a_z2.mig.hex() == a_z3.mig.hex()
    assert a_z2.top_dim == a_z3.top_dim == 0
    assert a_z2.runner_up_dim == a_z3.runner_up_dim == 1      # z2 before its copy z3
    # Runner-up z2 is c's regularized dim: DMIG conditions on c.
    assert a_z2.branch == "regularized"
    assert a_z2.denominator == conditional_entropy(*attrs, CFG)
    # Runner-up z2 is nobody's regularized dim: DMIG is MIG.
    assert a_z3.branch == "unregularized"
    assert a_z3.denominator == entropy_discrete(attrs[0])
    assert a_z3.dmig == a_z3.mig < a_z2.dmig
    # c's top dim is z2 either way, so mapping c to z3 reads as a failure.
    assert c_z2.top_dim == c_z3.top_dim == 1
    assert c_z2.mig == c_z3.mig == 0.0
    assert c_z2.flags == frozenset()
    assert c_z3.flags == frozenset({"regularization_failure"})
