"""Generator tests: spec validation, ground-truth math, reproducibility."""

import math

import numpy as np
import pytest

from dmig import (
    EstimatorConfig,
    SpecValidationError,
    SyntheticSpec,
    entropy_discrete,
    gen_discrete_joint,
    gen_gaussian_pair,
    gen_trajectory,
    spearman,
)
from dmig.estimation import mi_discrete
from dmig.synthetic import discrete_truth, gaussian_truth

H_STD_NORMAL = 1.4189385332046727
I_GAUSS_08 = 0.5108256237659907
HC_GAUSS_099 = -0.5395792404211717
I_TABLE = 0.19274475702175753
HC_TABLE = 0.500402423538188

TABLE = ((0.4, 0.1), (0.1, 0.4))


class TestSpecValidation:
    def test_unknown_family(self):
        with pytest.raises(SpecValidationError):
            SyntheticSpec(family="waveform", n=100, seed=0)

    def test_rho_bounds(self):
        with pytest.raises(SpecValidationError):
            SyntheticSpec(family="gaussian_pair", n=100, seed=0, rho=1.0)
        with pytest.raises(SpecValidationError):
            SyntheticSpec(family="gaussian_pair", n=100, seed=0, rho=-1.5)

    def test_pmf_required_and_checked(self):
        with pytest.raises(SpecValidationError):
            SyntheticSpec(family="discrete_joint", n=100, seed=0)
        with pytest.raises(SpecValidationError):
            SyntheticSpec(
                family="discrete_joint", n=100, seed=0, pmf=((0.5, -0.1), (0.3, 0.3))
            )
        with pytest.raises(SpecValidationError):
            SyntheticSpec(
                family="discrete_joint", n=100, seed=0, pmf=((0.5, 0.1), (0.1, 0.2))
            )
        with pytest.raises(SpecValidationError):
            SyntheticSpec(
                family="discrete_joint", n=100, seed=0, pmf=((0.5, 0.5), (0.0,))
            )
        with pytest.raises(SpecValidationError):
            SyntheticSpec(
                family="discrete_joint", n=100, seed=0, pmf=((0.5, 0.5), (math.nan, 0.0))
            )

    def test_noise_schedule_checked(self):
        with pytest.raises(SpecValidationError):
            SyntheticSpec(family="trajectory", n=100, seed=0, rho=0.5)
        with pytest.raises(SpecValidationError):
            SyntheticSpec(
                family="trajectory", n=100, seed=0, rho=0.5, noise_schedule=(1.0, 0.0)
            )
        with pytest.raises(SpecValidationError):
            SyntheticSpec(
                family="trajectory", n=100, seed=0, rho=0.5, noise_schedule=(1.0, 1.0)
            )

    def test_d_total_floor(self):
        with pytest.raises(SpecValidationError):
            SyntheticSpec(family="gaussian_pair", n=100, seed=0, d_total=1)

    @pytest.mark.parametrize(
        "n, seed, match", [(1, 0, "n must be"), (100, -1, "seed"), (100, 2**64, "seed")]
    )
    def test_sample_count_and_seed_checked(self, n, seed, match):
        with pytest.raises(SpecValidationError, match=match):
            SyntheticSpec(family="gaussian_pair", n=n, seed=seed, rho=0.5)

    def test_family_generator_mismatch(self):
        spec = SyntheticSpec(family="gaussian_pair", n=100, seed=0, rho=0.5)
        with pytest.raises(SpecValidationError):
            gen_discrete_joint(spec)


class TestGaussianTruth:
    def test_independent(self):
        t = gaussian_truth(0.0)
        assert t.i_a1a2 == 0.0
        assert t.h_cond[0][1] == t.h_a[0]

    def test_rho_08(self):
        t = gaussian_truth(0.8)
        assert t.h_a[0] == H_STD_NORMAL
        assert t.i_a1a2 == pytest.approx(I_GAUSS_08, abs=1e-15)
        assert t.h_cond[0][1] == pytest.approx(H_STD_NORMAL - I_GAUSS_08, abs=1e-15)

    def test_rho_099_negative_conditional_entropy(self):
        t = gaussian_truth(0.99)
        assert t.h_cond[0][1] == pytest.approx(HC_GAUSS_099, abs=1e-15)
        assert t.h_cond[0][1] < 0.0

    def test_chain_consistency(self):
        for rho in (-0.9, -0.3, 0.0, 0.5, 0.95):
            t = gaussian_truth(rho)
            assert t.h_cond[0][1] == pytest.approx(t.h_a[0] - t.i_a1a2, abs=1e-12)


class TestDiscreteTruth:
    def test_uniform_table_independent(self):
        t = discrete_truth(((0.25, 0.25), (0.25, 0.25)))
        assert t.i_a1a2 == 0.0
        assert t.ideal_dmig == (1.0, 1.0)

    def test_skewed_table(self):
        t = discrete_truth(TABLE)
        assert t.i_a1a2 == pytest.approx(I_TABLE, abs=1e-15)
        assert t.h_cond[0][1] == pytest.approx(HC_TABLE, abs=1e-15)

    def test_diagonal_table_degenerate_denominator(self):
        t = discrete_truth(((0.5, 0.0), (0.0, 0.5)))
        assert t.h_cond[0][1] == pytest.approx(0.0, abs=1e-15)
        assert math.isnan(t.ideal_dmig[0]) and math.isnan(t.ideal_dmig[1])

    def test_chain_consistency(self):
        for pmf in (TABLE, ((0.1, 0.2), (0.3, 0.4)), ((0.2, 0.1, 0.1), (0.1, 0.3, 0.2))):
            t = discrete_truth(pmf)
            assert t.h_cond[0][1] == pytest.approx(t.h_a[0] - t.i_a1a2, abs=1e-12)
            assert t.h_cond[1][0] == pytest.approx(t.h_a[1] - t.i_a1a2, abs=1e-12)


class TestGenerators:
    def test_gaussian_pair_copies_and_extras(self):
        spec = SyntheticSpec(family="gaussian_pair", n=500, seed=3, rho=0.8, d_total=4)
        ds, truth = gen_gaussian_pair(spec)
        assert ds.d == 4 and ds.m == 2 and ds.n == 500
        assert np.array_equal(ds.latents[:, 0], ds.attributes[0].values)
        assert np.array_equal(ds.latents[:, 1], ds.attributes[1].values)
        np.testing.assert_equal(vars(truth), vars(gaussian_truth(0.8)))

    def test_gaussian_pair_empirical_correlation(self):
        spec = SyntheticSpec(family="gaussian_pair", n=50000, seed=4, rho=0.8)
        ds, _ = gen_gaussian_pair(spec)
        r = np.corrcoef(ds.attributes[0].values, ds.attributes[1].values)[0, 1]
        assert r == pytest.approx(0.8, abs=0.01)

    def test_reproducibility_bit_identical(self):
        spec = SyntheticSpec(family="gaussian_pair", n=400, seed=5, rho=0.5, d_total=3)
        ds1, _ = gen_gaussian_pair(spec)
        ds2, _ = gen_gaussian_pair(spec)
        assert ds1.digest() == ds2.digest()
        spec_d = SyntheticSpec(family="discrete_joint", n=400, seed=5, pmf=TABLE)
        d1, _ = gen_discrete_joint(spec_d)
        d2, _ = gen_discrete_joint(spec_d)
        assert d1.digest() == d2.digest()

    def test_discrete_joint_codes_and_copies(self):
        spec = SyntheticSpec(family="discrete_joint", n=2000, seed=6, pmf=TABLE)
        ds, truth = gen_discrete_joint(spec)
        assert set(np.unique(ds.attributes[0].values)) <= {0.0, 1.0}
        assert np.array_equal(ds.latents[:, 0], ds.attributes[0].values)
        np.testing.assert_equal(vars(truth), vars(discrete_truth(TABLE)))

    def test_discrete_joint_oracle_agreement_large_n(self):
        spec = SyntheticSpec(family="discrete_joint", n=100000, seed=7, pmf=TABLE)
        ds, truth = gen_discrete_joint(spec)
        a1, a2 = ds.attributes
        assert entropy_discrete(a1) == pytest.approx(truth.h_a[0], abs=0.005)
        assert entropy_discrete(a2) == pytest.approx(truth.h_a[1], abs=0.005)
        assert mi_discrete(a1, a2) == pytest.approx(truth.i_a1a2, abs=0.005)

    def test_trajectory_fixed_attributes_and_epochs(self):
        spec = SyntheticSpec(
            family="trajectory",
            n=300,
            seed=8,
            rho=0.95,
            noise_schedule=(2.0, 1.0, 0.5),
            d_total=3,
        )
        epochs = gen_trajectory(spec)
        assert [t for t, _ in epochs] == [0, 1, 2]
        first = epochs[0][1]
        for _, ds in epochs[1:]:
            assert all(a is b for a, b in zip(ds.attributes, first.attributes, strict=True))
            assert not np.array_equal(ds.latents, first.latents)
            assert ds.d == 3

    def test_trajectory_reproducible(self):
        spec = SyntheticSpec(
            family="trajectory", n=300, seed=9, rho=0.5, noise_schedule=(1.0, 0.1)
        )
        e1 = gen_trajectory(spec)
        e2 = gen_trajectory(spec)
        assert all(a[1].digest() == b[1].digest() for a, b in zip(e1, e2))

    def test_trajectory_scc_endpoints(self):
        cfg = EstimatorConfig()
        spec = SyntheticSpec(
            family="trajectory",
            n=4000,
            seed=10,
            rho=0.95,
            noise_schedule=(100.0, 0.001),
        )
        epochs = gen_trajectory(spec)
        noisy = epochs[0][1]
        sharp = epochs[-1][1]
        s0 = spearman(noisy.attributes[0], noisy.latent_column(0))
        s1 = spearman(sharp.attributes[0], sharp.latent_column(0))
        assert abs(s0) <= 0.05
        assert s1 > 0.999
