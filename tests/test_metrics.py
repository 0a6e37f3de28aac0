"""Metric-layer tests: profiles, MIG, DMIG, evaluation, and invariants."""

import functools
import math
import sys
from collections import Counter

import numpy as np
import pytest

from dmig import (
    Dataset,
    DatasetInvariantError,
    EstimatorConfig,
    FLAG_DMIG_ABOVE_ONE,
    FLAG_NEAR_ZERO_DENOMINATOR,
    FLAG_NEGATIVE_DENOMINATOR,
    FLAG_REGULARIZATION_FAILURE,
    MetricComputationError,
    SampleColumn,
    ZeroEntropyAttributeError,
    compute_dmig,
    evaluate,
    mi_profile,
)
from dmig import estimation, metrics
from dmig.synthetic import SyntheticSpec, gen_trajectory

from conftest import tie_noise

LN2 = 0.6931471805599453
I_GAUSS_08 = 0.5108256237659907

CFG = EstimatorConfig()


def disc(values):
    return SampleColumn(np.asarray(values, dtype=float), kind="discrete")


def cont(values):
    return SampleColumn(np.asarray(values, dtype=float), kind="continuous")


def binary_pair_dataset(reps=250, extra=None):
    """Empirically independent uniform binary attributes with copy latents."""
    a1 = np.array([0.0, 0.0, 1.0, 1.0] * reps)
    a2 = np.array([0.0, 1.0, 0.0, 1.0] * reps)
    cols = [a1, a2] if extra is None else [a1, a2, extra]
    return Dataset(
        latents=np.column_stack(cols),
        attributes=(disc(a1), disc(a2)),
    )


class TestDatasetValidation:
    def test_m_greater_than_d_rejected(self):
        a = disc([0, 1] * 10)
        with pytest.raises(DatasetInvariantError):
            Dataset(latents=np.zeros((20, 1)), attributes=(a, a))

    def test_nan_latents_rejected(self):
        lat = np.zeros((10, 1))
        lat[3, 0] = math.nan
        with pytest.raises(DatasetInvariantError):
            Dataset(latents=lat, attributes=(disc([0, 1] * 5),))

    def test_length_mismatch_rejected(self):
        with pytest.raises(DatasetInvariantError):
            Dataset(latents=np.zeros((10, 1)), attributes=(disc([0, 1] * 3),))

    def test_non_injective_map_rejected(self):
        a1 = disc([0, 1] * 10)
        a2 = disc([0, 0, 1, 1] * 5)
        with pytest.raises(DatasetInvariantError):
            Dataset(
                latents=np.zeros((20, 2)),
                attributes=(a1, a2),
                regularized_map=(0, 0),
            )

    def test_map_out_of_range_rejected(self):
        with pytest.raises(DatasetInvariantError):
            Dataset(
                latents=np.zeros((10, 1)),
                attributes=(disc([0, 1] * 5),),
                regularized_map=(1,),
            )

    def test_duplicate_names_rejected(self):
        a1 = disc([0, 1] * 10)
        a2 = disc([0, 0, 1, 1] * 5)
        with pytest.raises(DatasetInvariantError):
            Dataset(
                latents=np.zeros((20, 2)),
                attributes=(a1, a2),
                names=("x", "x"),
            )

    @pytest.mark.parametrize(
        "latents, attrs, kw, match",
        [
            (np.zeros(10), (), {}, "N x D matrix"),
            (np.zeros((1, 1)), (), {}, "N >= 2 and D >= 1"),
            (np.zeros((10, 0)), (), {}, "N >= 2 and D >= 1"),
            (np.zeros((10, 1)), (np.arange(10.0) % 2,), {}, "not a SampleColumn"),
            (np.zeros((10, 2)), (disc([0, 1] * 5),), {"regularized_map": (0, 1)}, "map length"),
            (np.zeros((10, 2)), (disc([0, 1] * 5),), {"names": ("x", "y")}, "names length"),
            (np.zeros((10, 2)), (disc([0, 1] * 5),), {"names": ("",)}, "nonempty"),
        ],
    )
    def test_structural_invariants_rejected(self, latents, attrs, kw, match):
        with pytest.raises(DatasetInvariantError, match=match):
            Dataset(latents=latents, attributes=attrs, **kw)

    def test_default_identity_map_and_names(self):
        ds = binary_pair_dataset()
        assert ds.regularized_map == (0, 1)
        assert ds.names == ("1", "2")

    def test_latent_kind_inference(self):
        lat = np.column_stack([[0.0, 1.0, 2.0, 3.0], [0.5, 1.0, 2.0, 3.0]])
        ds = Dataset(latents=lat, attributes=(disc([0, 1, 0, 1]),))
        assert ds.latent_kinds == ("discrete", "continuous")


class TestMiProfile:
    def test_perfect_copy_single_binary(self):
        a = np.array([0.0, 1.0] * 500)
        ds = Dataset(latents=a[:, None], attributes=(disc(a),))
        p = mi_profile(ds, CFG)
        assert p.mi[0][0] == pytest.approx(LN2, abs=1e-15)
        assert p.h_marginal[0] == pytest.approx(LN2, abs=1e-15)

    def test_independent_binary_h_cond_equals_marginal(self):
        p = mi_profile(binary_pair_dataset(), CFG)
        assert p.h_cond[0][1] == p.h_marginal[0]
        assert p.h_cond[1][0] == p.h_marginal[1]

    def test_gaussian_copy_encoder_cross_mi(self):
        rng = np.random.default_rng(60)
        g = rng.standard_normal((20000, 2))
        a1 = g[:, 0]
        a2 = 0.8 * a1 + math.sqrt(0.36) * g[:, 1]
        ds = Dataset(
            latents=np.column_stack([a1, a2]),
            attributes=(cont(a1), cont(a2)),
        )
        p = mi_profile(ds, CFG)
        assert p.mi[0][1] == pytest.approx(I_GAUSS_08, abs=0.03)

    def test_clamped_nonnegative_raw_kept(self):
        rng = np.random.default_rng(61)
        ds = Dataset(
            latents=rng.standard_normal((500, 1)),
            attributes=(cont(rng.standard_normal(500)),),
        )
        p = mi_profile(ds, CFG)
        assert p.mi.min() >= 0.0
        assert p.mi[0][0] >= p.mi_raw[0][0]

    def test_serial_equals_concurrent(self):
        rng = np.random.default_rng(62)
        g = rng.standard_normal((800, 3))
        noisy = g[:, 0] + 0.1 * rng.standard_normal(800)
        a1, a2 = rng.integers(0, 3, 800), rng.integers(0, 5, 800)
        z = np.column_stack([a1 + 0.3 * g[:, 0], a2, a1 + rng.integers(0, 2, 800), g[:, 1]])

        def continuous():
            return Dataset(latents=g, attributes=(cont(noisy), cont(g[:, 1])))

        def mixed():
            # Discrete attributes against discrete and continuous latents;
            # each build has fresh columns, whose level maps the threads
            # of the concurrent run find first.
            return Dataset(latents=z, attributes=(disc(a1), disc(a2)))

        assert mixed().latent_kinds == ("continuous", "discrete", "discrete", "continuous")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)     # threads switch often, also inside a map's first use
        try:
            concurrent = [mi_profile(build(), CFG, workers=4) for build in (continuous, mixed)]
        finally:
            sys.setswitchinterval(interval)
        for build, got in zip((continuous, mixed), concurrent):
            np.testing.assert_equal(vars(got), vars(mi_profile(build(), CFG)))

    def test_concurrent_failure_names_the_serial_pair(self):
        # An all-distinct discrete latent has no class of 2 samples, so
        # each continuous attribute's class-wise cell with it fails; the
        # error names the first such pair at any number of workers.
        rng = np.random.default_rng(64)
        a, b, c = rng.integers(0, 3, 200), rng.standard_normal(200), rng.standard_normal(200)
        lat = np.column_stack([b, rng.permutation(200), c])
        ds = Dataset(latents=lat, attributes=(disc(a), cont(b), cont(c)))
        messages = []
        for workers in (1, 4):
            with pytest.raises(MetricComputationError) as exc:
                mi_profile(ds, CFG, workers=workers)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith(
            "MI estimation failed for attribute '2' (index 1) vs latent z2: ")

    def test_estimator_error_carries_attribute_context(self):
        # a constant continuous attribute breaks the entropy estimator;
        # the profile error names the offending attribute
        const = SampleColumn(np.full(20, 5.5), kind="continuous")
        ds = Dataset(
            latents=np.arange(20.0)[:, None] + 0.5,
            attributes=(const,),
            names=("flat",),
        )
        with pytest.raises(MetricComputationError, match="flat"):
            mi_profile(ds, CFG)

    def test_too_few_samples_for_k_rejected(self):
        a = np.array([0.0, 1.0, 1.0])
        ds = Dataset(latents=a[:, None], attributes=(disc(a),))
        with pytest.raises(MetricComputationError, match=r"N=3 .* k=3"):
            mi_profile(ds, CFG)

    def test_each_column_and_pair_estimated_once(self, monkeypatch):
        # attribute kinds disc/disc/cont, latent kinds disc/disc/cont/cont
        rng = np.random.default_rng(63)
        n = 300
        a1 = rng.integers(0, 3, n).astype(float)
        a2 = rng.integers(0, 2, n).astype(float)
        a3 = rng.standard_normal(n)
        lat = np.column_stack(
            [a1 + 1.0, a2 + 1.0, a3 + 0.1 * rng.standard_normal(n), rng.standard_normal(n)]
        )
        ds = Dataset(latents=lat, attributes=(disc(a1), disc(a2), cont(a3)))
        assert ds.latent_kinds == ("discrete", "discrete", "continuous", "continuous")

        calls = {"entropy": [], "pair": [], "mi_discrete": []}
        routed = Counter()
        level_maps = []

        def counted(fn, kind):
            def wrapper(*args, **kwargs):
                cols = [a.values.tobytes() for a in args if isinstance(a, SampleColumn)]
                calls[kind].append(cols[0] if kind == "entropy" else frozenset(cols))
                routed[fn.__name__] += 1
                return fn(*args, **kwargs)

            return wrapper

        find_levels = SampleColumn._levels.func

        def levels(col):
            level_maps.append(col.values.tobytes())
            return find_levels(col)

        cached = functools.cached_property(levels)
        cached.__set_name__(SampleColumn, "_levels")
        monkeypatch.setattr(SampleColumn, "_levels", cached)
        for name, kind in (
            ("entropy_discrete", "entropy"),
            ("entropy_continuous", "entropy"),
            ("_joint_entropy_discrete", "pair"),
            ("mi_continuous_detailed", "pair"),
            ("mi_classwise", "pair"),
            ("mi_discrete", "mi_discrete"),
        ):
            wrapper = counted(getattr(estimation, name), kind)
            for mod in (estimation, metrics):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, wrapper)
        mi_profile(ds, CFG)

        key = [a.values.tobytes() for a in ds.attributes]
        lat_key = [ds.latent_column(j).values.tobytes() for j in range(ds.d)]
        assert sorted(calls["entropy"]) == sorted(key + lat_key[:2])
        pairs = [frozenset({k, z}) for k in key for z in lat_key]
        pairs += [frozenset({key[i], key[j]}) for i in range(3) for j in range(i + 1, 3)]
        assert Counter(calls["pair"]) == Counter(pairs)
        assert len(set(pairs)) == len(pairs) == 15
        assert routed["_joint_entropy_discrete"] == 5
        assert routed["mi_continuous_detailed"] == 2
        # A pair with exactly one discrete column is one class-wise call.
        assert routed["mi_classwise"] == 8
        # Each discrete column finds its levels once: a1, a2, z1 and z2.
        assert sorted(level_maps) == sorted(key[:2] + lat_key[:2])
        assert calls["mi_discrete"] == []


class TestComputeMig:
    """The MIG field and runner-up selection of compute_dmig."""

    def test_ideal_independent_binary_is_one(self):
        p = mi_profile(binary_pair_dataset(), CFG)
        res = compute_dmig(0, p, (0, 1))
        assert res.mig == 1.0
        assert FLAG_REGULARIZATION_FAILURE not in res.flags
        assert res.top_dim == 0
        assert res.runner_up_dim == 1

    def test_noise_swap_goes_negative_with_flag(self):
        a1 = np.array([0.0, 1.0] * 500)
        rng = np.random.default_rng(70)
        noise = rng.standard_normal(1000)
        # regularized dimension carries noise; the copy sits elsewhere
        ds = Dataset(
            latents=np.column_stack([noise, a1]),
            attributes=(disc(a1),),
        )
        res = compute_dmig(0, mi_profile(ds, CFG), ds.regularized_map)
        assert res.mig < 0.0
        assert FLAG_REGULARIZATION_FAILURE in res.flags
        assert res.top_dim == 1

    def test_identical_attributes_zero_gap(self):
        a = np.array([0.0, 1.0] * 500)
        ds = Dataset(
            latents=np.column_stack([a, a]),
            attributes=(disc(a), disc(a)),
            names=("u", "v"),
        )
        res = compute_dmig(0, mi_profile(ds, CFG), ds.regularized_map)
        assert res.mig == 0.0

    def test_zero_entropy_attribute_rejected(self):
        a = disc([3] * 20)
        ds = Dataset(latents=np.zeros((20, 1)), attributes=(a,))
        p = mi_profile(ds, CFG)
        with pytest.raises(ZeroEntropyAttributeError) as exc_info:
            compute_dmig(0, p, ds.regularized_map)
        assert exc_info.value.attribute_index == 0

    def test_tie_break_lowest_dimension(self):
        a = np.array([0.0, 1.0] * 500)
        # two identical copies beyond the regularized dim: z2 and z3 tie
        ds = Dataset(
            latents=np.column_stack([a, a, a]),
            attributes=(disc(a),),
        )
        res = compute_dmig(0, mi_profile(ds, CFG), ds.regularized_map)
        assert res.runner_up_dim == 1

    def test_single_dimension_dataset(self):
        a = np.array([0.0, 1.0] * 500)
        ds = Dataset(latents=a[:, None], attributes=(disc(a),))
        res = compute_dmig(0, mi_profile(ds, CFG), ds.regularized_map)
        assert res.mig == 1.0
        assert res.runner_up_dim is None

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 20: plug-in MI of a 5-level attribute against an independent "
        "64-level latent is biased up by about (5 - 1)(64 - 1)/(2N) nats, and the runner-up "
        "takes the largest of 30 such cells; mean MIG reads 0.9503"))
    def test_many_level_latents_leave_exact_copies_at_one(self):
        # Each attribute is copied exactly into its latent, and 30 more
        # latents are independent of both, so the true MIG is 1.
        migs = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            attrs = rng.integers(0, 5, (2000, 2)).astype(float)
            lat = np.column_stack([attrs, rng.integers(0, 64, (2000, 30)).astype(float)])
            ds = Dataset(latents=lat, attributes=(disc(attrs[:, 0]), disc(attrs[:, 1])))
            migs += [r.mig for r in evaluate(ds, CFG).per_attribute]
        assert np.mean(migs) == pytest.approx(1.0, abs=0.02)


class TestComputeDmig:
    def test_correlated_discrete_ideal_is_one(self):
        # empirical table exactly {0.4, 0.1, 0.1, 0.4}
        a1 = np.repeat([0.0, 1.0], 500)
        a2 = np.concatenate([np.repeat([0.0, 1.0], [400, 100]),
                             np.repeat([0.0, 1.0], [100, 400])])
        ds = Dataset(
            latents=np.column_stack([a1, a2]),
            attributes=(disc(a1), disc(a2)),
        )
        p = mi_profile(ds, CFG)
        for i in range(2):
            am = compute_dmig(i, p, ds.regularized_map)
            assert am.branch == "regularized"
            assert am.dmig == pytest.approx(1.0, abs=1e-9)

    def test_unregularized_runner_reduces_to_mig(self):
        # z3 = a1 with a deterministic minority flip: informative about
        # a1, unregularized, and stronger than the independent a2 copy
        reps = 128
        a1 = np.array([0.0, 0.0, 1.0, 1.0] * reps)
        z3 = a1.copy()
        z3[::8] = 1.0 - z3[::8]
        ds = binary_pair_dataset(reps=reps, extra=z3)
        p = mi_profile(ds, CFG)
        for i in range(2):
            am = compute_dmig(i, p, ds.regularized_map)
            assert am.branch == "unregularized"
            assert am.runner_up_dim == 2
            assert am.dmig == am.mig

    def test_negative_denominator_flagged(self):
        rng = np.random.default_rng(80)
        a1 = rng.standard_normal(2000)
        a2 = a1 + 0.01 * rng.standard_normal(2000)
        ds = Dataset(
            latents=np.column_stack([a1, a2]),
            attributes=(cont(a1), cont(a2)),
        )
        am = compute_dmig(0, mi_profile(ds, CFG), ds.regularized_map)
        assert am.branch == "regularized"
        assert am.denominator < 0.0
        assert FLAG_NEGATIVE_DENOMINATOR in am.flags
        assert FLAG_DMIG_ABOVE_ONE in am.flags

    def test_near_zero_denominator_sentinel(self):
        a = np.array([0.0, 1.0] * 500)
        ds = Dataset(
            latents=np.column_stack([a, a]),
            attributes=(disc(a), disc(a)),
            names=("u", "v"),
        )
        am = compute_dmig(0, mi_profile(ds, CFG), ds.regularized_map)
        assert am.dmig == math.inf
        assert FLAG_NEAR_ZERO_DENOMINATOR in am.flags
        assert am.branch == "regularized"

    def test_dmig_above_one_for_positive_denominator(self):
        # strongly dependent attributes: H(a1|a2) is small but positive,
        # and the numerator exceeds it
        a1 = np.repeat([0.0, 1.0], 500)
        a2 = a1.copy()
        a2[:25] = 1.0 - a2[:25]  # 2.5% disagreement
        ds = Dataset(
            latents=np.column_stack([a1, a2]),
            attributes=(disc(a1), disc(a2)),
        )
        am = compute_dmig(0, mi_profile(ds, CFG), ds.regularized_map)
        assert am.denominator > 0.0
        assert am.dmig > 1.0
        assert FLAG_DMIG_ABOVE_ONE in am.flags
        assert FLAG_NEGATIVE_DENOMINATOR not in am.flags


class TestEvaluate:
    def test_empty_attribute_set_rejected(self):
        ds = Dataset(latents=np.zeros((10, 1)) + np.arange(10)[:, None], attributes=())
        with pytest.raises(DatasetInvariantError):
            evaluate(ds, CFG)

    def test_constant_regularized_latent_fails_scc(self):
        # The profile and MIG are defined, but Spearman is not.
        a = np.array([0.0, 1.0] * 50)
        ds = Dataset(
            latents=np.column_stack([np.zeros(100), a]),
            attributes=(disc(a),),
            names=("flat_z",),
        )
        with pytest.raises(MetricComputationError, match=r"SCC failed for attribute 'flat_z' \(index 0\): "):
            evaluate(ds, CFG)

    def test_single_ideal_binary_attribute(self):
        a = np.array([0.0, 1.0] * 500)
        ds = Dataset(latents=a[:, None], attributes=(disc(a),))
        report = evaluate(ds, CFG)
        rec = report.per_attribute[0]
        assert rec.mig == 1.0
        assert rec.dmig == 1.0
        assert rec.scc == 1.0
        assert report.mean_mig == 1.0 and report.mean_dmig == 1.0

    def test_trajectory_late_epoch_low_mig_high_scc(self):
        # late in a converging trajectory the attribute dependence keeps
        # the MI gap small relative to H(a) while SCC is already high
        spec = SyntheticSpec(
            family="trajectory",
            n=12000,
            seed=11,
            rho=0.95,
            noise_schedule=(10.0, 0.435),
            d_total=2,
        )
        _, ds_late = gen_trajectory(spec)[-1]
        report = evaluate(ds_late, CFG)
        for rec in report.per_attribute:
            assert rec.mig < 0.15
            assert rec.scc > 0.9

    def test_mean_is_arithmetic_mean(self):
        ds = binary_pair_dataset()
        report = evaluate(ds, CFG)
        migs = [a.mig for a in report.per_attribute]
        dmigs = [a.dmig for a in report.per_attribute]
        assert report.mean_mig == math.fsum(migs) / len(migs)
        assert report.mean_dmig == math.fsum(dmigs) / len(dmigs)

    def test_config_echo_and_digest(self):
        ds = binary_pair_dataset()
        cfg = EstimatorConfig(k=5)
        with tie_noise(jitter=0.0, seed=9):
            report = evaluate(ds, cfg)
        assert report.config_echo == cfg
        assert report.dataset_digest == ds.digest()

    def test_digest_sensitive_to_content(self):
        ds1 = binary_pair_dataset()
        lat = np.array(ds1.latents, copy=True)
        lat[0, 0] = 1.0 - lat[0, 0]
        ds2 = Dataset(latents=lat, attributes=ds1.attributes)
        assert ds1.digest() != ds2.digest()

    def test_names_carried_into_report(self):
        a = np.array([0.0, 1.0] * 500)
        ds = Dataset(latents=a[:, None], attributes=(disc(a),), names=("bright",))
        report = evaluate(ds, CFG)
        assert report.per_attribute[0].name == "bright"


class TestMetricInvariants:
    def test_numerator_identity(self):
        # mig * H(a_i) == dmig * denominator when no sentinel fired
        rng = np.random.default_rng(90)
        a1 = np.floor(3.0 * rng.random(900))
        a2 = np.floor(2.0 * rng.random(900))
        z3 = rng.standard_normal(900)
        ds = Dataset(
            latents=np.column_stack([a1, a2, z3]),
            attributes=(disc(a1), disc(a2)),
        )
        p = mi_profile(ds, CFG)
        for i in range(2):
            am = compute_dmig(i, p, ds.regularized_map)
            assert FLAG_NEAR_ZERO_DENOMINATOR not in am.flags
            lhs = am.mig * p.h_marginal[i]
            rhs = am.dmig * am.denominator
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_branch_collapse(self):
        reps = 128
        a1 = np.array([0.0, 0.0, 1.0, 1.0] * reps)
        z3 = a1.copy()
        z3[::8] = 1.0 - z3[::8]
        ds = binary_pair_dataset(reps=reps, extra=z3)
        p = mi_profile(ds, CFG)
        am = compute_dmig(0, p, ds.regularized_map)
        assert am.branch == "unregularized"
        assert am.dmig == am.mig

    def test_discrete_ideal_case_theorem(self):
        rng = np.random.default_rng(91)
        for _ in range(10):
            probs = rng.dirichlet(np.ones(9)).reshape(3, 3)
            probs = np.maximum(probs, 0.02)
            probs /= probs.sum()
            n = 3000
            codes = rng.choice(9, size=n, p=probs.ravel())
            a1 = (codes // 3).astype(float)
            a2 = (codes % 3).astype(float)
            ds = Dataset(
                latents=np.column_stack([a1, a2]),
                attributes=(disc(a1), disc(a2)),
            )
            p = mi_profile(ds, CFG)
            for i in range(2):
                am = compute_dmig(i, p, ds.regularized_map)
                if FLAG_NEAR_ZERO_DENOMINATOR in am.flags:
                    continue
                assert am.dmig == pytest.approx(1.0, abs=1e-9)

    def test_discrete_mig_upper_bound(self):
        rng = np.random.default_rng(92)
        for _ in range(10):
            a1 = np.floor(4.0 * rng.random(400))
            a2 = np.floor(3.0 * rng.random(400))
            z = np.column_stack([a1, np.floor(2.0 * rng.random(400))])
            ds = Dataset(latents=z, attributes=(disc(a1), disc(a2)))
            p = mi_profile(ds, CFG)
            for i in range(2):
                res = compute_dmig(i, p, ds.regularized_map)
                assert res.mig <= 1.0 + 1e-12

    def test_monotone_latent_map_preserves_selection(self):
        rng = np.random.default_rng(93)
        a1 = np.floor(3.0 * rng.random(600))
        z2 = np.floor(3.0 * rng.random(600))
        z3 = a1.copy()
        z3[::5] = (z3[::5] + 1.0) % 3.0
        ds = Dataset(latents=np.column_stack([a1, z2, z3]), attributes=(disc(a1),))
        mapped = np.column_stack([2 * a1 + 1, 2 * z2 + 1, 2 * z3 + 1])
        ds2 = Dataset(latents=mapped, attributes=(disc(a1),))
        r1 = compute_dmig(0, mi_profile(ds, CFG), ds.regularized_map)
        r2 = compute_dmig(0, mi_profile(ds2, CFG), ds2.regularized_map)
        assert (r1.top_dim, r1.runner_up_dim, r1.mig) == (
            r2.top_dim,
            r2.runner_up_dim,
            r2.mig,
        )

    def test_common_affine_map_keeps_report_close(self):
        rng = np.random.default_rng(94)
        g = rng.standard_normal((1500, 2))
        a1 = g[:, 0]
        a2 = 0.6 * a1 + 0.8 * g[:, 1]
        lat = np.column_stack(
            [
                a1 + 0.3 * rng.standard_normal(1500),
                a2 + 0.3 * rng.standard_normal(1500),
            ]
        )
        ds1 = Dataset(latents=lat, attributes=(cont(a1), cont(a2)))
        ds2 = Dataset(latents=2.5 * lat + 7.0, attributes=(cont(a1), cont(a2)))
        rep1 = evaluate(ds1, CFG)
        rep2 = evaluate(ds2, CFG)
        for r1, r2 in zip(rep1.per_attribute, rep2.per_attribute):
            assert (r1.top_dim, r1.runner_up_dim, r1.branch) == (
                r2.top_dim,
                r2.runner_up_dim,
                r2.branch,
            )
            assert r1.mig == pytest.approx(r2.mig, abs=0.02)
            assert r1.dmig == pytest.approx(r2.dmig, abs=0.05)

    def test_denominator_is_attribute_only(self):
        # different encoders over the same attributes share denominators
        # bitwise, so DMIG is an affine function of MIG across them
        rng = np.random.default_rng(95)
        g = rng.standard_normal((1200, 2))
        a1, a2 = g[:, 0], 0.9 * g[:, 0] + math.sqrt(1 - 0.81) * g[:, 1]
        attrs = (cont(a1), cont(a2))
        dens = []
        for sigma in (1.0, 0.5, 0.25):
            noise = np.random.default_rng(96).standard_normal((1200, 2))
            lat = np.column_stack([a1 + sigma * noise[:, 0], a2 + sigma * noise[:, 1]])
            ds = Dataset(latents=lat, attributes=attrs)
            p = mi_profile(ds, CFG)
            am = compute_dmig(0, p, ds.regularized_map)
            assert am.branch == "regularized"
            dens.append(am.denominator)
        assert dens[0] == dens[1] == dens[2]
