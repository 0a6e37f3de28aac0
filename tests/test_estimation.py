"""Estimator unit tests: oracle values, invariants, and error paths.

Closed-form oracle constants are frozen from the generating formulas:
Gaussian entropy 0.5*ln(2*pi*e*sigma^2), Gaussian MI -0.5*ln(1-rho^2),
and brute-force enumeration over small discrete tables.
"""

import dataclasses
import math
import re
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree as ScipyTree
from scipy.special import digamma as scipy_digamma
from scipy.stats import rankdata as scipy_rankdata

from dmig import (
    AlignmentError,
    Dataset,
    DegenerateSampleError,
    EstimatorConfig,
    InsufficientSamplesError,
    KindMismatchError,
    MIEstimate,
    SampleColumn,
    UndefinedCorrelationError,
    entropy_continuous,
    entropy_discrete,
    mi_continuous_detailed,
    mi_profile,
    spearman,
)
from dmig import estimation
from dmig.estimation import (
    _count_within,
    _digamma_each,
    _jittered,
    _kth_gap,
    cKDTree,
    conditional_entropy,
    digamma,
    mi_classwise,
    mi_discrete,
    rankdata,
)

from conftest import tie_noise

LN2 = 0.6931471805599453
H_3CAT = 1.0397207708399179          # 1.5 * ln 2
H_STD_NORMAL = 1.4189385332046727    # 0.5 * ln(2*pi*e)
H_NORMAL_S01 = -0.883646559789373    # 0.5 * ln(2*pi*e*0.01)
I_GAUSS_08 = 0.5108256237659907      # -0.5 * ln(1 - 0.8^2)
I_GAUSS_09 = 0.8303656034108255      # -0.5 * ln(1 - 0.9^2)
HC_GAUSS_08 = 0.908112909438682      # H_STD_NORMAL - I_GAUSS_08
I_TABLE = 0.19274475702175753        # enumeration over {0.4,0.1,0.1,0.4}
MAX = np.finfo(np.float64).max

CFG = EstimatorConfig()


def disc(values):
    return SampleColumn(np.asarray(values, dtype=float), kind="discrete")


def cont(values):
    return SampleColumn(np.asarray(values, dtype=float), kind="continuous")


def gauss_pair(rho, n, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, 2))
    return g[:, 0], rho * g[:, 0] + math.sqrt(1.0 - rho * rho) * g[:, 1]


class TestSampleColumn:
    def test_rejects_single_sample(self):
        with pytest.raises(InsufficientSamplesError):
            SampleColumn(np.array([1.0]), kind="continuous")

    def test_rejects_nan_and_inf(self):
        with pytest.raises(DegenerateSampleError):
            SampleColumn(np.array([1.0, math.nan]), kind="continuous")
        with pytest.raises(DegenerateSampleError):
            SampleColumn(np.array([1.0, math.inf]), kind="continuous")

    def test_rejects_non_integer_discrete(self):
        with pytest.raises(KindMismatchError):
            SampleColumn(np.array([0.0, 0.5]), kind="discrete")

    @pytest.mark.parametrize(
        "values, kind, match",
        [
            (np.zeros((2, 2)), "continuous", "one-dimensional"),
            (np.zeros(3), "ordinal", "unknown column kind"),
        ],
    )
    def test_rejects_bad_shape_or_kind(self, values, kind, match):
        with pytest.raises(KindMismatchError, match=match):
            SampleColumn(values, kind=kind)

    def test_values_read_only(self):
        col = cont([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            col.values[0] = 9.0

    def test_level_map(self):
        for levels, dtype in ((256, np.uint8), (257, np.uint16)):
            assert disc(np.arange(levels) * 3.0 - 7.0)._levels[0].dtype == dtype
        # 300 levels, singletons among them, and -0.0 and 0.0 as one.
        rng = np.random.default_rng(16)
        values = np.append(rng.integers(-150, 148, 3000), [148, 149]).astype(float)
        zero = np.flatnonzero(values == 0.0)
        values[zero[::2]] = -0.0
        x, y = disc(values), disc(rng.permutation(values))
        z = cont(values + rng.standard_normal(values.size))
        assert "_levels" not in vars(x)               # found on first use only
        codes, counts = x._levels
        _, ref_codes, ref_counts = np.unique(values, return_inverse=True, return_counts=True)
        assert codes.dtype == np.uint16 and counts.size == 300
        assert not (codes.flags.writeable or counts.flags.writeable)
        assert np.array_equal(codes, ref_codes) and np.array_equal(counts, ref_counts)
        assert np.unique(codes[zero]).size == 1

        # The joint entropy and the class-wise estimate as they were
        # computed before the level map.
        _, ix = np.unique(x.values, return_inverse=True)
        y_codes, iy = np.unique(y.values, return_inverse=True)
        _, joint = np.unique(ix * y_codes.size + iy, return_counts=True)
        assert estimation._joint_entropy_discrete(x, y) == estimation._plugin_entropy(
            joint, x.n)

        order = np.argsort(values, kind="stable")
        starts = np.flatnonzero(estimation._runs(values[order]))
        sizes = np.diff(np.append(starts, order.size))
        keep = sizes > 1
        order = order[np.repeat(keep, sizes)]
        sizes = sizes[keep]
        ks = np.minimum(CFG.k, sizes - 1)
        ends = np.cumsum(sizes)
        n = order.size
        psi_k = math.fsum(sizes * _digamma_each(ks)) / n
        ordered = _jittered(z)[order]
        eps = np.empty(n)
        for lo, hi, k in zip((ends - sizes).tolist(), ends.tolist(), ks.tolist()):
            ordered[lo:hi].sort()
            eps[lo:hi] = _kth_gap(ordered[lo:hi], k)
        by_value = np.argsort(ordered)
        m = _count_within(ordered[by_value], by_value, eps) + 1
        mean_psi = math.fsum(_digamma_each(np.repeat(sizes, sizes)) + _digamma_each(m)) / n
        assert ks.min() < CFG.k and n <= values.size - 2
        assert mi_classwise(x, z, CFG).value == psi_k + digamma(n) - mean_psi


class TestEstimatorConfig:
    def test_defaults(self):
        assert CFG.k == 3
        assert tuple(f.name for f in dataclasses.fields(EstimatorConfig)) == ("k",)

    def test_rejects_bad_values(self):
        with pytest.raises(InsufficientSamplesError):
            EstimatorConfig(k=0)


class TestEntropyDiscrete:
    def test_degenerate_distribution_is_zero(self):
        assert entropy_discrete(disc([0] * 50)) == 0.0

    def test_uniform_binary_is_ln2(self):
        col = disc([0] * 500 + [1] * 500)
        assert entropy_discrete(col) == pytest.approx(LN2, abs=1e-15)

    def test_three_category_half_quarter_quarter(self):
        col = disc([0] * 500 + [1] * 250 + [2] * 250)
        assert entropy_discrete(col) == pytest.approx(H_3CAT, abs=1e-15)

    def test_bounded_by_log_category_count(self):
        col = disc([0, 0, 1, 2, 2, 2])
        h = entropy_discrete(col)
        assert 0.0 <= h <= math.log(3) + 1e-12

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatchError):
            entropy_discrete(cont([0.1, 0.2]))


class TestEntropyContinuous:
    def test_standard_normal(self):
        rng = np.random.default_rng(11)
        h = entropy_continuous(cont(rng.standard_normal(20000)), CFG)
        assert h == pytest.approx(H_STD_NORMAL, abs=0.03)

    def test_uniform_unit_interval(self):
        rng = np.random.default_rng(12)
        h = entropy_continuous(cont(rng.random(20000)), CFG)
        assert h == pytest.approx(0.0, abs=0.03)

    def test_negative_for_concentrated_normal(self):
        rng = np.random.default_rng(13)
        h = entropy_continuous(cont(0.1 * rng.standard_normal(20000)), CFG)
        assert h == pytest.approx(H_NORMAL_S01, abs=0.03)
        assert h < 0.0

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamplesError):
            entropy_continuous(cont([1.0, 2.0, 3.0]), CFG)

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateSampleError):
            entropy_continuous(cont([2.0] * 100), CFG)

    def test_coincident_samples_rejected_without_jitter(self):
        vals = [1.0] * 50 + [2.0] * 50
        with tie_noise(jitter=0.0), pytest.raises(DegenerateSampleError):
            entropy_continuous(cont(vals), CFG)

    @pytest.mark.parametrize("vals, named", [
        (np.full(100, 0.5), "0.5 holds 100.0% of 100 rows"),
        # 1e-10 of the spread is below one ulp of 1e17 (16), so the ties survive.
        (np.concatenate([np.full(300, 1e17), 1e17 + 16.0 * np.arange(1, 201)]),
         "1e+17 holds 60.0% of 500 rows"),
    ], ids=["constant", "ties_below_one_ulp"])
    def test_refusal_names_the_most_frequent_value(self, vals, named):
        match = re.escape(named) + ".*declare the column discrete"
        with pytest.raises(DegenerateSampleError, match=match):
            entropy_continuous(cont(vals), CFG)

    @pytest.mark.parametrize("k", [-900, -1000])
    def test_power_of_two_scale_shifts_by_k_ln2(self, k):
        # np.std of such a column underflows to 0; only a zero k-th gap may refuse it.
        g = np.random.default_rng(14).standard_normal(2000)
        h = entropy_continuous(cont(g), CFG)
        assert entropy_continuous(cont(np.ldexp(g, k)), CFG) == pytest.approx(
            h + k * LN2, abs=1e-6)

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatchError):
            entropy_continuous(disc([0, 1] * 50), CFG)


class TestMiContinuous:
    def test_independent_standard_normals_near_zero(self):
        rng = np.random.default_rng(21)
        x = cont(rng.standard_normal(20000))
        y = cont(rng.standard_normal(20000))
        assert mi_continuous_detailed(x, y, CFG).value == pytest.approx(0.0, abs=0.02)

    def test_bivariate_normal_rho_08(self):
        a1, a2 = gauss_pair(0.8, 20000, 22)
        est = mi_continuous_detailed(cont(a1), cont(a2), CFG)
        assert est.value == pytest.approx(I_GAUSS_08, abs=0.03)

    def test_identical_columns_large_finite(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal(2000)
        est = mi_continuous_detailed(cont(x), cont(x), CFG)
        assert math.isfinite(est.value)
        assert est.value > 3.0  # far above any attainable MI at this N

    def test_deterministic_relation_diagnostic_on_underflow(self):
        # k+1 coincident joint points with jitter disabled underflow the
        # k-th neighbor distance; the estimate stays finite and flagged.
        x = disc([0, 1] * 100)
        with tie_noise(jitter=0.0):
            est = mi_continuous_detailed(x, x, CFG)
        assert est.deterministic_relation
        assert math.isfinite(est.value)

    def test_alignment_error(self):
        with pytest.raises(AlignmentError):
            mi_continuous_detailed(
                cont([1.0, 2.0, 3.0, 4.0]), cont([1.0, 2.0, 3.0, 4.0, 5.0]), CFG
            )

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamplesError):
            mi_continuous_detailed(cont([1.0, 2.0]), cont([3.0, 4.0]), CFG)

    def test_closed_form_at_three_scales(self):
        # Mutual information is invariant under a rescaling of either column.
        rng = np.random.default_rng(2)
        x = rng.standard_normal(8000)
        y = 0.9 * x + math.sqrt(1.0 - 0.81) * rng.standard_normal(8000)
        row = [mi_continuous_detailed(cont(x), cont(y * s), CFG).value for s in (1e-3, 1.0, 1e3)]
        assert row == pytest.approx([I_GAUSS_09] * 3, abs=0.03)
        assert np.ptp(row) <= 1e-12

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 12: the jitter breaks the ties of a 17-level column at random, so "
        "its KSG MI with itself reads 8.0693 against a plug-in entropy of 2.0203"))
    def test_tied_column_against_itself_reads_its_entropy(self):
        # A count ratio declared continuous: every value ties with others.
        values = np.random.default_rng(1).binomial(16, 0.3, 8000) / 16
        est = mi_continuous_detailed(cont(values), cont(values), CFG).value
        assert est == pytest.approx(entropy_discrete(disc(values * 16)), abs=0.01)

    def test_raw_estimate_not_far_below_zero_independent(self):
        # statistical nonnegativity: small negative excursions only
        vals = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = cont(rng.standard_normal(1000))
            y = cont(rng.standard_normal(1000))
            vals.append(mi_continuous_detailed(x, y, CFG).value)
        assert all(v >= -0.05 for v in vals)
        assert abs(sum(vals) / len(vals)) <= 0.02


def mixture_mi(levels, sigma):
    """I(a; a + sigma*eps) for a uniform on levels and standard normal eps,
    as h(z) - h(z | a) with h(z) by trapezoid quadrature."""
    grid = np.linspace(min(levels) - 12 * sigma, max(levels) + 12 * sigma, 400_001)
    dens = sum(np.exp(-0.5 * ((grid - v) / sigma) ** 2) for v in levels)
    dens /= len(levels) * sigma * math.sqrt(2 * math.pi)
    h_z = -np.trapezoid(dens * np.log(dens), grid)
    return h_z - 0.5 * math.log(2 * math.pi * math.e * sigma**2)


def classwise_reference(codes, z, k):
    """Ross 2014 with scikit-learn's small-class rule, by brute force."""
    labels, sizes = np.unique(codes, return_counts=True)
    size = dict(zip(labels, sizes))
    keep = [i for i in range(codes.size) if size[codes[i]] > 1]
    terms = []
    for i in keep:
        same = sorted(abs(z[j] - z[i]) for j in keep if j != i and codes[j] == codes[i])
        k_c = min(k, len(same))
        # i itself counts, also where the k-th distance is 0 (ties).
        m = 1 + sum(1 for j in keep if j != i and abs(z[j] - z[i]) < same[k_c - 1])
        terms.append((scipy_digamma(k_c), scipy_digamma(size[codes[i]]), scipy_digamma(m)))
    psi_k, psi_nc, psi_m = np.mean(terms, axis=0)
    return scipy_digamma(len(keep)) + psi_k - psi_nc - psi_m


class TestMiClasswise:
    @pytest.mark.parametrize("sigma", [1.0, 0.3, 0.1])
    def test_closed_form_at_three_scales(self, sigma):
        # KSG read 0.41 nats at z * 1000 for sigma = 1; the class-wise
        # cell is the same float at every scale of z.
        rng = np.random.default_rng(10)
        a = rng.integers(0, 5, 8000).astype(float)
        z = a + sigma * rng.standard_normal(8000)
        ds = Dataset(
            latents=np.column_stack([z * 1e-3, z, z * 1e3]), attributes=(disc(a),)
        )
        row = mi_profile(ds, CFG).mi_raw[0]
        assert np.ptp(row) <= 1e-12
        assert row[1] == pytest.approx(mixture_mi(range(5), sigma), abs=0.03)
        assert row[1] == mi_classwise(disc(a), cont(z), CFG).value

    def test_equals_ksg_when_neighbours_stay_in_class(self):
        rng = np.random.default_rng(11)
        a = disc(rng.integers(0, 3, 2000))
        z = cont(a.values + 0.05 * rng.standard_normal(2000))
        assert mi_classwise(a, z, CFG) == mi_continuous_detailed(a, z, CFG)

    def test_singleton_class_dropped(self):
        rng = np.random.default_rng(12)
        codes = rng.integers(0, 3, 60).astype(float)
        z = codes + rng.standard_normal(60)
        codes[17] = 9.0
        rest = np.arange(60) != 17
        with tie_noise(jitter=0.0):
            est = mi_classwise(disc(codes), cont(z), CFG).value
            assert est == mi_classwise(disc(codes[rest]), cont(z[rest]), CFG).value
        assert est == pytest.approx(classwise_reference(codes, z, CFG.k), abs=1e-12)

    @pytest.mark.parametrize("small", [2, 3])
    def test_class_at_most_k_uses_fewer_neighbours(self, small):
        # With k = 3, a class of N_c <= k uses k_c = N_c - 1.
        rng = np.random.default_rng(13)
        codes = np.concatenate([np.zeros(small), rng.integers(1, 3, 50)])
        z = codes + rng.standard_normal(codes.size)
        with tie_noise(jitter=0.0):
            est = mi_classwise(disc(codes), cont(z), CFG).value
        assert est == pytest.approx(classwise_reference(codes, z, CFG.k), abs=1e-12)

    def test_deterministic_relation_on_coincident_class(self):
        codes = disc([0, 1] * 20)
        z = cont(np.repeat([0.0, 1.0, 2.0, 3.0], 10))
        with tie_noise(jitter=0.0):
            est = mi_classwise(codes, z, CFG)
        assert est.deterministic_relation and math.isfinite(est.value)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=1, max_value=4),
        st.sampled_from([0.0, 1e-10]),
        st.booleans(),
        st.integers(min_value=0, max_value=4),
    )
    def test_profile_rows_equal_single_pairs(self, seed, k, jitter, singleton, small):
        # mi_profile runs each class-wise pair as its own cell: here
        # attribute a against z1, z3 and attribute b, and each discrete
        # latent against b. Singleton classes, classes of
        # N_c <= k and, at jitter 0, ties within a class (eps == 0) occur.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(12, 50))
        a = rng.integers(0, 3, n).astype(float)
        a[1:1 + small] = 5.0
        if singleton:
            a[0] = 7.0
        b = rng.standard_normal(n)
        z1, z3 = np.round(a + rng.standard_normal((2, n)), 1) + 0.25
        z2 = rng.integers(0, 4, n).astype(float)
        z4 = rng.integers(0, 2, n).astype(float)
        z4[-1] = 9.0
        ds = Dataset(
            latents=np.column_stack([z1, z2, z3, z4]), attributes=(disc(a), cont(b))
        )
        assert ds.latent_kinds == ("continuous", "discrete") * 2
        cfg = EstimatorConfig(k=k)
        with tie_noise(jitter=jitter):
            p = mi_profile(ds, cfg)
            rows = [(a, z1, p.mi_raw[0, 0]), (a, z3, p.mi_raw[0, 2]), (a, b, None),
                    (z2, b, p.mi_raw[1, 1]), (z4, b, p.mi_raw[1, 3])]
            for codes, z, got in rows:
                est = mi_classwise(disc(codes), cont(z), cfg).value
                if got is None:
                    assert p.h_cond[0, 1] == entropy_discrete(disc(a)) - est
                    assert p.h_cond[1, 0] == entropy_continuous(cont(b), cfg) - est
                else:
                    assert got == est
                ref = classwise_reference(codes, _jittered(cont(z)), k)
                assert est == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize(
        "x, y, error",
        [
            (disc(range(8)), cont(range(8)), DegenerateSampleError),
            (cont(range(8)), cont(range(8)), KindMismatchError),
            (disc(range(8)), disc(range(8)), KindMismatchError),
            (disc([0, 1] * 4), cont(range(9)), AlignmentError),
            (disc([0, 0, 1]), cont(range(3)), InsufficientSamplesError),
        ],
    )
    def test_rejects_unusable_pairs(self, x, y, error):
        with pytest.raises(error):
            mi_classwise(x, y, CFG)


class TestDigamma:
    def test_equals_scipy_on_every_count_to_2e5(self):
        n = np.arange(1, 200_001)
        assert np.array_equal(_digamma_each(n), scipy_digamma(n.astype(float)))

    def test_equals_scipy_at_spot_values_to_1e6(self):
        spots = np.random.default_rng(14).integers(200_001, 10**6, 2000)
        for n in [*spots.tolist(), 10**6]:
            assert digamma(n) == scipy_digamma(float(n)), n


def kdtree_counts(values, eps):
    """Strict marginal counts as a 1-D kd-tree gives them (reference)."""
    pts = values[:, None]
    found = ScipyTree(pts).query_ball_point(
        pts, np.nextafter(eps, 0.0), p=np.inf, return_length=True
    )
    return np.where(eps == 0.0, 0, found - 1)


TIE_HEAVY = st.lists(st.integers(0, 3).map(float), min_size=2, max_size=80)
ROUNDED = st.lists(
    st.floats(-10.0, 10.0).map(lambda v: round(v, 1)), min_size=2, max_size=80
)
MAGNITUDE = st.floats(-1e12, 1e12, allow_nan=False).map(lambda v: v * 10.0 ** -(abs(v) % 20))
MIXED_MAGNITUDES = st.lists(MAGNITUDE, min_size=2, max_size=80)
TIE_FREE = st.lists(st.floats(allow_nan=False), min_size=1, max_size=80, unique=True)


def count_within(values, eps):
    order = np.argsort(values)
    return _count_within(values[order], order, eps)


class TestMarginalCounts:
    """The sorted-array counts equal the kd-tree counts they replaced."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(TIE_HEAVY, ROUNDED, MIXED_MAGNITUDES), st.data())
    def test_equal_to_kdtree_at_exact_neighbour_distances(self, values, data):
        # eps_i is the distance to another sample (0 when it is i itself or
        # a tie), scaled, so the window edges sit on sample values.
        values = np.array(values)
        n = values.size
        partner = np.array(
            data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        )
        scale = data.draw(st.sampled_from([1.0, 0.5, 2.0, 1.0 + 2.0**-52]))
        eps = np.abs(values[partner] - values) * scale
        assert np.array_equal(count_within(values, eps), kdtree_counts(values, eps))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.sampled_from([0.0, 1e-10]),
        st.integers(min_value=1, max_value=5),
    )
    def test_equal_to_kdtree_at_ksg_radii(self, seed, jitter, k):
        # The radii KSG uses: k-th joint neighbour distances of a tie-heavy
        # code against a rounded continuous column, jitter 0 included.
        rng = np.random.default_rng(seed)
        a = disc(rng.integers(0, 3, 300))
        z = cont(np.round(a.values + 0.5 * rng.standard_normal(300), 1))
        with tie_noise(jitter=jitter):
            joint = np.column_stack([_jittered(a), _jittered(z)])
        eps = ScipyTree(joint).query(joint, k=[k + 1], p=np.inf)[0][:, 0]
        for col in joint.T:
            assert np.array_equal(count_within(col, eps), kdtree_counts(col, eps))

    def test_mixed_tie_heavy_pair_estimate_unchanged(self):
        # Values frozen from the kd-tree implementation, the jittered one
        # again once KSG worked in each column's units of spread.
        rng = np.random.default_rng(61)
        a = disc(rng.integers(0, 3, 400))
        z = cont(np.round(a.values + 0.5 * rng.standard_normal(400), 1))
        with tie_noise(jitter=0.0):
            assert mi_continuous_detailed(a, z, CFG) == MIEstimate(
                value=7.02411714001806, deterministic_relation=True
            )
        assert mi_continuous_detailed(a, z, CFG) == MIEstimate(
            value=0.5889441926639254, deterministic_relation=False
        )


class TestKthGap:
    """The sorted-window KL radii equal the kd-tree radii they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.sampled_from(["gaussian", "rounded", "codes"]),
        st.integers(min_value=1, max_value=5),
    )
    def test_equal_to_kdtree(self, seed, family, k):
        # Gaussian draws; floats rounded to one digit plus the default
        # 1e-10 jitter; tie-heavy integer codes at jitter 0.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(k + 1, 300))
        if family == "gaussian":
            pts = rng.standard_normal(n)
        elif family == "rounded":
            pts = _jittered(cont(np.round(rng.standard_normal(n), 1)))
        else:
            pts = rng.integers(0, 4, n).astype(float)
        ref = ScipyTree(pts[:, None]).query(pts[:, None], k=[k + 1], p=np.inf)[0][:, 0]
        order = np.argsort(pts)
        assert np.array_equal(_kth_gap(pts[order], k), ref[order])

    def test_small_memory_at_large_k(self):
        # A partitioned gap matrix of N x 2k floats peaked at 122 MiB on this input.
        values = np.random.default_rng(15).standard_normal(20_000)
        col, cfg = cont(values), EstimatorConfig(k=200)
        tracemalloc.start()
        try:
            entropy_continuous(col, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        ordered = np.sort(_jittered(col))
        eps = _kth_gap(ordered, 200)
        for i in np.random.default_rng(16).integers(0, ordered.size, 50):
            assert eps[i] == np.sort(np.abs(ordered - ordered[i]))[200]

    def test_coincident_samples_still_rejected(self):
        # 1.0 occurs three times: its second-nearest other is at distance 0,
        # its third-nearest is not.
        col = cont([0.0, 1.0, 1.0, 1.0, 2.5, 4.0, 7.0])
        with tie_noise(jitter=0.0):
            with pytest.raises(DegenerateSampleError):
                entropy_continuous(col, EstimatorConfig(k=2))
            assert math.isfinite(entropy_continuous(col, EstimatorConfig(k=3)))


def joint_points(family, n, seed):
    """n points of one joint-space shape that the KSG search must get exact."""
    rng = np.random.default_rng(seed)
    if family.startswith("gaussian"):
        x, y = gauss_pair(float(family.removeprefix("gaussian")), n, seed)
    elif family == "rounded":
        x, y = np.round(rng.standard_normal((2, n)), 1)
    elif family == "codes":
        # Integer codes at jitter 0: >= k+1 coincident points give eps == 0.
        return rng.integers(0, 4, (n, 2)).astype(float)
    elif family == "ties":
        x, y = rng.integers(0, 2, (2, n)).astype(float)
    else:
        x, y = gauss_pair(0.5, n, seed)
        x[rng.integers(n)] = 1e9
    return np.column_stack([_jittered(cont(x)), _jittered(cont(y))])


def wide_pair(n, seed):
    """n points whose magnitudes span 1e-300 to 1e300 on both axes, with tie clusters."""
    rng = np.random.default_rng(seed)
    # A point's two coordinates share a decade, so the points near 1e-300
    # are each other's neighbours and need the finest cells.
    x, y = rng.choice([-1.0, 1.0], (2, n)) * rng.uniform(1.0, 10.0, (2, n))
    scale = 10.0 ** rng.uniform(-300.0, 300.0, n)
    x *= scale
    y *= scale
    # 30 clusters of 5 to 40 rows share their x; every other one its y too.
    start = 0
    rows = rng.permutation(n)
    for c in range(30):
        group = rows[start:start + int(rng.integers(5, 41))]
        start += group.size
        x[group] = x[group[0]]
        if c % 2:
            y[group] = y[group[0]]
    return x, y


def kth_joint(search, joint, k):
    if search is ScipyTree:
        return ScipyTree(joint).query(joint, k=[k + 1], p=np.inf)[0][:, 0]
    return search(*joint.T).query(k)


class TestJointSearch:
    """The numpy k-th-neighbour search equals scipy's kd-tree bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.sampled_from(
            ["gaussian0.5", "gaussian0.96", "gaussian0.999", "rounded", "codes", "ties", "outlier"]
        ),
        st.integers(min_value=1, max_value=5),
        st.data(),
    )
    def test_equal_to_kdtree(self, seed, family, k, data):
        # Up to 3000 points, so that points also move between grids. Half
        # the draws search a few dozen points at a time, so that first
        # passes, wider blocks and the points moved to another grid span
        # several batches (ties move all of theirs to a finer grid).
        joint = joint_points(family, data.draw(st.integers(k + 1, 3000)), seed)
        with pytest.MonkeyPatch.context() as patch:
            if data.draw(st.booleans()):
                patch.setattr(estimation, "_BATCH", data.draw(st.integers(16, 64)))
            got = kth_joint(cKDTree, joint, k)
        assert np.array_equal(got, kth_joint(ScipyTree, joint, k))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(MAGNITUDE, MAGNITUDE), min_size=2, max_size=80), st.data())
    def test_equal_to_kdtree_on_mixed_magnitudes(self, pairs, data):
        joint = np.array(pairs)
        k = data.draw(st.integers(1, min(5, len(pairs) - 1)))
        assert np.array_equal(kth_joint(cKDTree, joint, k), kth_joint(ScipyTree, joint, k))

    @pytest.mark.parametrize("k", [3, 10])
    def test_equal_to_kdtree_across_the_float_range(self, k):
        # The grids' levels run from about -830 to 1000, far outside int8;
        # points move to coarser grids again and again, and tied ones to
        # finer grids. The marginal counts gather each column in the tree's
        # order, as KSG does.
        x, y = wide_pair(1000, 18)
        tree = cKDTree(x, y)
        eps = tree.query(k)
        assert np.array_equal(eps, kth_joint(ScipyTree, np.column_stack([x, y]), k))
        for values, by in ((x, tree.by_x), (y, tree.by_y)):
            assert np.array_equal(_count_within(values[by], by, eps), kdtree_counts(values, eps))

    @pytest.mark.parametrize("k, cluster", [(100, 65), (100, 80), (100, 100)])
    def test_isolated_cluster_at_large_k(self, k, cluster):
        # The cluster crowds its block on every grid, yet holds no more
        # than k points, so each of its points needs far ones as well.
        rng = np.random.default_rng(11)
        far = 1000.0 + 1e-9 * rng.standard_normal((cluster, 2))
        joint = np.vstack([joint_points("gaussian0.5", 2000, 11), far])
        assert np.array_equal(kth_joint(cKDTree, joint, k), kth_joint(ScipyTree, joint, k))

    @pytest.mark.parametrize(
        "family, k, measured",
        [
            ("gaussian0.9", 3, 16.4),
            ("gaussian0.99995", 3, 13.0),
            ("outlier", 3, 13.9),
            ("ties", 3, 23.5),
            ("ties", 10, 37.1),
        ],
    )
    def test_candidates_per_point_bounded(self, monkeypatch, family, k, measured):
        # A work count, not a time: the candidate entries that _nearest
        # scans per point may reach twice the count measured when this
        # bound was set, so a search that loops over crowded blocks fails.
        scanned = []
        nearest = estimation._nearest

        def counted(grid, qx, qy, lo, hi, kth):
            scanned.append(int((hi - lo).sum()))
            return nearest(grid, qx, qy, lo, hi, kth)

        monkeypatch.setattr(estimation, "_nearest", counted)
        cKDTree(*joint_points(family, 8000, 11).T).query(k)
        assert sum(scanned) / 8000 <= 2 * measured

    @pytest.mark.parametrize("family", ["outlier", "ties"])
    def test_exact_in_small_memory_at_25000_points(self, family):
        # The far point and the tie clusters each need grids of their own.
        # int64 levels, counts and ranks, with sorted copies of both columns
        # kept, peaked at 5.50 MiB on outlier and 5.79 MiB on ties; narrow
        # values and sorted values gathered where they are used peak at
        # 4.35 and 4.64 MiB. The bound is 1.16 times the larger.
        joint = joint_points(family, 25_000, 5)
        tracemalloc.start()
        try:
            got = kth_joint(cKDTree, joint, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.4 * 2**20
        assert np.array_equal(got, kth_joint(ScipyTree, joint, 3))

    def test_small_memory_at_25000_points(self):
        # Passes over all points at once peaked at 10.2 MiB here; batches
        # of _BATCH points in cell order at 5.22 MiB, and narrow values with
        # no kept sorted copies at 4.08 MiB. The bound is 1.23 times that.
        x, y = joint_points("gaussian0.9", 25_000, 5).T
        tracemalloc.start()
        try:
            cKDTree(x, y).query(3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.0 * 2**20

    @pytest.mark.parametrize("n, bound", [(25_000, 4.9), (200_000, 28.0)])
    def test_ksg_cell_in_small_memory(self, n, bound):
        # The whole KSG cell: search, marginal counts and reduction. With
        # int64 levels, counts and ranks, sorted copies of both columns kept
        # and the counts' copies of the live rows, it peaked at 5.59 MiB at
        # N = 25 000 and 33.1 MiB at 2e5; it now peaks at 4.45 and 25.5 MiB,
        # and each bound is 1.1 times that.
        x, y = (cont(v) for v in joint_points("gaussian0.9", n, 5).T)
        tracemalloc.start()
        try:
            mi_continuous_detailed(x, y, CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * 2**20


class TestMiDiscrete:
    def test_perfect_dependence_binary(self):
        x = disc([0, 1] * 500)
        assert mi_discrete(x, x) == pytest.approx(LN2, abs=1e-15)

    def test_independence_uniform_square(self):
        x = disc([0, 0, 1, 1] * 250)
        y = disc([0, 1, 0, 1] * 250)
        assert mi_discrete(x, y) == 0.0

    def test_table_04_01_01_04(self):
        # empirical table exactly {0.4, 0.1, 0.1, 0.4} at n = 1000
        x = disc([0] * 500 + [1] * 500)
        y = disc([0] * 400 + [1] * 100 + [0] * 100 + [1] * 400)
        assert mi_discrete(x, y) == pytest.approx(I_TABLE, abs=1e-15)

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatchError):
            mi_discrete(cont([0.5, 1.5] * 5), disc([0, 1] * 5))


class TestConditionalEntropy:
    def test_independent_discrete_equals_marginal(self):
        x = disc([0, 0, 1, 1] * 250)
        y = disc([0, 1, 0, 1] * 250)
        assert conditional_entropy(x, y, CFG) == pytest.approx(
            entropy_discrete(x), abs=1e-12
        )

    def test_identical_discrete_is_zero(self):
        x = disc([0, 1] * 500)
        assert conditional_entropy(x, x, CFG) == pytest.approx(0.0, abs=1e-15)

    def test_bivariate_normal_rho_08(self):
        a1, a2 = gauss_pair(0.8, 20000, 31)
        assert conditional_entropy(cont(a1), cont(a2), CFG) == pytest.approx(
            HC_GAUSS_08, abs=0.04
        )

    def test_independent_continuous_near_marginal(self):
        rng = np.random.default_rng(32)
        x = cont(rng.standard_normal(5000))
        y = cont(rng.standard_normal(5000))
        assert conditional_entropy(x, y, CFG) == pytest.approx(
            entropy_continuous(x, CFG), abs=0.05
        )


class TestSpearman:
    def test_monotone_map_exact_one(self):
        rng = np.random.default_rng(41)
        x = rng.standard_normal(500)
        assert spearman(cont(x), cont(np.exp(x))) == 1.0

    def test_antitone_exact_minus_one(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal(500)
        assert spearman(cont(x), cont(-x)) == -1.0

    def test_hand_example(self):
        x = disc([1, 2, 3, 4, 5])
        y = disc([1, 3, 2, 5, 4])
        assert spearman(x, y) == 0.8

    def test_self_correlation_with_ties(self):
        x = disc([0, 1, 1, 2, 2, 2])
        assert spearman(x, x) == 1.0

    def test_constant_column_rejected(self):
        with pytest.raises(UndefinedCorrelationError):
            spearman(disc([1, 1, 1, 1]), disc([1, 2, 3, 4]))

    def test_range(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            x = cont(rng.standard_normal(50))
            y = cont(rng.standard_normal(50))
            assert -1.0 <= spearman(x, y) <= 1.0

    def test_continuous_ranks_in_small_memory(self):
        # Two correlated Gaussian columns at N = 2e5. Float average ranks
        # turned into integers peaked at 12.40 MiB; the sorted level maps,
        # kept with the columns, peak at 9.35 MiB. The bound is 1.23 times that.
        x, y = (cont(v) for v in gauss_pair(0.8, 200_000, 44))
        tracemalloc.start()
        try:
            spearman(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 11.5 * 2**20


class TestRanks:
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(TIE_HEAVY, ROUNDED, TIE_FREE))
    def test_rankdata_equals_scipy_average(self, values):
        values = np.array(values)
        codes, counts = rankdata(values)
        assert codes.dtype == np.min_scalar_type(counts.size - 1) and counts.dtype == np.int64
        # Level l's c_l values follow e_l - c_l lower ones: their average
        # rank from 1 is (2e_l - c_l + 1) / 2.
        ours = ((2 * np.cumsum(counts) - counts + 1) / 2)[codes]
        ref = scipy_rankdata(values, method="average")
        assert ours.dtype == ref.dtype == np.float64
        assert np.array_equal(ours, ref)
        _, inverse = np.unique(values, return_inverse=True)
        assert np.array_equal(codes, inverse)
        assert counts.size == np.unique(values).size

    @pytest.mark.parametrize("n", [2, 7, 1000, 2_000_000])
    def test_tie_free_spearman_equals_python_int_sum(self, n):
        # 2e6 exceeds one int64 chunk (n**3 > 2**62).
        rng = np.random.default_rng(n)
        x = rng.permutation(n).astype(float)
        y = rng.permutation(n).astype(float)
        d2 = sum((int(a) - int(b)) ** 2 for a, b in zip(x + 1, y + 1))
        assert spearman(cont(x), cont(y)) == 1.0 - (6.0 * d2) / (n * (n * n - 1.0))

    @pytest.mark.parametrize("n, kinds", [
        pytest.param(20_000, (disc, disc), id="20000"),
        pytest.param(400_000, (disc, disc), id="400000"),
        pytest.param(20_000, (cont, cont), id="20000-cont"),
        pytest.param(20_000, (disc, cont), id="20000-mixed"),
    ])
    def test_tied_spearman_equals_fraction_reference(self, n, kinds):
        # The Pearson formula on average ranks, its three sums exact in
        # Fractions over the contingency table. Up to n of about 3e5 a
        # float dot product of the centred ranks is exact too; 4e5 is past it.
        # A tied continuous column is ranked through the sorted level map.
        rng = np.random.default_rng(n)
        x = rng.integers(0, 7, n).astype(float)
        y = x + rng.integers(0, 5, n)

        def centred_ranks(values):
            counts, rank, below = Counter(values), {}, 0
            for v in sorted(counts):
                rank[v] = Fraction(2 * below + counts[v] + 1, 2) - Fraction(n + 1, 2)
                below += counts[v]
            return counts, rank

        (nx, rx), (ny, ry) = centred_ranks(x.tolist()), centred_ranks(y.tolist())
        sxy = sum(c * rx[a] * ry[b] for (a, b), c in Counter(zip(x.tolist(), y.tolist())).items())
        sxx = sum(c * rx[a] ** 2 for a, c in nx.items())
        syy = sum(c * ry[b] ** 2 for b, c in ny.items())
        ref = float(sxy) / math.sqrt(float(sxx) * float(syy))
        assert spearman(kinds[0](x), kinds[1](y)).hex() == ref.hex()


def sorted_levels(values):
    """A level map as one np.unique finds it, the reference for rankdata's sort."""
    _, codes, counts = np.unique(values, return_inverse=True, return_counts=True)
    return codes.astype(np.min_scalar_type(counts.size - 1)), counts


def spearman_outcome(x, y):
    """spearman's value in hex, or the message it refuses with."""
    try:
        return spearman(x, y).hex()
    except UndefinedCorrelationError as exc:
        return str(exc)


def codes_pair(x, y):
    return np.asarray(x, dtype=float), np.asarray(y, dtype=float)


RNG_COUNT = np.random.default_rng(28)
SIGNED_ZERO = np.array([-1.0, -0.0, 0.0, 2.0, 0.0, -0.0, 2.0, -1.0, 0.0, -0.0, 2.0, 2.0])
NEAR_2_53 = 2.0**53 + np.array([-3.0, -1.0, 0.0, 2.0, 6.0])
BEYOND_2_53 = 2.0**60 + 256.0 * np.arange(4)


class TestCounting:
    """The counted level map, joint table and ranks against np.unique and rankdata.

    Each case names whether the level map of x, that of y and the joint
    table are counted (np.bincount) or sorted (rankdata, np.unique for the
    table); every level map, the discrete and the continuous one, must be
    np.unique's, every estimate bit for bit the sorting path's, and so
    must spearman against the sorted ranks of the same continuous values.
    """

    @pytest.mark.parametrize(
        "x, y, counted",
        [
            pytest.param(*codes_pair(RNG_COUNT.integers(-9, -4, 60), RNG_COUNT.integers(-3, 3, 60)),
                         (True, True, True), id="negative_codes"),
            pytest.param(SIGNED_ZERO, SIGNED_ZERO[::-1].copy(), (True, True, True), id="signed_zero"),
            pytest.param(*codes_pair(np.full(40, 3.0), RNG_COUNT.integers(0, 4, 40)),
                         (True, True, True), id="single_level"),
            pytest.param(np.tile(NEAR_2_53, 4), np.repeat(NEAR_2_53, 4), (True, True, False),
                         id="near_2_53"),
            # Values 256 apart: a range of 768, counted at N = 800.
            pytest.param(np.tile(BEYOND_2_53, 200), np.repeat(BEYOND_2_53[::-1], 200),
                         (True, True, True), id="beyond_2_53"),
            pytest.param(*codes_pair([-(2.0**53), 0.0, 2.0**53] * 4, np.arange(12) % 3),
                         (False, True, True), id="wide_around_2_53"),
            pytest.param(*codes_pair(RNG_COUNT.permutation(300), RNG_COUNT.permutation(300) % 7),
                         (True, True, False), id="range_below_n"),
            pytest.param(*codes_pair(RNG_COUNT.permutation(np.append(np.arange(299), 300)),
                                     np.arange(300) % 7), (False, True, False), id="range_at_n"),
            pytest.param(*codes_pair(np.arange(12) % 3, np.arange(12) % 4), (True, True, True),
                         id="table_at_n"),
            pytest.param(*codes_pair(np.arange(11) % 3, np.arange(11) % 4), (True, True, False),
                         id="table_above_n"),
        ],
    )
    def test_counting_equals_sorting(self, monkeypatch, x, y, counted):
        calls = []
        bincount = np.bincount
        monkeypatch.setattr(np, "bincount", lambda a: calls.append(a.size) or bincount(a))
        dx, dy = disc(x), disc(y)
        n = x.size
        found = []
        for col, values in ((dx, x), (dy, y)):
            before = len(calls)
            levels = col._levels
            found.append(len(calls) > before)
            ref_codes, ref_counts = sorted_levels(values)
            for codes, counts in (levels, cont(values)._levels):
                assert codes.dtype == ref_codes.dtype and np.array_equal(codes, ref_codes)
                assert counts.dtype == ref_counts.dtype and np.array_equal(counts, ref_counts)
            assert entropy_discrete(col) == estimation._plugin_entropy(ref_counts, n)
        before = len(calls)
        (ix, kx), (iy, ky) = ((c, k.size) for c, k in map(sorted_levels, (x, y)))
        joint = np.unique(ix.astype(np.intp) * ky + iy, return_counts=True)[1]
        assert estimation._joint_entropy_discrete(dx, dy) == estimation._plugin_entropy(joint, n)
        found.append(len(calls) > before)
        assert tuple(found) == counted
        # Level-count ranks, on one side or both, against rankdata's.
        ref = spearman_outcome(cont(x), cont(y))
        assert spearman_outcome(dx, dy) == spearman_outcome(dx, cont(y)) == ref
        assert spearman_outcome(cont(x), dy) == ref

    def test_mixed_spearman_sorts_only_the_continuous_side(self, monkeypatch):
        rng = np.random.default_rng(29)
        codes = rng.integers(0, 5, 500).astype(float)
        z = codes + rng.standard_normal(500)
        sorted_values = []
        ranks = estimation.rankdata
        monkeypatch.setattr(estimation, "rankdata",
                            lambda v: sorted_values.append(v) or ranks(v))
        value = spearman(disc(codes), cont(z))
        assert len(sorted_values) == 1 and np.array_equal(sorted_values[0], z)
        assert value == spearman(cont(codes), cont(z)) == spearman(cont(z), disc(codes))


class TestInvariants:
    """Estimator-level properties from the module contract."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_mi_symmetry_bit_exact(self, seed):
        rng = np.random.default_rng(seed)
        x = cont(rng.standard_normal(300))
        y = cont(rng.standard_normal(300) + 0.5 * x.values)
        assert (
            mi_continuous_detailed(x, y, CFG).value
            == mi_continuous_detailed(y, x, CFG).value
        )

    def test_mi_symmetry_discrete(self):
        x = disc([0, 1, 1, 2] * 50)
        y = disc([0, 0, 1, 1] * 50)
        assert mi_discrete(x, y) == mi_discrete(y, x)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=4), min_size=8, max_size=64),
        st.lists(st.integers(min_value=0, max_value=4), min_size=8, max_size=64),
    )
    def test_discrete_bound_and_nonnegative(self, xs, ys):
        n = min(len(xs), len(ys))
        x, y = disc(xs[:n]), disc(ys[:n])
        mi = mi_discrete(x, y)
        assert mi >= 0.0
        assert mi <= min(entropy_discrete(x), entropy_discrete(y)) + 1e-12

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=3), min_size=8, max_size=64),
        st.lists(st.integers(min_value=0, max_value=3), min_size=8, max_size=64),
    )
    def test_discrete_chain_consistency(self, xs, ys):
        n = min(len(xs), len(ys))
        x, y = disc(xs[:n]), disc(ys[:n])
        lhs = entropy_discrete(x)
        rhs = conditional_entropy(x, y, CFG) + mi_discrete(x, y)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_determinism(self):
        rng = np.random.default_rng(51)
        x = cont(rng.standard_normal(400))
        y = cont(rng.standard_normal(400))
        cfg = EstimatorConfig(k=4)
        with tie_noise(jitter=1e-9, seed=77):
            assert mi_continuous_detailed(x, y, cfg) == mi_continuous_detailed(x, y, cfg)
            assert entropy_continuous(x, cfg) == entropy_continuous(x, cfg)

    def test_seed_changes_jittered_estimate(self):
        # Discrete codes jittered into KSG depend on the seed stream where
        # a point's k-th joint neighbour lies in the next level, and the
        # jitter orders the tied distances to that level. Six levels sit
        # 0.59 spreads apart, within 11 points' k-th neighbour distance;
        # three levels sit 1.22 apart, beyond every point's, and give
        # the same estimate at every seed.
        x = SampleColumn(np.repeat(np.arange(6.0), 30), kind="continuous")
        rng = np.random.default_rng(52)
        y = cont(rng.standard_normal(180))
        with tie_noise(seed=0):
            a = mi_continuous_detailed(x, y, CFG).value
        with tie_noise(seed=1):
            b = mi_continuous_detailed(x, y, CFG).value
        assert a != b

    @pytest.mark.parametrize("extremes", [{0: MAX}, {5: -MAX}, {0: MAX, 1: -MAX}],
                             ids=["max", "-max", "both"])
    def test_values_at_the_float64_maximum_give_finite_estimates(self, extremes):
        # Adding the jitter to MAX overflows, so it is subtracted there; a
        # distance, block edge or 2 * eps past MAX is inf, and keeps its order.
        rng = np.random.default_rng(53)
        x, y = rng.standard_normal(200), rng.standard_normal(200)
        for i, v in extremes.items():
            x[i] = v
        codes = disc(rng.integers(0, 3, 200))
        jittered = _jittered(cont(x))
        plain = ~np.isin(np.arange(200), [i for i, v in extremes.items() if v > 0])
        assert np.all(jittered[plain] >= x[plain]) and np.all(jittered[~plain] < x[~plain])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [
                entropy_continuous(cont(x), CFG),
                mi_continuous_detailed(cont(x), cont(y), CFG).value,
                mi_continuous_detailed(cont(y), cont(x), CFG).value,
                mi_classwise(codes, cont(x), CFG).value,
            ]
        assert all(math.isfinite(v) for v in values)
        assert values[1] == values[2]

    def test_jitter_of_a_column_spanning_the_float64_range_is_finite(self):
        vals = np.tile([MAX, -MAX], 100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            jittered = _jittered(cont(vals))
        assert np.all(np.isfinite(jittered)) and np.all(np.abs(jittered) < MAX)

    def test_tied_column_cells_keep_their_value_at_a_tiny_scale(self):
        # N(0, 1) plus 4-level codes, rounded to 0.1. np.std of the scaled
        # columns underflows to 0. One jitter stream moves these tie-heavy
        # estimates by about 0.01 (ROADMAP item 12), so each side is the
        # mean over 20 seeds.
        rng = np.random.default_rng(0)
        codes = rng.integers(0, 4, 2000).astype(float)
        tied = np.round(codes + rng.standard_normal(2000), 1)

        def cells(scale):
            out = []
            for seed in range(20):
                with tie_noise(seed=seed):
                    out.append((
                        mi_classwise(disc(codes), cont(tied * scale), CFG).value,
                        mi_continuous_detailed(cont(tied * scale), cont(codes * scale),
                                               CFG).value))
            return np.mean(out, axis=0)

        assert cells(2.0**-900) == pytest.approx(cells(1.0), abs=0.02)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(200)
        y = rng.standard_normal(200) + x
        perm = rng.permutation(200)
        with tie_noise(jitter=0.0):
            assert (
                mi_continuous_detailed(cont(x), cont(y), CFG).value
                == mi_continuous_detailed(cont(x[perm]), cont(y[perm]), CFG).value
            )
        xd = np.floor(3.0 * rng.random(200))
        yd = np.floor(3.0 * rng.random(200))
        assert mi_discrete(disc(xd), disc(yd)) == mi_discrete(
            disc(xd[perm]), disc(yd[perm])
        )
        # Spearman's sums are exact integers: no tolerance, whatever the kinds.
        tied = np.round(y, 1)
        for (fa, a), (fb, b) in (((disc, xd), (disc, yd)), ((cont, x), (cont, y)),
                                 ((disc, xd), (cont, tied)), ((cont, tied), (cont, x))):
            assert spearman(fa(a), fb(b)).hex() == spearman(fa(a[perm]), fb(b[perm])).hex()
