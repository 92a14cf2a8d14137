import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from oracles import law_from_dict
from shortcycles.closedforms import harmonic_number, macroscopic_bound, refined_bound
from shortcycles.counting import brute_force_pmf, joint_pmf
from shortcycles.distances import (
    PoissonSpec,
    _distinct_rows,
    _tv_to_poisson,
    tv_cycle_counts,
    tv_empirical,
    tv_exact,
)
from shortcycles.permutations import CountsVector

# computed once with an independent high-precision summation and frozen
TV_N4_R2_D1 = 0.5007319693654687
REFINED_1E4 = 0.014654588754528966


def poisson_truncated(d, tops):
    means = PoissonSpec.cycle_reference(d).means
    entries = {}

    def rec(prefix):
        if len(prefix) == d:
            # in logs: mean**c / c! overflows at c = 200
            log_mass = sum(c * math.log(m) - m - math.lgamma(c + 1) for m, c in zip(means, prefix))
            entries[CountsVector(tuple(prefix))] = math.exp(log_mass)
            return
        for c in range(tops[len(prefix)] + 1):
            rec(prefix + [c])

    rec([])
    return law_from_dict(d, entries, "double")


class TestPoissonSpec:
    def test_reference_means(self):
        assert PoissonSpec.cycle_reference(3).means == (1.0, 0.5, 1 / 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonSpec(())

    @pytest.mark.parametrize("mean", [math.nan, math.inf, -math.inf, 0.0])
    def test_means_must_be_finite_and_positive(self, mean):
        # a NaN mean used to pass the check and turn every distance into NaN
        with pytest.raises(ValueError, match="finite, positive"):
            PoissonSpec((mean, 0.5))


class TestTvExact:
    def test_self_distance_zero(self):
        truncated = poisson_truncated(1, [200])
        assert tv_exact(truncated, PoissonSpec.cycle_reference(1)) <= 1e-14

    def test_point_mass(self):
        point = law_from_dict(1, {CountsVector((0,)): Fraction(1)}, "exact")
        assert tv_exact(point, PoissonSpec.cycle_reference(1)) == pytest.approx(
            1 - math.exp(-1), rel=1e-14
        )

    def test_frozen_regression_value(self):
        pmf = joint_pmf(4, 2, 1)
        assert tv_exact(pmf, PoissonSpec.cycle_reference(1)) == pytest.approx(
            TV_N4_R2_D1, rel=1e-12
        )
        assert tv_exact(pmf, PoissonSpec.cycle_reference(1), precision=50) == pytest.approx(
            TV_N4_R2_D1, rel=1e-12
        )

    @pytest.mark.parametrize("mode", ["exact", "double"])
    def test_reads_rows_and_masses_in_dict_order(self, mode):
        # the same reduction fed from the sorted dict, as before the arrays
        law = joint_pmf(20, 6, 3, mode=mode)
        spec = PoissonSpec.cycle_reference(3)
        support = sorted(law.entries, key=lambda cv: cv.counts)
        rows = np.array([cv.counts for cv in support])
        masses = np.array([float(law.entries[cv]) for cv in support])
        assert tv_exact(law, spec) == float(_tv_to_poisson(rows, masses, spec)[0])
        rebuilt = law_from_dict(3, dict(reversed(list(law.entries.items()))), mode)
        assert tv_exact(rebuilt, spec, precision=30) == tv_exact(law, spec, precision=30)

    def test_in_unit_interval(self):
        for n, r, d in [(6, 3, 2), (8, 4, 1), (7, 7, 3)]:
            value = tv_exact(joint_pmf(n, r, d), PoissonSpec.cycle_reference(d))
            assert 0 <= value <= 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            tv_exact(joint_pmf(4, 2, 1), PoissonSpec.cycle_reference(2))

    def test_unnormalized_rejected(self):
        bad = law_from_dict(1, {CountsVector((0,)): Fraction(1, 2)}, "exact")
        with pytest.raises(ValueError):
            tv_exact(bad, PoissonSpec.cycle_reference(1))


class TestTvCycleCounts:
    @pytest.mark.parametrize("n,r,d", [(10, 5, 2), (30, 10, 3), (60, 20, 4), (120, 40, 4)])
    def test_matches_full_joint_law(self, n, r, d):
        expected = tv_exact(joint_pmf(n, r, d), PoissonSpec.cycle_reference(d))
        assert tv_cycle_counts(n, r, d) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_matches_brute_force(self):
        cases = [(n, r, d) for n in range(1, 7) for r in range(1, n + 1) for d in range(1, r + 1)]
        cases += [(7, 4, 2), (7, 7, 3), (8, 3, 3), (8, 5, 2)]
        for n, r, d in cases:
            expected = tv_exact(brute_force_pmf(n, r, d), PoissonSpec.cycle_reference(d))
            assert tv_cycle_counts(n, r, d) == pytest.approx(expected, rel=1e-12, abs=0), (n, r, d)

    @pytest.mark.parametrize("n,d", [(20, 1), (30, 1), (40, 1), (40, 2)])
    def test_full_precision_far_below_double_rounding(self, n, d):
        # at r = n the distance falls to 3e-38; summing float masses loses it
        expected = tv_exact(joint_pmf(n, n, d), PoissonSpec.cycle_reference(d), precision=80)
        assert tv_cycle_counts(n, n, d) == pytest.approx(expected, rel=1e-14, abs=0)

    def test_frozen_regression_value(self):
        assert tv_cycle_counts(4, 2, 1) == pytest.approx(TV_N4_R2_D1, rel=1e-15)

    # each term rounded once from exact rationals, pinned to the last bit; (80, 80, 1) takes the second, longer e^{-H_d}
    @pytest.mark.parametrize(
        "n,r,d,value",
        [
            (60, 20, 4, 0.1378232273483274),
            (1000, 100, 6, 0.06903217563323093),
            (2000, 200, 3, 0.01780023110571659),
            (40, 10, 2, 0.1762178685684491),
            (40, 10, 3, 0.25626626324415225),
            (40, 20, 2, 0.05261676927501653),
            (40, 20, 3, 0.07567726289522),
            (60, 10, 2, 0.2187523039530221),
            (60, 10, 3, 0.316154955758057),
            (60, 20, 2, 0.0722912335991824),
            (60, 20, 3, 0.10492826427121052),
            (80, 80, 1, 2.0357221800854256e-97),
        ],
    )
    def test_pinned_values(self, n, r, d, value):
        assert tv_cycle_counts(n, r, d) == value

    def test_smallest_normal_distance_is_kept(self):
        # the last n with a normal double at r = n, d = 1; 400-digit mpmath on the joint law agrees
        value = 9.78561062828629e-308
        assert tv_cycle_counts(195, 195, 1) == value
        assert tv_exact(joint_pmf(195, 195, 1), PoissonSpec.cycle_reference(1), precision=400) == value

    @pytest.mark.parametrize(
        "n,shown", [(196, "9.9351e-310"), (197, "1.0036e-311"), (203, "9.6009e-324"), (300, "2.1967e-527")]
    )
    def test_distance_below_the_double_range_raises(self, n, shown):
        # as a double it was a subnormal with lost digits from n = 196 on, and 0.0 from 203 on
        message = rf"tv at n={n}, r={n}, d=1 is {shown}, below the smallest normal double 2\.2250738585072014e-308"
        with pytest.raises(ValueError, match=message):
            tv_cycle_counts(n, n, 1)

    def test_beyond_joint_law_support_cap(self, monkeypatch):
        monkeypatch.setenv("SHORTCYCLES_SUPPORT_CAP", "3")
        assert 0 < tv_cycle_counts(400, 100, 6) < 1

    def test_validation(self):
        for n, r, d in [(5, 3, 0), (5, 3, 4), (5, 6, 2)]:
            with pytest.raises(ValueError):
                tv_cycle_counts(n, r, d)


class TestTvEmpirical:
    def test_constant_samples(self):
        spec = PoissonSpec.cycle_reference(1)
        samples = [CountsVector((0,))] * 500
        estimate = tv_empirical(samples, spec, rng=np.random.default_rng(0))
        assert estimate.value == pytest.approx(1 - math.exp(-1), rel=1e-12)

    def test_duplication_invariance(self):
        spec = PoissonSpec.cycle_reference(2)
        base = [CountsVector((1, 0)), CountsVector((0, 1)), CountsVector((2, 1))] * 10
        a = tv_empirical(base, spec, rng=np.random.default_rng(1)).value
        b = tv_empirical(base * 2, spec, rng=np.random.default_rng(2)).value
        assert a == b

    def test_converges_to_exact(self):
        # sample directly from the exact law and watch the plug-in estimate
        # approach tv_exact; the estimator's positive bias is bounded by
        # 0.5 * sum of binomial standard deviations over the support
        law = joint_pmf(8, 4, 2)
        spec = PoissonSpec.cycle_reference(2)
        exact = tv_exact(law, spec)
        support = law.support()
        probs = np.array([float(law.entries[cv]) for cv in support])
        rng = np.random.default_rng(31415)
        errors = []
        for size in (10**3, 10**4, 10**5):
            idx = rng.choice(len(support), size=size, p=probs)
            samples = [support[i] for i in idx]
            estimate = tv_empirical(samples, spec, rng=rng)
            bias_allowance = 0.5 * np.sum(np.sqrt(probs * (1 - probs) / size))
            errors.append(abs(estimate.value - exact))
            assert estimate.value - exact <= 3 * estimate.stderr + bias_allowance
            assert exact - estimate.value <= 3 * estimate.stderr
        assert errors[-1] < errors[0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tv_empirical([], PoissonSpec.cycle_reference(1), rng=np.random.default_rng(0))

    @pytest.mark.parametrize("seed", [1, 7, 20])
    def test_value_is_tv_exact_of_empirical_law(self, seed):
        # the plug-in value is tv_exact on the empirical measure, to the last bit
        rng = np.random.default_rng(seed)
        samples = [CountsVector(tuple(int(c) for c in rng.poisson([1.0, 0.5, 1 / 3]))) for _ in range(999)]
        tally = {}
        for cv in samples:
            tally[cv] = tally.get(cv, 0) + 1
        empirical = law_from_dict(3, {cv: Fraction(c, len(samples)) for cv, c in tally.items()}, "exact")
        spec = PoissonSpec.cycle_reference(3)
        assert tv_empirical(samples, spec, rng=rng).value == tv_exact(empirical, spec)

    def test_dimension_mismatch_rejected(self):
        samples = [CountsVector((1, 0)), CountsVector((0, 1, 0))]
        with pytest.raises(ValueError, match="dimension 3, expected 2"):
            tv_empirical(samples, PoissonSpec.cycle_reference(2), rng=np.random.default_rng(0))

    @pytest.mark.parametrize("bootstrap", [0, 1])
    def test_too_few_bootstrap_replicates_rejected(self, bootstrap):
        # fewer than two replicates have no spread: no nan, no numpy warning
        samples = [CountsVector((i % 3,)) for i in range(10)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"bootstrap={bootstrap}"):
                tv_empirical(samples, PoissonSpec.cycle_reference(1), bootstrap=bootstrap, rng=np.random.default_rng(0))

    def test_single_sample_rejected(self):
        # one sample has no spread: its bootstrap standard error would read 0.0
        with pytest.raises(ValueError, match="at least 2 samples for a standard error, got 1"):
            tv_empirical([CountsVector((1,))], PoissonSpec.cycle_reference(1), rng=np.random.default_rng(0))

    @pytest.mark.parametrize("d", [1, 3, 10])
    def test_distinct_rows_match_unique(self, d):
        # duplicate rows, unsorted input, a column that decides only on ties
        rng = np.random.default_rng(d)
        rows = rng.poisson(0.7, size=(500, d)).astype(np.int64)
        rows = np.vstack([rows, rows[:50], rows[-1:]])
        support, counts = _distinct_rows(rows)
        want_support, want_counts = np.unique(rows, axis=0, return_counts=True)
        assert len(support) < len(rows)
        assert support.dtype == want_support.dtype and counts.dtype == want_counts.dtype
        np.testing.assert_array_equal(support, want_support)
        np.testing.assert_array_equal(counts, want_counts)


class TestBounds:
    def test_refined_d1(self):
        bb = refined_bound(1000, 1000, 1)
        assert bb.harmonic_term == 0.0
        assert bb.fixed_term == pytest.approx(10 / 999, rel=1e-15)
        assert bb.asymptotic_term == pytest.approx(2 * math.log(2) / 1e6, rel=1e-15)
        assert bb.total == pytest.approx(10 / 999 + 2 * math.log(2) / 1e6, rel=1e-15)

    def test_refined_u1_asymptotic_term(self):
        n, d = 500, 4
        bb = refined_bound(n, n, d)
        assert bb.u == 1.0
        assert bb.asymptotic_term == pytest.approx((d * d + d) * math.log(2) / n**2, rel=1e-15)

    def test_refined_frozen_value(self):
        assert refined_bound(10**4, 10**3, 10).total == pytest.approx(REFINED_1E4, rel=1e-13)

    def test_breakdown_sums(self):
        bb = refined_bound(777, 333, 5, constant=2.5)
        assert bb.total == pytest.approx(
            bb.harmonic_term + bb.fixed_term + bb.asymptotic_term, rel=1e-15
        )
        assert bb.h_d <= math.log(bb.d) + 1

    def test_macroscopic(self):
        n = 10**6
        assert macroscopic_bound(n, n, 3) == pytest.approx(1 + 3 * math.log(n) / n, rel=1e-15)
        assert macroscopic_bound(100, 10, 0) == pytest.approx(0.1, rel=1e-15)

    def test_refined_sharper_in_regime(self):
        assert refined_bound(10**6, 10**4, 5).total < macroscopic_bound(10**6, 10**4, 5)

    def test_harmonic_number(self):
        assert harmonic_number(1) == 1.0
        assert harmonic_number(4) == pytest.approx(25 / 12, rel=1e-15)
        for d in (1, 2, 5, 50):
            assert harmonic_number(d) <= math.log(d) + 1

    @pytest.mark.parametrize("constant", [-1.0, 0.0, math.nan, math.inf, -math.inf])
    def test_constant_must_be_finite_and_positive(self, constant):
        # a zero, negative or non-finite C would report a silent zero, a negative or a nan bound
        with pytest.raises(ValueError, match=r"constant C must be finite and > 0, got C="):
            refined_bound(10, 5, 1, constant)
        with pytest.raises(ValueError, match=r"constant C must be finite and > 0, got C="):
            macroscopic_bound(10, 5, 1, constant)

    def test_validation(self):
        with pytest.raises(ValueError):
            refined_bound(10, 20, 1)
        with pytest.raises(ValueError):
            refined_bound(100, 50, 0)
        with pytest.raises(ValueError):
            macroscopic_bound(10, 20, 1)
