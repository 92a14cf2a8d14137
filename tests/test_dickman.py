import math
import sys

import pytest

from oracles import dickman_fixed_step, dickman_fixed_step_at, dickman_log_rho_series, xi_oracle
from shortcycles.dickman import (
    DickmanEvaluator,
    gamma_bound_check,
    rho_ratio_check,
    xi,
)
from shortcycles.errors import ResourceLimitError

# certified against an independent high-precision window-identity solver
RHO_3_5 = 0.016229593243236007
XI_E = 1.7507867226801464
XI_2 = 1.2564312086261697


class TestRho:
    def test_one_on_unit_interval(self, dickman):
        for t in (0.0, 0.3, 0.7, 1.0):
            assert dickman.rho(t) == 1.0

    def test_log_form_on_second_panel(self, dickman):
        # the delay equation gives rho(t) = 1 - log t there
        for t in (1.1, 1.5, 1.9, 2.0):
            assert dickman.rho(t) == pytest.approx(1 - math.log(t), rel=1e-12)

    def test_frozen_value(self, dickman):
        assert dickman.rho(3.5) == pytest.approx(RHO_3_5, rel=1e-10)

    def test_against_fixed_step_integrator(self, dickman):
        panels = dickman_fixed_step(6, 1e-6)
        for j in range(4, 24):
            t = j * 0.25
            ref = dickman_fixed_step_at(panels, t)
            assert dickman.rho(t) == pytest.approx(ref, rel=1e-9)

    def test_domain_errors(self, dickman):
        with pytest.raises(ValueError):
            dickman.rho(-0.1)
        for t in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"t={t}"):
                dickman.log_rho(t)

    def test_continuity_at_integer_boundaries(self, dickman):
        for k in (2, 3, 5, 8):
            left = dickman.rho(k - 1e-9)
            right = dickman.rho(k + 1e-9)
            center = dickman.rho(float(k))
            assert left == pytest.approx(center, rel=1e-8)
            assert right == pytest.approx(center, rel=1e-8)

    def test_monotone_non_increasing(self, dickman):
        grid = [0.1 * j for j in range(0, 200)]
        values = [dickman.rho(t) for t in grid]
        for a, b in zip(values, values[1:]):
            assert a >= b - 1e-11

    def test_log_rho_against_series_oracle(self, dickman):
        integers = [float(t) for t in range(2, 201)]
        off_grid = [j / 10 + 0.037 for j in range(10, 2000)]
        points = integers + off_grid
        for t, expected in zip(points, dickman_log_rho_series(points)):
            assert abs(dickman.log_rho(t) - expected) <= 5e-12, t

    def test_derivative_consistency(self, dickman):
        # centered difference of rho vs -rho(t-1)/t, away from the knots
        h = 1e-5
        for t in (1.5, 2.5, 4.5, 6.5, 9.5):
            central = (dickman.rho(t + h) - dickman.rho(t - h)) / (2 * h)
            expected = -dickman.rho(t - 1) / t
            assert central == pytest.approx(expected, rel=1e-5)

    def test_log_rho_consistency(self, dickman):
        for t in (2.5, 10.0, 30.0):
            assert math.exp(dickman.log_rho(t)) == pytest.approx(dickman.rho(t), rel=1e-12)

    def test_log_rho_beyond_double_underflow(self, dickman):
        # rho(190) underflows a double, log rho stays finite and ordered
        lr = dickman.log_rho(190.0)
        assert lr < -745
        assert lr < dickman.log_rho(150.0)

    def test_panel_cap(self, monkeypatch):
        monkeypatch.setenv("SHORTCYCLES_DICKMAN_PANEL_CAP", "20")
        ev = DickmanEvaluator()
        assert ev.log_rho(20.0) < 0
        with pytest.raises(ResourceLimitError, match="21 Dickman panels, exceeding the cap of 20"):
            ev.log_rho(20.5)
        monkeypatch.delenv("SHORTCYCLES_DICKMAN_PANEL_CAP")
        assert ev.log_rho(20.5) == DickmanEvaluator().log_rho(20.5)

    def test_invalid_construction(self):
        # the panel cap is the only limit: no t_max setting, and t = 300 evaluates
        with pytest.raises(TypeError):
            DickmanEvaluator(t_max=200.0)
        assert -math.inf < DickmanEvaluator().log_rho(300.0) < DickmanEvaluator().log_rho(200.0)


class TestXi:
    def test_frozen_values(self):
        assert xi(math.e) == pytest.approx(XI_E, rel=1e-12)
        assert xi(2.0) == pytest.approx(XI_2, rel=1e-12)

    def test_residual_and_bracket_random(self):
        import numpy as np

        rng = np.random.default_rng(1234)
        ts = np.exp(rng.uniform(np.log(1.000001), np.log(1e6), size=2000))
        for t in ts:
            x = xi(float(t))
            assert abs(math.exp(x) - 1 - t * x) <= 1e-12 * (1 + t * x)
            assert math.log(t) < x <= 2 * math.log(t)

    def test_limit_convention_at_one(self):
        assert xi(1.0) == 0.0

    @pytest.mark.parametrize(
        "t, expected",
        [
            # roots of x = log t + log(x + 1/t) from 50-digit mpmath.findroot
            (1e100, 235.72115887568532),
            (1e154, 360.4855562110165),
            (1e200, 466.6626251653469),
            (sys.float_info.max, 716.3568913878179),
        ],
    )
    def test_large_t(self, t, expected):
        # e^x and t*x overflow long before t does
        assert xi(t) == pytest.approx(expected, rel=1e-14)

    def test_domain(self):
        for t in (0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"t={t}"):
                xi(t)

    @pytest.mark.parametrize("t", [1 + 1e-12, 1 + 1e-9, 1 + 1e-6, 1.001, 1.01])
    def test_near_one(self, t):
        # the log form has a double root at t = 1; the answer must keep full precision
        assert xi(t) == pytest.approx(xi_oracle(t), rel=1e-14, abs=0)


class TestRhoRatio:
    def test_v_zero(self, dickman):
        report = rho_ratio_check(5.0, 0.0, dickman)
        assert report.ratio == 1.0 and report.relative_gap == 0.0

    def test_closed_forms_second_panel(self, dickman):
        report = rho_ratio_check(2.0, 1.0, dickman)
        assert report.ratio == pytest.approx(1 / (1 - math.log(2)), rel=1e-10)
        assert report.predicted == pytest.approx(math.exp(XI_2), rel=1e-10)

    def test_moderate_gap_envelope(self, dickman):
        report = rho_ratio_check(20.0, 1.0, dickman)
        assert report.relative_gap <= 0.25

    def test_warns_for_large_v(self, dickman):
        with pytest.warns(UserWarning):
            rho_ratio_check(10.0, 4.0, dickman)

    def test_domain(self, dickman):
        # each error names the values it got
        with pytest.raises(ValueError, match=r"^ratio check requires t >= 1, got t=0\.5$"):
            rho_ratio_check(0.5, 0.1, dickman)
        with pytest.raises(ValueError, match=r"^need 0 <= v <= t, got t=3\.0, v=4\.0$"):
            rho_ratio_check(3.0, 4.0, dickman)
        with pytest.raises(ValueError, match=r"^need 0 <= v <= t, got t=5\.0, v=-0\.001$"):
            rho_ratio_check(5.0, -1e-3, dickman)
        for t, v in ((math.nan, 1.0), (5.0, math.nan), (math.inf, 1.0)):
            with pytest.raises(ValueError, match="finite"):
                rho_ratio_check(t, v, dickman)

    @pytest.mark.filterwarnings("ignore:v=")
    def test_prediction_beyond_the_double_range_is_a_value_error(self, dickman):
        # exp(v*xi(t)) overflows a double; the error names the exponent, not a raw math range error
        with pytest.raises(ValueError, match=r"^exp\(v\*xi\(t\)\) = exp\(4559\.\d+\) lies beyond the double range"):
            rho_ratio_check(1000.0, 500.0, dickman)
        assert rho_ratio_check(300.0, 90.0, dickman).ratio < math.inf


class TestGammaBound:
    def test_equality_at_one(self, dickman):
        report = gamma_bound_check(1.0, dickman)
        assert report.holds
        assert report.log_rho == pytest.approx(report.log_bound, abs=1e-14)

    def test_second_panel(self, dickman):
        report = gamma_bound_check(2.0, dickman)
        assert report.holds
        assert math.exp(report.log_rho) == pytest.approx(1 - math.log(2), rel=1e-10)
        assert math.exp(report.log_bound) == pytest.approx(0.5, rel=1e-12)

    def test_large_t_margin(self, dickman):
        report = gamma_bound_check(10.0, dickman)
        assert report.holds
        assert report.log_rho < report.log_bound - 1.0

    def test_grid(self, dickman):
        for j in range(0, 101):
            assert gamma_bound_check(j * 0.5, dickman).holds

    def test_non_finite(self, dickman):
        # the domain of t is the evaluator's
        for t in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError, match=f"^rho is only defined for finite t >= 0, got t={t}$"):
                gamma_bound_check(t, dickman)
