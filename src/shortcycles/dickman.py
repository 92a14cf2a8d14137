"""Numerics for the Dickman function and its companion root xi.

rho is the continuous solution of the delay differential equation

    t * rho'(t) + rho(t - 1) = 0,        rho(t) = 1 on [0, 1].

Panels: on [k, k+1] the evaluator stores the power series of

    rho(k + 1 - z) / rho(k + 1) = sum_i a_i z^i,        z in [0, 1],

truncated to PANEL_TERMS coefficients (Marsaglia, Zaman & Marsaglia,
Math. Comp. 53, 1989).  With t = k + 1 - z the delay equation reads
(k + 1 - z) f'(z) = g(z), where f(z) = rho(k + 1 - z) and g(z) =
rho(k - z) = rho(k) * sum_i c_i z^i is the previous panel.  Matching
powers of z gives, relative to rho(k),

    A_{i+1} = (c_i + i A_i) / ((k + 1)(i + 1)),        i >= 0,

and A_0 = rho(k+1)/rho(k) follows from the averaging identity
(k + 1) rho(k + 1) = integral_k^{k+1} rho(s) ds = rho(k) sum_i A_i/(i + 1):

    rho(k + 1) / rho(k) = (1/k) sum_{i >= 1} A_i / (i + 1).

Every c_i is non-negative (panel 0 is c = [1, 0, 0, ...]), so by the
recurrence every A_i is too: the ratio is a sum of positive terms and
cannot cancel.  The other route, A_0 = c_0 - sum_{i >= 1} A_i from
f(1) = rho(k), subtracts two numbers near 1 to leave rho(k+1)/rho(k) and
loses that many digits per panel.  Dividing by A_0 gives panel k, and
log A_0 is added to the log checkpoint, so every stored coefficient stays
moderate although rho decays like 1/Gamma(t+1); log-rho stays finite long
after rho underflows a double (around t = 170).  Evaluation is Horner's
rule in z = k + 1 - t, again a sum of positive terms.

The piece of rho on [k, k+1] is analytic away from t = 0, ..., k - 1, so
each series converges at least like 2^-i on z in [0, 1], and the
recurrence shrinks the coefficients by about 1/((k + 1) i) more per
panel.  The slowest panel is [1, 2]: rho = 1 - log t there, so
a_i = 1/(i 2^i rho(2)), and 64 terms leave a relative truncation of
2e-21.

xi(t) is the positive solution of e^x = 1 + t*x, which for t > 1 lies in
the bracket (log t, 2 log t].  It controls ratios of rho at nearby
arguments: rho(t - v) / rho(t) is approximately exp(v * xi(t)) for moderate
v, which is also the scale of consecutive checkpoint ratios above.

rho and log rho come only from a :class:`DickmanEvaluator` the caller
holds: each evaluator keeps its own panels, and the module keeps no
shared one.  xi needs no state and is the
plain function :func:`xi`.
"""

from __future__ import annotations

import math
import threading

from .errors import ResourceLimitError, env_cap

PANEL_TERMS = 64
# |g(x)| <= XI_RESIDUAL_TOLERANCE * x stops the solve; one last Newton step
# then takes the root to rounding level
XI_RESIDUAL_TOLERANCE = 1e-13
XI_MAX_ITERATIONS = 200
# up to this t, xi comes from the positive series in t - 1, whose error stays
# near 2e-16 while the log form's grows like 3e-17/(t - 1); they cross near here
XI_SERIES_MAX_T = 1.25


class DickmanEvaluator:
    """Panel-by-panel evaluator for rho and log-rho; ``SHORTCYCLES_DICKMAN_PANEL_CAP`` unit panels bound t."""

    def __init__(self):
        # panel k covers [k, k+1] and stores the coefficients of rho(k+1-z)/rho(k+1)
        self._panels: list[list[float]] = [[1.0] + [0.0] * (PANEL_TERMS - 1)]
        self._log_checkpoints: list[float] = [0.0, 0.0]  # log rho(0), log rho(1)
        self._lock = threading.Lock()

    # -- panel construction -------------------------------------------------

    def _build_panel(self, k: int) -> None:
        """Append panel k (requires panels 0..k-1 and checkpoints 0..k)."""
        c = self._panels[k - 1]
        a = [0.0] * PANEL_TERMS
        for i in range(PANEL_TERMS - 1):
            a[i + 1] = (c[i] + i * a[i]) / ((k + 1) * (i + 1))
        ratio = math.fsum(a[i] / (i + 1) for i in range(1, PANEL_TERMS)) / k
        if not ratio > 0:
            raise ArithmeticError(f"panel {k}: rho({k + 1})/rho({k}) went non-positive ({ratio})")
        a[0] = ratio
        self._panels.append([x / ratio for x in a])
        self._log_checkpoints.append(self._log_checkpoints[k] + math.log(ratio))

    def _ensure(self, k: int, t: float) -> None:
        """Make panels 0..k (hence checkpoints 0..k+1) available for rho at ``t``."""
        if len(self._panels) > k:
            return
        cap = env_cap("SHORTCYCLES_DICKMAN_PANEL_CAP")
        if k >= cap:
            # k + 1 = ceil(t) is a double, so :.16g prints it exactly, or in exponent form past 16 digits
            raise ResourceLimitError(
                f"rho at t={t!r} needs {k + 1:.16g} Dickman panels, exceeding the cap of {cap} "
                "(SHORTCYCLES_DICKMAN_PANEL_CAP)"
            )
        with self._lock:
            while len(self._panels) <= k:
                self._build_panel(len(self._panels))

    # -- evaluation ----------------------------------------------------------

    def log_rho(self, t: float) -> float:
        """log rho(t); exactly 0.0 on [0, 1]."""
        t = float(t)
        if not (math.isfinite(t) and t >= 0):
            raise ValueError(f"rho is only defined for finite t >= 0, got t={t}")
        if t <= 1.0:
            return 0.0
        k = int(math.floor(t))
        if t == k:
            self._ensure(k - 1, t)
            return self._log_checkpoints[k]
        self._ensure(k, t)
        z = k + 1 - t
        scaled = 0.0
        for coef in reversed(self._panels[k]):
            scaled = scaled * z + coef
        if scaled <= 0:
            raise ArithmeticError(f"rho evaluation lost positivity at t={t}")
        return self._log_checkpoints[k + 1] + math.log(scaled)

    def rho(self, t: float) -> float:
        """rho(t); underflows gracefully to 0.0 once log rho < -745 or so."""
        return math.exp(self.log_rho(t))


def xi(t: float) -> float:
    """Positive root of e^x = 1 + t*x for t > 1; xi(1) := 0."""
    t = float(t)
    if not (math.isfinite(t) and t >= 1.0):
        raise ValueError(f"xi requires a finite t >= 1, got t={t}")
    if t == 1.0:
        return 0.0  # limit convention: the positive root degenerates at t = 1
    if t <= XI_SERIES_MAX_T:
        return _xi_series(t - 1.0)
    # In logs the equation reads g(x) = x - log t - log(x + 1/t) = 0, which
    # needs neither e^x nor t*x and so holds up to the largest double.
    # g is increasing and convex on [log t, 2 log t], with g(log t) < 0
    # <= g(2 log t), so Newton from the upper end is safe; any step
    # leaving the bracket falls back to bisection.  log(x + 1/t) is taken
    # as log1p(x - (t-1)/t), which keeps its digits when t is near 1.
    log_t = math.log(t)
    shift = (t - 1.0) / t
    lo, hi = log_t, 2.0 * log_t
    x = hi
    for _ in range(XI_MAX_ITERATIONS):
        excess = x - shift  # x + 1/t - 1 > 0 on the bracket
        g = x - log_t - math.log1p(excess)
        step = g * (1.0 + excess) / excess  # g / g'
        if abs(g) <= XI_RESIDUAL_TOLERANCE * x:
            return x - step
        if g > 0:
            hi = x
        else:
            lo = x
        candidate = x - step
        if not lo < candidate < hi:
            candidate = 0.5 * (lo + hi)
        x = candidate
    raise ArithmeticError(f"xi failed to converge for t={t}")


def _xi_series(excess: float) -> float:
    """Root x > 0 of h(x) = sum_{i>=1} x^i/(i+1)! = excess, i.e. (e^x - 1 - x)/x = t - 1.

    Near t = 1 the log form has a double root (g and g' both vanish), so
    it keeps only about 1e-16/(t-1) of relative accuracy.  h is a series
    of positive terms and t - 1 is exact in doubles, so nothing cancels.
    h(x) >= x/2 puts the root below 2(t-1), and h is increasing and
    convex, so Newton from there decreases monotonically to it.
    """
    x = 2.0 * excess
    for _ in range(XI_MAX_ITERATIONS):
        # a_i = x^(i-1)/(i+1)!: h = x sum_i a_i and h' = sum_i i a_i
        term, total, slope, i = 0.5, 0.0, 0.0, 1
        while term > 1e-17 * total:
            total += term
            slope += i * term
            i += 1
            term *= x / (i + 1)
        step = (x * total - excess) / slope
        x -= step
        if step <= XI_RESIDUAL_TOLERANCE * x:
            return x
    raise ArithmeticError(f"xi failed to converge for t={1.0 + excess}")
