"""Total-variation distances and the two cycle-count error bounds.

The reference law for the vector of small-cycle counts is a product of
independent Poissons with means 1, 1/2, ..., 1/d.  For a finitely supported
law P the distance to the reference Q reduces to a finite sum via the
complement identity:

    TV(P, Q) = 1/2 * [ sum_{c in supp P} |P(c) - Q(c)| + (1 - Q(supp P)) ],

because off the support |P - Q| = Q pointwise.  :func:`tv_exact` evaluates
this for a finite law against a :class:`PoissonSpec`, and only that.  No
truncation heuristics are involved; the only inexactness is the evaluation
of the Poisson masses themselves, which a log-space recurrence keeps at the
1e-15 level.  An optional high-precision path (mpmath) exists for regression
points where the true distance sits below double rounding.

For the cycle counts themselves the sum collapses further.  P and Q share
the weight w(c) = prod_j j^{-c_j}/c_j!: P(c) = w(c) mu(n-s)/nu(n, r) and
Q(c) = w(c) e^{-H_d} with s = sum_j j c_j, and the weights of all c with
the same s add up to nu(s, d) (the conditioning relation of Arratia,
Barbour and Tavare, Logarithmic Combinatorial Structures, 2003).  Hence

    TV = 1/2 * [ sum_{s<=n} nu(s, d) |mu(n-s)/nu(n, r) - e^{-H_d}|
                 + 1 - e^{-H_d} sum_{s<=n} nu(s, d) ],

one term per s <= n instead of one per count vector.

Two closed-form upper bounds on that distance are provided for a uniform
permutation with cycle lengths capped at r (u = n/r, natural logs, and an
explicit constant that is always surfaced rather than baked in):

* refined:      (2 d log d + 10 d)/(n - 1) + C (d^2 + d u) log(u + 1)/(n r)
* macroscopic:  C (r/n + d log(n)/r)

In the regime r >= sqrt(n log n) the refined form is the sharper of the
two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .counting import SparsePMF, count_table, restricted_count_table
from .permutations import CountsVector


@dataclass(frozen=True)
class PoissonSpec:
    """Independent Poisson coordinates with the given means."""

    means: tuple[float, ...]

    def __post_init__(self):
        if not self.means or any(m <= 0 for m in self.means):
            raise ValueError("means must be positive and non-empty")

    @property
    def d(self) -> int:
        return len(self.means)

    @classmethod
    def cycle_reference(cls, d: int) -> "PoissonSpec":
        """Means 1/k for k = 1..d, the cycle-count reference law."""
        if d < 1:
            raise ValueError("d must be >= 1")
        return cls(tuple(1.0 / k for k in range(1, d + 1)))


def _poisson_mass_columns(spec: PoissonSpec, maxima: Sequence[int]) -> list[np.ndarray]:
    """Per-coordinate mass arrays 0..max via the stable log recurrence."""
    columns = []
    for mean, top in zip(spec.means, maxima):
        logs = np.empty(top + 1)
        logs[0] = -mean
        log_mean = math.log(mean)
        for c in range(1, top + 1):
            logs[c] = logs[c - 1] + log_mean - math.log(c)
        columns.append(np.exp(logs))
    return columns


def tv_exact(pmf: SparsePMF, spec: PoissonSpec, precision: int | None = None) -> float:
    """Total-variation distance between a finite law and a product-Poisson law.

    The complement identity handles the Poisson tail off the support of
    ``pmf``.  ``precision`` switches to mpmath with that many decimal digits.
    """
    if not isinstance(spec, PoissonSpec):
        raise TypeError(f"tv_exact compares a law with a PoissonSpec, got {type(spec).__name__}")
    if spec.d != pmf.d:
        raise ValueError(f"pmf dimension {pmf.d} != spec dimension {spec.d}")
    _require_normalized(pmf)
    if precision is not None:
        return _tv_exact_mpmath(pmf, spec, precision)
    masses = np.asarray(pmf.masses, dtype=np.float64)
    return float(_tv_to_poisson(pmf.counts, masses, spec)[0])


def _tv_to_poisson(rows: np.ndarray, masses: np.ndarray, spec: PoissonSpec) -> np.ndarray:
    """1/2 * (fsum |p - q| + max(0, 1 - fsum q)) for each law p in ``masses``.

    ``rows`` holds the common support, one count vector per row; ``masses``
    is one law (a vector) or several (one per row).  q is the product of the
    per-coordinate Poisson masses, multiplied in coordinate order.
    """
    columns = _poisson_mass_columns(spec, rows.max(axis=0))
    q = np.ones(len(rows))
    for j, column in enumerate(columns):
        q *= column[rows[:, j]]
    tail = max(0.0, 1.0 - math.fsum(q))
    return np.array([0.5 * (math.fsum(np.abs(p - q)) + tail) for p in np.atleast_2d(masses)])


def tv_cycle_counts(n: int, r: int, d: int) -> float:
    """Total-variation distance of the 1..d-cycle counts from the reference.

    The law is that of a uniform permutation of n elements with all cycles
    <= r, the reference is independent Poisson(1/k), k = 1..d; the value is
    the one :func:`tv_exact` gives on the full joint law, evaluated by the
    conditioning identity in O(n) terms.  Tables are exact rationals and
    each term is rounded to a float once, then summed with ``math.fsum``.
    """
    if not 1 <= d <= r <= n:
        raise ValueError(f"need 1 <= d <= r <= n, got d={d}, r={r}, n={n}")
    nu_d = count_table(n, d, "exact").values
    mu = restricted_count_table(d, r, n, "exact").values
    norm = count_table(n, r, "exact").fraction(n)
    ratios = [mu[n - s] / norm for s in range(n + 1)]
    covered = sum(nu_d)
    harmonic = sum(Fraction(1, k) for k in range(1, d + 1))
    # An error of 10^(1-digits) in e^{-H_d} moves the result by at most that
    # much, because e^{-H_d} * sum nu(s, d) <= 1.  40 digits leave a double
    # exact down to 1e-22; below that, use enough digits for the smallest
    # possible distance, e^{-H_d}/(n+1)! (the mass of c_1 = n+1).
    for digits in (40, 25 + int(math.lgamma(n + 2) / math.log(10))):
        with localcontext() as ctx:
            ctx.prec = digits
            q0 = Fraction((-(Decimal(harmonic.numerator) / harmonic.denominator)).exp())
        terms = [float(nu_d[s] * abs(ratios[s] - q0)) for s in range(n + 1)]
        tv = 0.5 * (math.fsum(terms) + max(0.0, float(1 - q0 * covered)))
        if tv >= 10.0 ** (18 - digits):
            break
    return tv


def _tv_exact_mpmath(pmf: SparsePMF, spec: PoissonSpec, precision: int) -> float:
    from mpmath import mp, mpf

    with mp.workdps(precision):
        means = [mpf(repr(m)) for m in spec.means]
        total_abs = mpf(0)
        covered = mpf(0)
        for counts, mass in zip(pmf.counts.tolist(), pmf.mass_list()):
            q = mpf(1)
            for mean, c in zip(means, counts):
                q *= mp.e ** (-mean) * mean**c / mp.factorial(c)
            p = mpf(mass.numerator) / mass.denominator if isinstance(mass, Fraction) else mpf(repr(mass))
            total_abs += abs(p - q)
            covered += q
        tail = mpf(1) - covered
        if tail < 0:
            tail = mpf(0)
        return float((total_abs + tail) / 2)


def _require_normalized(pmf: SparsePMF) -> None:
    total = pmf.total_mass
    if isinstance(total, Fraction):
        if total != 1:
            raise ValueError(f"pmf is not normalized (total {total})")
    elif abs(total - 1.0) > 1e-9:
        raise ValueError(f"pmf is not normalized (total {total})")


@dataclass(frozen=True)
class TvEstimate:
    value: float
    stderr: float
    sample_count: int


def tv_empirical(
    samples: Iterable[CountsVector],
    spec: PoissonSpec,
    *,
    bootstrap: int = 200,
    rng: np.random.Generator,
) -> TvEstimate:
    """Plug-in distance of the empirical measure from the reference.

    Depends only on the empirical measure (duplicating the sample set
    changes nothing).  The estimator carries a positive bias of order
    sqrt(support size / sample size); the bootstrap standard error reflects
    sampling variability only.  The value, and each of the ``bootstrap``
    replicates (multinomial resamples of the empirical law), is the same
    finite sum :func:`tv_exact` evaluates.
    """
    samples = list(samples)
    if len(samples) < 2:
        raise ValueError(f"need at least 2 samples for a standard error, got {len(samples)}")
    if bootstrap < 2:
        raise ValueError(f"need at least 2 bootstrap replicates for a standard error, got bootstrap={bootstrap}")
    for cv in samples:
        if cv.d != spec.d:
            raise ValueError(f"sample has dimension {cv.d}, expected {spec.d}")
    n_samples = len(samples)
    support, counts = np.unique(np.array([cv.counts for cv in samples]), axis=0, return_counts=True)
    replicates = rng.multinomial(n_samples, counts / n_samples, size=bootstrap)
    value, *spread = _tv_to_poisson(support, np.vstack([counts, replicates]) / n_samples, spec)
    return TvEstimate(float(value), float(np.std(spread, ddof=1)), n_samples)


def harmonic_number(d: int) -> float:
    if d < 0:
        raise ValueError("d must be >= 0")
    return math.fsum(1.0 / k for k in range(1, d + 1))


@dataclass(frozen=True)
class BoundBreakdown:
    """The refined bound split into its three summands (total = their sum)."""

    n: int
    r: int
    d: int
    u: float
    constant: float
    harmonic_term: float  # 2 d log(d) / (n - 1)
    fixed_term: float  # 10 d / (n - 1)
    asymptotic_term: float  # C (d^2 + d u) log(u + 1) / (n r)
    total: float
    h_d: float  # d-th harmonic number, <= log(d) + 1


def _check_constant(constant: float) -> None:
    if not (math.isfinite(constant) and constant > 0):
        raise ValueError(f"the bound constant C must be finite and > 0, got C={constant}")


def refined_bound(n: int, r: int, d: int, constant: float = 1.0) -> BoundBreakdown:
    """Evaluate the sharper of the two bounds, with its parts split out."""
    if not 1 <= r <= n or n < 2:
        raise ValueError(f"need 1 <= r <= n and n >= 2, got r={r}, n={n}")
    if d < 1:
        raise ValueError("d must be >= 1")
    _check_constant(constant)
    u = n / r
    harmonic_term = 2.0 * d * math.log(d) / (n - 1)
    fixed_term = 10.0 * d / (n - 1)
    asymptotic_term = constant * (d * d + d * u) * math.log(u + 1.0) / (n * r)
    total = harmonic_term + fixed_term + asymptotic_term
    return BoundBreakdown(
        n, r, d, u, constant, harmonic_term, fixed_term, asymptotic_term, total, harmonic_number(d)
    )


def macroscopic_bound(n: int, r: int, d: int, constant: float = 1.0) -> float:
    """The coarse bound C (r/n + d log(n)/r); d = 0 degenerates to C r/n."""
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    if d < 0:
        raise ValueError("d must be >= 0")
    _check_constant(constant)
    return constant * (r / n + d * math.log(n) / r)
