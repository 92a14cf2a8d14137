"""Total-variation distances of the small-cycle counts to the product-Poisson reference.

The reference law for the vector of small-cycle counts is a product of
independent Poissons with means 1, 1/2, ..., 1/d.  For a finitely supported
law P the distance to the reference Q reduces to a finite sum via the
complement identity:

    TV(P, Q) = 1/2 * [ sum_{c in supp P} |P(c) - Q(c)| + (1 - Q(supp P)) ],

because off the support |P - Q| = Q pointwise.  :func:`tv_exact` evaluates
this for a finite law against a :class:`PoissonSpec`, and only that.  No
truncation heuristics are involved; the only inexactness is the evaluation
of the Poisson masses themselves, which a log-space recurrence keeps at the
1e-15 level.  An optional high-precision path (``decimal``) exists for
regression points where the true distance sits below double rounding.

For the cycle counts themselves the sum collapses further.  P and Q share
the weight w(c) = prod_j j^{-c_j}/c_j!: P(c) = w(c) mu(n-s)/nu(n, r) and
Q(c) = w(c) e^{-H_d} with s = sum_j j c_j, and the weights of all c with
the same s add up to nu(s, d) (the conditioning relation of Arratia,
Barbour and Tavare, Logarithmic Combinatorial Structures, 2003).  Hence

    TV = 1/2 * [ sum_{s<=n} nu(s, d) |mu(n-s)/nu(n, r) - e^{-H_d}|
                 + 1 - e^{-H_d} sum_{s<=n} nu(s, d) ],

one term per s <= n instead of one per count vector.

The two closed-form bounds on that distance live in
:mod:`shortcycles.closedforms`, which needs neither numpy nor the tables.
"""

from __future__ import annotations

import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .counting import SparsePMF, count_table
from .errors import require_sizes
from .permutations import CountsVector


class _PoissonFields(NamedTuple):
    means: tuple[float, ...]


class PoissonSpec(_PoissonFields):
    """Independent Poisson coordinates with the given means."""

    __slots__ = ()

    def __new__(cls, means: tuple[float, ...]):
        if not means or not all(0 < m < math.inf for m in means):
            raise ValueError(f"means must be finite, positive and non-empty, got {means}")
        return super().__new__(cls, means)

    @classmethod
    def _make(cls, iterable) -> "PoissonSpec":
        # _replace builds through _make and unpickling through __new__, so both validate
        return cls(*iterable)

    @property
    def d(self) -> int:
        return len(self.means)

    @classmethod
    def cycle_reference(cls, d: int) -> "PoissonSpec":
        """Means 1/k for k = 1..d, the cycle-count reference law."""
        require_sizes("1 <= d", d=d)
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
    ``pmf``.  ``precision`` switches to ``decimal`` arithmetic with that many
    digits, at least 17: fewer than a double carries round the value away.
    """
    if not isinstance(spec, PoissonSpec):
        raise TypeError(f"tv_exact compares a law with a PoissonSpec, got {type(spec).__name__}")
    if spec.d != pmf.d:
        raise ValueError(f"pmf dimension {pmf.d} != spec dimension {spec.d}")
    _require_normalized(pmf)
    if precision is not None:
        if precision < 17:
            raise ValueError(f"precision must be at least 17 digits, got {precision}")
        return _tv_exact_decimal(pmf, spec, precision)
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
    return np.array([0.5 * (math.fsum(gaps) + tail) for gaps in np.abs(np.atleast_2d(masses) - q).tolist()])


def tv_cycle_counts(n: int, r: int, d: int) -> float:
    """Total-variation distance of the 1..d-cycle counts from the reference.

    The law is that of a uniform permutation of n elements with all cycles
    <= r, the reference is independent Poisson(1/k), k = 1..d; the value is
    the one :func:`tv_exact` gives on the full joint law, evaluated by the
    conditioning identity in O(n) terms.  The three exact tables hold
    g(m) = n! f(m) as integers, and e^{-H_d} is a decimal P/Q, so each
    term nu(s, d) |mu(n-s)/nu(n, r) - P/Q| is one int/int true division,
    g_d(s) |g_mu(n-s) Q - P g_nu(n)| / (n! g_nu(n) Q), correctly rounded as
    float(Fraction) is; the terms are summed with ``math.fsum``.  A distance
    below the smallest normal double raises ValueError naming its decimal
    exponent, rather than returning a subnormal with lost digits or 0.0.
    """
    require_sizes("1 <= d <= r <= n", d=d, r=r, n=n)
    nu_d = count_table(n, d, "exact")
    mu = count_table(n, r, "exact", d=d).scaled
    norm = count_table(n, r, "exact").scaled[n]
    scale = nu_d.scale  # n!, the scale of all three tables
    covered = sum(nu_d.scaled)
    harmonic = sum(Fraction(1, k) for k in range(1, d + 1))
    # An error of 10^(1-digits) in e^{-H_d} moves the result by at most that
    # much, because e^{-H_d} * sum nu(s, d) <= 1.  40 digits leave a double
    # exact down to 1e-22; below that, use enough digits for the smallest
    # possible distance, e^{-H_d}/(n+1)! (the mass of c_1 = n+1).
    for digits in (40, 25 + int(math.lgamma(n + 2) / math.log(10))):
        with localcontext() as ctx:
            ctx.prec = digits
            p, q = (-(Decimal(harmonic.numerator) / harmonic.denominator)).exp().as_integer_ratio()
        target, denominator = p * norm, scale * norm * q
        gaps = [g * abs(m * q - target) for g, m in zip(nu_d.scaled, reversed(mu))]
        tail = max(0, q * scale - p * covered)
        tv = 0.5 * (math.fsum(gap / denominator for gap in gaps) + tail / (q * scale))
        if tv >= 10.0 ** (18 - digits):
            break
    if tv < sys.float_info.min:
        exact = (Fraction(sum(gaps), denominator) + Fraction(tail, q * scale)) / 2
        shown = Decimal(exact.numerator) / exact.denominator
        below = f"below the smallest normal double {sys.float_info.min!r}"
        raise ValueError(f"tv at n={n}, r={r}, d={d} is {shown:.4e}, {below}")
    return tv


def _tv_exact_decimal(pmf: SparsePMF, spec: PoissonSpec, precision: int) -> float:
    """The complement identity in ``precision``-digit decimals: each mean is its
    shortest repr, and each coordinate's masses come from e^-mean by the
    recurrence q(c) = q(c-1) mean / c."""
    with localcontext() as ctx:
        ctx.prec = precision
        columns = []
        for mean, top in zip(spec.means, pmf.counts.max(axis=0).tolist()):
            mean = Decimal(repr(mean))
            column = [(-mean).exp()]
            for c in range(1, top + 1):
                column.append(column[-1] * mean / c)
            columns.append(column)
        total_abs = covered = Decimal(0)
        for counts, mass in zip(pmf.counts.tolist(), pmf.mass_list()):
            q = math.prod((column[c] for column, c in zip(columns, counts)), start=Decimal(1))
            p = Decimal(mass.numerator) / mass.denominator if isinstance(mass, Fraction) else Decimal(repr(mass))
            total_abs += abs(p - q)
            covered += q
        return float((total_abs + max(Decimal(0), 1 - covered)) / 2)


def _require_normalized(pmf: SparsePMF) -> None:
    total = pmf.total_mass
    if isinstance(total, Fraction):
        if total != 1:
            raise ValueError(f"pmf is not normalized (total {total})")
    elif abs(total - 1.0) > 1e-9:
        raise ValueError(f"pmf is not normalized (total {total})")


class TvEstimate(NamedTuple):
    value: float
    stderr: float
    sample_count: int


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-D int array in lexicographic order, and how often each occurs.

    What ``np.unique(rows, axis=0, return_counts=True)`` returns, from one
    lexsort over the columns and a mask of the sorted rows that differ from
    their predecessor, instead of a sort of the rows as void records.
    """
    ordered = rows[np.lexsort(rows.T[::-1])]
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    starts = np.flatnonzero(first)
    return ordered[starts], np.diff(starts, append=len(ordered))


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
    require_sizes("2 <= bootstrap", bootstrap=bootstrap)
    for cv in samples:
        if cv.d != spec.d:
            raise ValueError(f"sample has dimension {cv.d}, expected {spec.d}")
    n_samples = len(samples)
    support, counts = _distinct_rows(np.array([cv.counts for cv in samples]))
    replicates = rng.multinomial(n_samples, counts / n_samples, size=bootstrap)
    value, *spread = _tv_to_poisson(support, np.vstack([counts, replicates]) / n_samples, spec)
    return TvEstimate(float(value), float(np.std(spread, ddof=1)), n_samples)

