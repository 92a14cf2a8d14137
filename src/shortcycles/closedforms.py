"""The two closed-form cycle-count error bounds, in ``math`` alone.

Two closed-form upper bounds on the total-variation distance between the
counts of 1-, ..., d-cycles and independent Poisson(1/k) variables are
provided for a uniform permutation with cycle lengths capped at r (u = n/r,
natural logs, and an explicit constant that is always surfaced rather than
baked in):

* refined:      (2 d log d + 10 d)/(n - 1) + C (d^2 + d u) log(u + 1)/(n r)
* macroscopic:  C (r/n + d log(n)/r)

In the regime r >= sqrt(n log n) the refined form is the sharper of the
two.  The sizes n, r and d must be ints; the distance itself is computed in
:mod:`shortcycles.distances`.  This module loads neither numpy nor the
tables, so the ``bound`` command starts without them.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import require_int


def harmonic_number(d: int) -> float:
    require_int("d", d)
    if d < 0:
        raise ValueError("d must be >= 0")
    return math.fsum(1.0 / k for k in range(1, d + 1))


class BoundBreakdown(NamedTuple):
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
    for name, value in (("n", n), ("r", r), ("d", d)):
        require_int(name, value)
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
    for name, value in (("n", n), ("r", r), ("d", d)):
        require_int(name, value)
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    if d < 0:
        raise ValueError("d must be >= 0")
    _check_constant(constant)
    return constant * (r / n + d * math.log(n) / r)
