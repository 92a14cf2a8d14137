"""Exact combinatorics of permutations with bounded cycle length.

Write nu(m, r) for the fraction of the m! permutations of m elements whose
cycles all have length at most r.  Classifying permutations by the length k
of the cycle containing a fixed element gives the recurrence

    m * nu(m, r) = sum_{k=1}^{min(m, r)} nu(m - k, r),      nu(0, r) = 1,

which a sliding window of prefix sums evaluates in O(m) total.  Working with
the fraction rather than the raw count keeps every value in (0, 1], so the
floating-point variant stays stable far beyond the n where factorials
overflow.

From the same classification follow, exactly and not just asymptotically:

* the law of the cycle length of a fixed element:
  P[length = k] = nu(n - k, r) / (n * nu(n, r));
* the expected number of k-cycles: nu(n - k, r) / (k * nu(n, r));
* the joint law of the counts of 1-, 2-, ..., d-cycles,
  P[counts = c] = (prod_j (1/j)^{c_j} / c_j!) * mu(n - s) / nu(n, r)
  with s = sum_j j*c_j and mu(m) the fraction of permutations of m elements
  whose cycle lengths all lie in the window (d, r].

Everything supports an exact-rational mode (the oracle) and a float mode for
large n.  A brute-force enumerator over all n! permutations is kept as an
independent cross-check of the recurrences.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Union

import numpy as np

from .dickman import XiEvaluator
from .errors import ResourceLimitError
from .permutations import CountsVector, cycle_type_counts

Probability = Union[Fraction, float]

DEFAULT_SUPPORT_CAP = 10**7
DEFAULT_BRUTE_FORCE_CAP = 10


def support_cap() -> int:
    """Joint-law support cap; override with SHORTCYCLES_SUPPORT_CAP."""
    return int(os.environ.get("SHORTCYCLES_SUPPORT_CAP", DEFAULT_SUPPORT_CAP))


def brute_force_cap() -> int:
    """Largest n brute-force enumeration accepts; override with SHORTCYCLES_BRUTE_FORCE_CAP."""
    return int(os.environ.get("SHORTCYCLES_BRUTE_FORCE_CAP", DEFAULT_BRUTE_FORCE_CAP))


def table_mode(n: int) -> str:
    """Default table arithmetic for size n: exact rationals up to 200, doubles beyond."""
    return "exact" if n <= 200 else "double"


class CountTable:
    """nu(m, r) for m = 0..n_max at fixed r, exact-rational or float."""

    def __init__(self, r: int, values, mode: str):
        self.r = r
        self.mode = mode
        self._float_view: np.ndarray | None = None
        if mode == "exact":
            self.values = tuple(values)
        elif mode == "double":
            arr = np.asarray(values, dtype=np.float64)
            arr.setflags(write=False)
            self.values = arr
        else:
            raise ValueError(f"unknown mode {mode!r}")

    @property
    def n_max(self) -> int:
        return len(self.values) - 1

    def fraction(self, m: int) -> Probability:
        """nu(m, r), i.e. |{permutations of m elements, cycles <= r}| / m!."""
        if not 0 <= m <= self.n_max:
            raise ValueError(f"m={m} outside tabulated range 0..{self.n_max}")
        return self.values[m]

    def count(self, m: int) -> int:
        """|{permutations of m elements with all cycles <= r}| (exact mode only)."""
        if self.mode != "exact":
            raise ValueError("integer counts require exact mode")
        value = self.fraction(m) * math.factorial(m)
        assert value.denominator == 1
        return value.numerator

    def float_view(self) -> np.ndarray:
        """Read-only float64 view of the table (cached in exact mode)."""
        if self.mode == "double":
            return self.values
        if self._float_view is None:
            arr = np.array([float(v) for v in self.values], dtype=np.float64)
            arr.setflags(write=False)
            self._float_view = arr
        return self._float_view

    def rows(self) -> Iterator[tuple]:
        if self.mode == "exact":
            for m, v in enumerate(self.values):
                yield (m, v.numerator, v.denominator)
        else:
            for m, v in enumerate(self.values):
                yield (m, float(v))

    def to_csv(self, path) -> None:
        header = ["m", "nu_exact_num", "nu_exact_den"] if self.mode == "exact" else ["m", "nu_double"]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(self.rows())


class RestrictedCountTable:
    """mu(m) for m = 0..n_max: fraction of permutations of m elements whose
    cycle lengths all lie in the window (d, r]."""

    def __init__(self, d: int, r: int, values, mode: str):
        self.d = d
        self.r = r
        self.mode = mode
        if mode == "exact":
            self.values = tuple(values)
        else:
            arr = np.asarray(values, dtype=np.float64)
            arr.setflags(write=False)
            self.values = arr

    @property
    def n_max(self) -> int:
        return len(self.values) - 1

    def fraction(self, m: int) -> Probability:
        if not 0 <= m <= self.n_max:
            raise ValueError(f"m={m} outside tabulated range 0..{self.n_max}")
        return self.values[m]


def count_table(n_max: int, r: int, mode: str = "exact") -> CountTable:
    """Tabulate nu(m, r) for m = 0..n_max via the prefix-sum recurrence."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if r < 1:
        raise ValueError("r must be >= 1")
    if mode == "exact":
        values = [Fraction(1)]
        window = Fraction(0)  # sum of the last min(m, r) values
        for m in range(1, n_max + 1):
            window += values[m - 1]
            if m - r - 1 >= 0:
                window -= values[m - r - 1]
            values.append(window / m)
        return CountTable(r, values, "exact")
    if mode == "double":
        values = np.empty(n_max + 1)
        values[0] = 1.0
        window = 0.0
        comp = 0.0  # Neumaier compensation keeps the running window drift-free
        for m in range(1, n_max + 1):
            for x in (values[m - 1],) if m <= r else (values[m - 1], -values[m - r - 1]):
                t = window + x
                if abs(window) >= abs(x):
                    comp += (window - t) + x
                else:
                    comp += (x - t) + window
                window = t
            values[m] = (window + comp) / m
        return CountTable(r, values, "double")
    raise ValueError(f"unknown mode {mode!r}")


def restricted_count_table(d: int, r: int, n_max: int, mode: str = "exact") -> RestrictedCountTable:
    """Tabulate mu(m) for cycle lengths confined to (d, r].

    Same recurrence as :func:`count_table` with the cycle-length sum running
    over k = d+1 .. min(m, r); with d = 0 this reproduces nu(m, r).  With
    d = r the window is empty and mu(m) = 0 for all m > 0.
    """
    if not 0 <= d <= r:
        raise ValueError(f"need 0 <= d <= r, got d={d}, r={r}")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    zero = Fraction(0) if mode == "exact" else 0.0
    one = Fraction(1) if mode == "exact" else 1.0
    values = [one]
    window = zero
    for m in range(1, n_max + 1):
        if m - d - 1 >= 0:
            window += values[m - d - 1]
        if m - r - 1 >= 0:
            window -= values[m - r - 1]
        values.append(window / m)
    if mode == "double":
        return RestrictedCountTable(d, r, values, "double")
    return RestrictedCountTable(d, r, values, "exact")


def first_element_cycle_length_pmf(n: int, r: int, table: CountTable):
    """Exact law of the cycle length of a fixed element, k = 1..r.

    Entry k-1 is nu(n-k, r) / (n * nu(n, r)).  For r = n this is uniform:
    every length 1..n has probability exactly 1/n.
    """
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    if table.r != r:
        raise ValueError(f"table was built for r={table.r}, not r={r}")
    if table.n_max < n:
        raise ValueError(f"table covers m <= {table.n_max} < n={n}")
    denom = n * table.fraction(n)
    if table.mode == "exact":
        return [table.fraction(n - k) / denom for k in range(1, r + 1)]
    return np.array([table.fraction(n - k) / denom for k in range(1, r + 1)])


class SparsePMF:
    """Finitely supported probability measure on count vectors."""

    def __init__(self, d: int, entries: dict, mode: str):
        self.d = d
        self.entries = dict(entries)
        self.mode = mode
        self._total = None

    @property
    def total_mass(self) -> Probability:
        if self._total is None:
            self._total = sum(self.entries.values())
        return self._total

    def probability(self, counts) -> Probability:
        key = counts if isinstance(counts, CountsVector) else CountsVector(tuple(counts))
        zero = Fraction(0) if self.mode == "exact" else 0.0
        return self.entries.get(key, zero)

    def support(self) -> list[CountsVector]:
        return sorted(self.entries, key=lambda cv: cv.counts)

    def expectation(self, k: int) -> Probability:
        """E[number of k-cycles] under this law, k <= d."""
        if not 1 <= k <= self.d:
            raise ValueError(f"k must be in 1..{self.d}")
        return sum(cv.counts[k - 1] * p for cv, p in self.entries.items())

    @classmethod
    def from_samples(cls, vectors: Iterable[CountsVector], d: int) -> "SparsePMF":
        """Empirical measure of a sample of count vectors (exact rationals)."""
        tally: dict[CountsVector, int] = {}
        total = 0
        for cv in vectors:
            if cv.d != d:
                raise ValueError(f"sample has dimension {cv.d}, expected {d}")
            tally[cv] = tally.get(cv, 0) + 1
            total += 1
        if total == 0:
            raise ValueError("empty sample set")
        return cls(d, {cv: Fraction(c, total) for cv, c in tally.items()}, "exact")

    def rows(self) -> Iterator[tuple]:
        for cv in self.support():
            yield (*cv.counts, float(self.entries[cv]))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"c_{j}" for j in range(1, self.d + 1)] + ["probability"])
            writer.writerows(self.rows())


def support_size(n: int, d: int) -> int:
    """Number of count vectors (c_1, ..., c_d) with sum_j j*c_j <= n."""
    return sum(cycle_type_counts(n, d))


def _iter_count_vectors(n: int, d: int) -> Iterator[tuple[int, ...]]:
    """All (c_1, ..., c_d) with sum_j j*c_j <= n, in lexicographic order."""
    c = [0] * d

    def rec(j: int, budget: int):
        if j == d:
            yield tuple(c)
            return
        length = j + 1
        for value in range(budget // length + 1):
            c[j] = value
            yield from rec(j + 1, budget - length * value)
        c[j] = 0

    yield from rec(0, n)


def joint_pmf(
    n: int,
    r: int,
    d: int,
    *,
    mode: str = "exact",
    nu: CountTable | None = None,
    mu: RestrictedCountTable | None = None,
    cap: int | None = None,
) -> SparsePMF:
    """Exact joint law of the counts of 1-, 2-, ..., d-cycles.

    P[counts = c] = (prod_j (1/j)^{c_j} / c_j!) * mu(n - s) / nu(n, r) with
    s = sum_j j*c_j; vectors of probability zero are omitted.  In exact mode
    the masses sum to exactly 1.
    """
    if not 1 <= d <= r <= n:
        raise ValueError(f"need 1 <= d <= r <= n, got d={d}, r={r}, n={n}")
    cap = support_cap() if cap is None else cap
    size = support_size(n, d)
    if size > cap:
        raise ResourceLimitError(
            f"joint law support has {size} vectors, exceeding the cap of {cap}"
        )
    if nu is None:
        nu = count_table(n, r, mode)
    if mu is None:
        mu = restricted_count_table(d, r, n, mode)
    norm = nu.fraction(n)
    entries: dict[CountsVector, Probability] = {}
    for c in _iter_count_vectors(n, d):
        s = sum(j * cj for j, cj in enumerate(c, start=1))
        tail = mu.fraction(n - s)
        if tail == 0:
            continue
        if mode == "exact":
            prob = tail / norm
            for j, cj in enumerate(c, start=1):
                if cj:
                    prob *= Fraction(1, j**cj * math.factorial(cj))
        else:
            log_prob = math.log(tail) - math.log(norm)
            for j, cj in enumerate(c, start=1):
                if cj:
                    log_prob -= cj * math.log(j) + math.lgamma(cj + 1)
            prob = math.exp(log_prob)
        entries[CountsVector(c)] = prob
    pmf = SparsePMF(d, entries, mode)
    if mode == "exact":
        assert pmf.total_mass == 1, "exact joint law failed to normalize"
    return pmf


def expected_count(n: int, r: int, k: int, table: CountTable | None = None) -> Probability:
    """E[number of k-cycles] for a uniform permutation with cycles <= r.

    Equals nu(n-k, r) / (k * nu(n, r)); in particular exactly 1/k when r = n.
    Returns 0 for r < k <= n (no such cycle can exist).
    """
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got k={k}")
    if k > r:
        return Fraction(0) if (table is None or table.mode == "exact") else 0.0
    if table is None:
        table = count_table(n, r, "exact")
    if table.r != r or table.n_max < n:
        raise ValueError("table does not cover this (n, r)")
    return table.fraction(n - k) / (k * table.fraction(n))


def _cycle_lengths_of(mapping: tuple[int, ...]) -> list[int]:
    # local tracing loop: brute force stays independent of the main library path
    n = len(mapping)
    seen = bytearray(n)
    lengths = []
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = 1
            length += 1
            x = mapping[x]
        lengths.append(length)
    return lengths


def brute_force_count(n: int, r: int) -> int:
    """|{permutations of n elements with all cycles <= r}| by full enumeration."""
    cap = brute_force_cap()
    if n > cap:
        raise ResourceLimitError(f"brute force capped at n <= {cap}, got n={n}")
    if r < 1:
        raise ValueError("r must be >= 1")
    total = 0
    for mapping in itertools.permutations(range(n)):
        if max(_cycle_lengths_of(mapping)) <= r:
            total += 1
    return total


def brute_force_pmf(n: int, r: int, d: int) -> SparsePMF:
    """Joint law of small-cycle counts by enumerating all n! permutations.

    The independent oracle for :func:`joint_pmf`; exact rationals throughout.
    """
    cap = brute_force_cap()
    if n > cap:
        raise ResourceLimitError(f"brute force capped at n <= {cap}, got n={n}")
    if not 1 <= d <= r:
        raise ValueError(f"need 1 <= d <= r, got d={d}, r={r}")
    tally: dict[CountsVector, int] = {}
    kept = 0
    for mapping in itertools.permutations(range(n)):
        lengths = _cycle_lengths_of(mapping)
        if max(lengths) > r:
            continue
        kept += 1
        counts = [0] * d
        for length in lengths:
            if length <= d:
                counts[length - 1] += 1
        cv = CountsVector(tuple(counts))
        tally[cv] = tally.get(cv, 0) + 1
    entries = {cv: Fraction(c, kept) for cv, c in tally.items()}
    return SparsePMF(d, entries, "exact")


@dataclass(frozen=True)
class RatioReport:
    """Consecutive-argument ratio of nu against its exponential prediction.

    No pass/fail: the error constant in the prediction is not pinned down,
    so the caller gets both sides and the relative gap.
    """

    n: int
    r: int
    k: int
    u: float
    exact_ratio: float
    predicted: float
    relative_gap: float
    in_regime: bool


def count_ratio_check(n: int, r: int, k: int, table: CountTable | None = None) -> RatioReport:
    """Compare nu(n-k, r)/nu(n, r) with exp((k/r) * xi(n/r)).

    xi(t) is the positive root of e^x = 1 + t*x (with xi(1) = 0 by the limit
    convention), so for r = n both sides are exactly 1.
    """
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    if not 0 <= k <= n:
        raise ValueError(f"k must be in 0..{n}")
    in_regime = r * r >= n * math.log(max(n, 2))
    if not in_regime:
        warnings.warn(
            f"(n={n}, r={r}) lies outside r >= sqrt(n log n); the prediction "
            "is not expected to be accurate",
            stacklevel=2,
        )
    if table is None:
        table = count_table(n, r, table_mode(n))
    exact_ratio = float(table.fraction(n - k)) / float(table.fraction(n))
    u = n / r
    xi_u = 0.0 if u == 1.0 else XiEvaluator().xi(u)
    predicted = math.exp(k / r * xi_u)
    gap = abs(exact_ratio / predicted - 1.0)
    return RatioReport(n, r, k, u, exact_ratio, predicted, gap, in_regime)
