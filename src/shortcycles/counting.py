"""Exact combinatorics of permutations with bounded cycle length.

Write nu(m, r) for the fraction of the m! permutations of m elements whose
cycles all have length at most r.  Classifying permutations by the length k
of the cycle containing a fixed element gives the recurrence

    m * nu(m, r) = sum_{k=1}^{min(m, r)} nu(m - k, r),      nu(0, r) = 1,

evaluated for all m <= n in O(n) by :func:`window_table`, which also
tabulates mu(m), the same fraction for cycle lengths confined to a window
(d, r].  The fraction itself does not keep a float path safe: nu(n, r)
decays like the Dickman function rho(n/r) and leaves the double range
(below 1e-308) in the paper's regime.  The float variant therefore stores
log f and sums only positive terms at one scale per block of m: one cumsum
per block for nu, one scalar pass of chunk prefix and suffix sums for mu.  It
tracks the exact rationals to ~1e-12 relative at u = n/r in the hundreds.

From the same classification follow exactly, with R(m) = nu(n - m, r) / nu(n, r):

* the law of the cycle length of a fixed element: P[length = k] = R(k) / n;
* the factorial moments of the counts c_j of j-cycles (the conditioning
  relation): E[prod_j (c_j)_{a_j}] = prod_j j^{-a_j} * R(sum_j j*a_j), so E[c_k] = R(k) / k;
* the joint law of the counts of 1-, 2-, ..., d-cycles,
  P[counts = c] = (prod_j (1/j)^{c_j} / c_j!) * mu(n - s) / nu(n, r)
  with s = sum_j j*c_j and mu(m) the fraction of permutations of m elements
  whose cycle lengths all lie in the window (d, r].

Everything supports an exact-rational mode (the oracle) and a log-scaled
float mode for large n.  A brute-force enumerator over all n! permutations
is kept as an independent cross-check of the recurrences.
"""

from __future__ import annotations

import itertools
import math
import os
import warnings
from array import array
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Iterator, Union

import numpy as np

from .dickman import xi
from .errors import ResourceLimitError
from .permutations import CountsVector, capped_type_count, cycle_type_counts

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


LN2 = math.log(2.0)
LOG_DOUBLE_MAX = math.log(np.finfo(np.float64).max)


def int_str(value: int) -> str:
    """Decimal digits of an int of any size (``str`` refuses more than 4300)."""
    try:
        return str(value)
    except ValueError:
        return str(Decimal(value))


def log_fraction(x: Fraction) -> float:
    """log x for a non-negative rational, accurate also far below the double range."""
    if x == 0:
        return -math.inf
    p, q = x.numerator, x.denominator
    shift = p.bit_length() - q.bit_length()
    ratio = p / (q << shift) if shift >= 0 else (p << -shift) / q  # in (1/2, 2)
    return math.log(ratio) + shift * LN2


class WindowTable:
    """f(m) for m = 0..n_max: the fraction of the m! permutations of m
    elements whose cycle lengths all lie in [lo, hi].

    nu(m, r) is the table with lo = 1, hi = r; mu(m) for the window (d, r]
    has lo = d+1.  Exact mode holds Fractions; double mode holds only
    log f(m) (-inf where f(m) = 0), because deep in the tail f(m) lies
    below the smallest double.
    """

    def __init__(self, lo: int, hi: int, mode: str, values):
        self.lo = lo
        self.hi = hi
        self.mode = mode
        if mode == "exact":
            self.values = tuple(values)
            self._log = None
        elif mode == "double":
            self._log = np.asarray(values, dtype=np.float64)
            self._log.setflags(write=False)
        else:
            raise ValueError(f"unknown mode {mode!r}")

    @property
    def r(self) -> int:
        return self.hi

    @property
    def d(self) -> int:
        return self.lo - 1

    @property
    def n_max(self) -> int:
        return len(self.values if self.mode == "exact" else self._log) - 1

    def fraction(self, m: int) -> Probability:
        """f(m); in double mode a float, which underflows to 0.0 deep in the tail."""
        if not 0 <= m <= self.n_max:
            raise ValueError(f"m={m} outside tabulated range 0..{self.n_max}")
        if self.mode == "exact":
            return self.values[m]
        return math.exp(self._log[m])

    def count(self, m: int) -> int:
        """m! f(m), the number of such permutations (exact mode only)."""
        if self.mode != "exact":
            raise ValueError("integer counts require exact mode")
        value = self.fraction(m) * math.factorial(m)
        if value.denominator != 1:
            raise ArithmeticError(f"table entry {m} is not a count over {m}!")
        return value.numerator

    def log_view(self) -> np.ndarray:
        """Read-only float64 array of log f(m), -inf where f(m) = 0 (cached in exact mode)."""
        if self._log is None:
            arr = np.array([log_fraction(v) for v in self.values], dtype=np.float64)
            arr.setflags(write=False)
            self._log = arr
        return self._log


def window_table(lo: int, hi: int, n_max: int, mode: str = "exact") -> WindowTable:
    """Tabulate f(m), m = 0..n_max, for cycle lengths confined to [lo, hi].

    f(0) = 1 and m f(m) = sum_{k=lo}^{min(m, hi)} f(m - k): classify by the
    length k of the cycle through a fixed element.  An empty window
    (hi = lo - 1) leaves f(m) = 0 for every m > 0.

    Exact mode runs the recurrence in Fractions.  Double mode works in
    blocks of m, adds positive terms only (no sliding-window subtraction,
    whose absolute error floor once swamped the tail) and keeps one scale
    per block, so log f stays accurate to ~1e-12 relative far below the
    smallest double:

    * lo = 1 (nu), blocks of length hi.  m f(m) = A(m) + B(m), with A(m)
      the part of the window below the block (a suffix sum of the previous
      block) and B(m) the part inside it.  b(m) = B(m)/m starts at 0 and
      obeys b(m+1) = b(m) + A(m)/(m(m+1)), so a block costs one cumsum.
    * lo >= 2, one scalar pass over m.  With j cut into chunks of width
      hi-lo+1 at multiples of it, the window [m-hi, m-lo] is one whole chunk
      or a suffix of one plus a prefix of the next (van Herk; Gil and
      Werman).  A step extends its chunk's prefix sum by one add, and a
      complete chunk fills its suffix sums backwards.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if lo < 1 or hi < lo - 1:
        raise ValueError(f"need 1 <= lo <= hi + 1, got lo={lo}, hi={hi}")
    if mode == "exact":
        values = [Fraction(1)]
        window = Fraction(0)  # sum of f(m-k) over lo <= k <= min(m, hi)
        for m in range(1, n_max + 1):
            if m - lo >= 0:
                window += values[m - lo]
            if m - hi - 1 >= 0:
                window -= values[m - hi - 1]
            values.append(window / m)
        return WindowTable(lo, hi, "exact", values)
    if mode != "double":
        raise ValueError(f"unknown mode {mode!r}")
    top = min(hi, n_max)  # no cycle of m <= n_max elements is longer
    if top < lo:
        logs = np.full(n_max + 1, -np.inf)
        logs[0] = 0.0
    elif lo == 1:
        logs = _nu_logs(top, n_max)
    else:
        with np.errstate(divide="ignore"):  # log 0 = -inf marks f(m) = 0
            logs = _windowed_logs(lo, top, n_max)
    return WindowTable(lo, hi, "double", logs)


def _nu_logs(r: int, n_max: int) -> np.ndarray:
    logs = np.zeros(n_max + 1)  # nu(m, r) = 1 for m <= r
    prev = np.ones(r)  # the last block, in units of 2**exponent
    exponent = 0
    for m0 in range(r + 1, n_max + 1, r):
        ms = np.arange(m0, min(m0 + r, n_max + 1), dtype=np.float64)
        size = len(ms)
        below = np.cumsum(prev[::-1])[::-1][:size]  # A(m) = sum of nu over [m - r, m0)
        b = np.zeros(size)
        np.cumsum(below[:-1] / (ms[:-1] * (ms[:-1] + 1.0)), out=b[1:])
        block = below / ms + b
        logs[m0 : m0 + size] = np.log(block) + exponent * LN2
        shift = math.frexp(block[0])[1]  # nu is non-increasing, so block[0] is the largest
        prev = np.ldexp(block, -shift)
        exponent += shift
    return logs


def _windowed_logs(lo: int, hi: int, n_max: int) -> np.ndarray:
    width = hi - lo + 1
    # chunk c holds f(j), c*width <= j < (c+1)*width, in units of 2**exps[c];
    # pre[j] and suf[j] sum the chunk's values up to j and from j
    val = array("d", bytes(8 * (n_max + 1)))
    pre = array("d", val)
    suf = array("d", val)
    exps = array("q", bytes(8 * (n_max // width + 1)))
    val[0] = pre[0] = 1.0  # f(0) = 1
    for m in range(1, n_max + 1):
        c, i = divmod(m, width)
        x = 0.0  # f(m) in units of 2**exps[cb]
        if m >= lo:
            # the window [m - hi, m - lo] is the chunk cb of m - lo if m - lo
            # ends it, else a suffix of chunk cb - 1 plus a prefix of cb
            cb, ib = divmod(m - lo, width)
            s = pre[m - lo]
            if ib < width - 1 and cb:
                s += math.ldexp(suf[m - hi], exps[cb - 1] - exps[cb])
            x = s / m
        if i == 0:  # the chunk's scale is its first value's, or its predecessor's
            exps[c] = exps[cb] + math.frexp(x)[1] if x else exps[c - 1]
        if x:
            val[m] = math.ldexp(x, exps[cb] - exps[c])
        pre[m] = pre[m - 1] + val[m] if i else val[m]
        if i == width - 1:
            total = 0.0
            for j in range(m, m - width, -1):
                total += val[j]
                suf[j] = total
    scale = np.repeat(np.frombuffer(exps, dtype=np.int64), width)[: n_max + 1]
    return np.log(np.frombuffer(val)) + scale * LN2


def count_table(n_max: int, r: int, mode: str = "exact") -> WindowTable:
    """Tabulate nu(m, r) for m = 0..n_max: the window table with lo = 1, hi = r."""
    if r < 1:
        raise ValueError("r must be >= 1")
    return window_table(1, r, n_max, mode)


def restricted_count_table(d: int, r: int, n_max: int, mode: str = "exact") -> WindowTable:
    """Tabulate mu(m) for cycle lengths confined to (d, r].

    The window table with lo = d+1, hi = r; d = 0 gives nu(m, r) and d = r
    the empty window, where mu(m) = 0 for all m > 0.
    """
    if not 0 <= d <= r:
        raise ValueError(f"need 0 <= d <= r, got d={d}, r={r}")
    return window_table(d + 1, r, n_max, mode)


def nu_ratios(n: int, r: int, top: int, table: WindowTable) -> list[Fraction] | np.ndarray:
    """R(m) = nu(n - m, r) / nu(n, r) for m = 0..top; ``table`` must hold nu(m, r) for m <= n.

    Fractions from an exact table.  From a double table a float64 array, the
    reversed view of one exp, or a ValueError if R(top) leaves the double range.
    """
    return _ratios(n, r, 0, top, table)


def _ratios(n: int, r: int, low: int, top: int, table: WindowTable) -> list[Fraction] | np.ndarray:
    """R(m) for m = low..top, as :func:`nu_ratios` gives them; this is the one table-coverage check."""
    if table.lo != 1 or table.r != r or table.n_max < n:
        raise ValueError(f"table ({table.lo}..{table.hi}, m <= {table.n_max}) does not cover nu(m, {r}), m <= {n}")
    if not 0 <= top <= n:
        raise ValueError(f"top must be in 0..{n}, got top={top}")
    if table.mode == "exact":
        return [table.values[n - m] / table.values[n] for m in range(low, top + 1)]
    logs = table.log_view()
    log_ratios = logs[n - top : n - low + 1] - logs[n]  # R(top) first: nu is non-increasing, so it is the largest
    if log_ratios[0] > LOG_DOUBLE_MAX:
        raise ValueError(f"nu({n - top}, {r})/nu({n}, {r}) = exp({log_ratios[0]:.6g}) lies beyond the double range")
    return np.exp(log_ratios)[::-1]


def first_element_cycle_length_pmf(n: int, r: int, table: WindowTable):
    """Exact law of the cycle length of a fixed element, k = 1..r.

    Entry k-1 is R(k) / n (:func:`nu_ratios`).  For r = n this is uniform:
    every length 1..n has probability exactly 1/n.
    """
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    ratios = nu_ratios(n, r, r, table)[1:]
    return ratios / n if table.mode == "double" else [x / n for x in ratios]


class _Entries(Mapping):
    """A law's count vectors and masses as a read-only mapping keyed by
    :class:`CountsVector`.  ``len`` reads the arrays; the dict behind the
    lookups is built on first use and kept."""

    def __init__(self, pmf: "SparsePMF", built: dict | None = None):
        self._pmf = pmf
        self._dict = built

    def _built(self) -> dict:
        if self._dict is None:
            self._dict = dict(zip(self._pmf.support(), self._pmf.mass_list()))
        return self._dict

    def __len__(self) -> int:
        return len(self._pmf)

    def __getitem__(self, key: CountsVector) -> Probability:
        return self._built()[key]

    def __iter__(self) -> Iterator[CountsVector]:
        return iter(self._built())


class SparsePMF:
    """Finitely supported probability measure on count vectors.

    ``counts`` is an int64 matrix with one count vector per row, in
    lexicographic order, and ``masses`` the aligned probabilities: a
    float64 array in double mode, a list of Fractions in exact mode.
    ``entries`` views the same law as a mapping keyed by
    :class:`CountsVector`.
    """

    def __init__(self, d: int, entries: dict, mode: str):
        """The law with masses ``entries``, a dict keyed by :class:`CountsVector`, in any order."""
        support = sorted(entries, key=lambda cv: cv.counts)
        counts = np.array([cv.counts for cv in support], dtype=np.int64).reshape(len(support), d)
        masses = [entries[cv] for cv in support]
        self._set(d, counts, masses if mode == "exact" else np.array(masses, dtype=np.float64), mode)
        self.entries = _Entries(self, dict(entries))

    @classmethod
    def from_arrays(cls, d: int, counts: np.ndarray, masses, mode: str) -> "SparsePMF":
        """The law with rows ``counts`` (lexicographically sorted) and masses ``masses``."""
        pmf = cls.__new__(cls)
        pmf._set(d, counts, masses, mode)
        pmf.entries = _Entries(pmf)
        return pmf

    def _set(self, d: int, counts: np.ndarray, masses, mode: str) -> None:
        if len(masses) != len(counts):
            raise ValueError(f"{len(masses)} masses for {len(counts)} count vectors")
        self.d = d
        self.counts = counts
        self.masses = masses
        self.mode = mode
        self._total = None

    def __len__(self) -> int:
        return len(self.counts)

    def mass_list(self) -> list[Probability]:
        """The masses as Python numbers: Fractions in exact mode, floats in double mode."""
        return self.masses if self.mode == "exact" else self.masses.tolist()

    @property
    def total_mass(self) -> Probability:
        if self._total is None:
            self._total = sum(self.mass_list())
        return self._total

    def probability(self, counts) -> Probability:
        key = counts if isinstance(counts, CountsVector) else CountsVector(tuple(counts))
        zero = Fraction(0) if self.mode == "exact" else 0.0
        return self.entries.get(key, zero)

    def support(self) -> list[CountsVector]:
        return list(map(CountsVector, map(tuple, self.counts.tolist())))

    def expectation(self, k: int) -> Probability:
        """E[number of k-cycles] under this law, k <= d."""
        if not 1 <= k <= self.d:
            raise ValueError(f"k must be in 1..{self.d}")
        return sum(c * p for c, p in zip(self.counts[:, k - 1].tolist(), self.mass_list()))


def support_size(n: int, d: int) -> int:
    """Number of count vectors (c_1, ..., c_d) with sum_j j*c_j <= n."""
    return sum(cycle_type_counts(n, d))


def _count_vector_array(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """All (c_1, ..., c_d) with sum_j j*c_j <= n as rows, in lexicographic order, and their sums."""
    rows = np.zeros((1, 0), dtype=np.int64)
    used = np.zeros(1, dtype=np.int64)
    for j in range(1, d + 1):
        reps = (n - used) // j + 1
        parent = np.repeat(np.arange(len(used)), reps)
        c = np.arange(parent.size) - np.repeat(np.cumsum(reps) - reps, reps)
        rows = np.column_stack([rows[parent], c])
        used = used[parent] + j * c
    return rows, used


def joint_pmf(n: int, r: int, d: int, *, mode: str = "exact") -> SparsePMF:
    """Exact joint law of the counts of 1-, 2-, ..., d-cycles.

    P[counts = c] = (prod_j (1/j)^{c_j} / c_j!) * mu(n - s) / nu(n, r) with
    s = sum_j j*c_j; vectors with mu(n - s) = 0 are omitted, and the rest
    are the rows of the returned law in lexicographic order.  In exact mode
    the masses sum to exactly 1; that is checked in integers, and an
    ArithmeticError is raised if it fails.  In double mode a mass below the double
    range underflows: it is kept, as a subnormal or as 0.0 (exact mode
    gives its true value).  The support is capped by SHORTCYCLES_SUPPORT_CAP.
    """
    if not 1 <= d <= r <= n:
        raise ValueError(f"need 1 <= d <= r <= n, got d={d}, r={r}, n={n}")
    cap = support_cap()
    size, exact = capped_type_count(n, d, sum, cap)
    if size > cap:
        bound = "" if exact else "at least "
        raise ResourceLimitError(f"joint law support has {bound}{size} vectors, exceeding the cap of {cap}")
    nu = count_table(n, r, mode)
    mu = restricted_count_table(d, r, n, mode)
    counts, used = _count_vector_array(n, d)
    if mode == "exact":
        norm = nu.fraction(n)
        ratios = np.array([mu.fraction(n - s) / norm for s in range(n + 1)], dtype=object)
        keep = (ratios != 0)[used]
        counts = counts[keep]
        denominator = np.ones(len(counts), dtype=object)
        for j in range(1, d + 1):
            # j^c c! for c = 0..n//j
            column = np.array([j**c * math.factorial(c) for c in range(n // j + 1)], dtype=object)
            denominator *= column[counts[:, j - 1]]
        masses = (ratios[used[keep]] / denominator).tolist()
        # the masses sum to 1 iff the permutations they count add up to nu.count(n):
        # perm(n, s) / denominator (an integer) small-cycle placements times mu.count(n - s)
        placed = np.array([math.perm(n, s) * mu.count(n - s) for s in range(n + 1)], dtype=object)
        if (placed[used[keep]] // denominator).sum() != nu.count(n):
            raise ArithmeticError("exact joint law failed to normalize")
    else:
        log_prob = mu.log_view()[n - used] - nu.log_view()[n]
        for j in range(1, d + 1):
            # log(j^c c!) for c = 0..n//j
            log_denominator = np.array([c * math.log(j) + math.lgamma(c + 1) for c in range(n // j + 1)])
            log_prob -= log_denominator[counts[:, j - 1]]
        keep = np.isfinite(log_prob)
        counts = counts[keep]
        masses = np.exp(log_prob[keep])
    pmf = SparsePMF.from_arrays(d, counts, masses, mode)
    if mode == "exact":
        pmf._total = Fraction(1)
    return pmf


def factorial_moment(n: int, r: int, a: Sequence[int], table: WindowTable) -> Probability:
    """E[prod_j (c_j)_{a_j}], c_j the number of j-cycles (j <= len(a)) of a uniform permutation with cycles <= r.

    prod_j j^{-a_j} * R(s), s = sum_j j*a_j (:func:`nu_ratios`), or 0 when s > n or
    some a_j > 0 has j > r: a Fraction from an exact table, a float from a double one.
    """
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    s, weight, longest = 0, 1, 0
    for j, aj in itertools.compress(enumerate(a, 1), a):  # the nonzero a_j only
        if aj < 0:
            raise ValueError(f"need every a_j >= 0, got a={tuple(a)}")
        s, weight, longest = s + j * aj, weight * j**aj, j
    possible = s <= n and longest <= r
    m = s if possible else 0  # R(0) = 1 checks the table for a zero too
    ratio = _ratios(n, r, m, m, table)[0]
    value = Fraction(ratio) / weight if possible else Fraction(0)
    return value if table.mode == "exact" else float(value)


def expected_count(n: int, r: int, k: int, table: WindowTable | None = None) -> Probability:
    """E[number of k-cycles] for a uniform permutation with cycles <= r.

    :func:`factorial_moment` at a = e_k, R(k) / k: exactly 1/k when r = n, 0 for
    r < k <= n.  Without ``table`` one is built in :func:`table_mode`, so n > 200 gives a float.
    """
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got k={k}")
    if table is None:
        table = count_table(n, r, table_mode(n))
    return factorial_moment(n, r, (0,) * (k - 1) + (1,), table)


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


def _bounded_cycle_lengths(n: int, r: int) -> Iterator[list[int]]:
    """Cycle lengths of each permutation of n elements whose longest cycle is <= r.

    Enumerates all n!, after checking the cap; n = 0 gives the empty permutation.
    """
    cap = brute_force_cap()
    if n > cap:
        raise ResourceLimitError(f"brute force capped at n <= {cap}, got n={n}")
    every = map(_cycle_lengths_of, itertools.permutations(range(n)))
    return (lengths for lengths in every if max(lengths, default=0) <= r)


def brute_force_count(n: int, r: int) -> int:
    """|{permutations of n elements with all cycles <= r}| by full enumeration."""
    if r < 1:
        raise ValueError("r must be >= 1")
    return sum(1 for _ in _bounded_cycle_lengths(n, r))


def brute_force_pmf(n: int, r: int, d: int) -> SparsePMF:
    """Joint law of small-cycle counts by enumerating all n! permutations.

    The independent oracle for :func:`joint_pmf`; exact rationals throughout.
    """
    if not 1 <= d <= r:
        raise ValueError(f"need 1 <= d <= r, got d={d}, r={r}")
    tally = Counter(CountsVector.from_cycle_type(lengths, d) for lengths in _bounded_cycle_lengths(n, r))
    kept = sum(tally.values())
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


def count_ratio_check(n: int, r: int, k: int, table: WindowTable | None = None) -> RatioReport:
    """Compare nu(n-k, r)/nu(n, r) with exp((k/r) * xi(n/r)).

    xi(t) is the positive root of e^x = 1 + t*x (with xi(1) = 0 by the limit
    convention), so for r = n both sides are exactly 1.
    """
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    if not 0 <= k <= n:
        raise ValueError(f"k must be in 0..{n}")
    if table is None:
        table = count_table(n, r, table_mode(n))
    ratio = nu_ratios(n, r, k, table)[k]
    in_regime = r * r >= n * math.log(max(n, 2))
    if not in_regime:
        message = f"(n={n}, r={r}) lies outside r >= sqrt(n log n); the prediction is not expected to be accurate"
        warnings.warn(message, stacklevel=2)
    u = n / r
    log_predicted = k / r * (0.0 if u == 1.0 else xi(u))
    try:
        exact_ratio, predicted = float(ratio), math.exp(log_predicted)
    except OverflowError:  # an exact R(k) or the prediction; nu_ratios raises for a double R(k)
        either = f"exp({log_fraction(Fraction(ratio)):.6g}) or its prediction exp({log_predicted:.6g})"
        raise ValueError(f"nu({n - k}, {r})/nu({n}, {r}) = {either} lies beyond the double range") from None
    gap = abs(exact_ratio / predicted - 1.0)
    return RatioReport(n, r, k, u, exact_ratio, predicted, gap, in_regime)
