"""Exact combinatorics of permutations with bounded cycle length.

Write nu(m, r) for the fraction of the m! permutations of m elements whose
cycles all have length at most r.  Classifying permutations by the length k
of the cycle containing a fixed element gives the recurrence

    m * nu(m, r) = sum_{k=1}^{min(m, r)} nu(m - k, r),      nu(0, r) = 1,

evaluated for all m <= n in O(n) by :func:`count_table`, which also
tabulates mu(m), the same fraction for cycle lengths confined to a window
(d, r]; the table holds d and r, and each reader of nu takes r from it.
The fraction itself does not keep a float path safe: nu(n, r) decays like
the Dickman function rho(n/r) and leaves the double range (below 1e-308)
in the paper's regime.  The float variant therefore stores log f and sums
only positive terms at one scale per block of m: one cumsum per block for
nu, one scalar pass of chunk prefix and suffix sums for mu.  It tracks the
exact rationals to ~1e-12 relative at u = n/r in the hundreds.

From the same classification follow exactly, with R(m) = nu(n - m, r) / nu(n, r):

* the law of the cycle length of a fixed element: P[length = k] = R(k) / n;
* the factorial moments of the counts c_j of j-cycles (the conditioning
  relation): E[prod_j (c_j)_{a_j}] = prod_j j^{-a_j} * R(sum_j j*a_j), so E[c_k] = R(k) / k;
* the joint law of the counts of 1-, 2-, ..., d-cycles,
  P[counts = c] = (prod_j (1/j)^{c_j} / c_j!) * mu(n - s) / nu(n, r)
  with s = sum_j j*c_j and mu(m) the fraction of permutations of m elements
  whose cycle lengths all lie in the window (d, r].

Everything supports an exact mode (the oracle) and a log-scaled float
mode for large n.  An exact table holds the integers n_max! * f(m), so
its recurrence needs no gcd; a Fraction is built only when an entry is
read as one.  The brute-force oracles of the recurrences count and tally
the n! permutations that :func:`~shortcycles.permutations.mappings_with_bounded_cycles`
enumerates.
"""

from __future__ import annotations

import itertools
import math
from array import array
from collections import Counter
from collections.abc import Mapping, Sequence
from fractions import Fraction
from typing import Iterator, Union

import numpy as np

from .errors import ResourceLimitError, require_sizes
from .permutations import CountsVector, capped_type_count, mappings_with_bounded_cycles, support_cap

Probability = Union[Fraction, float]

def table_mode(n: int) -> str:
    """Default table arithmetic for size n: exact rationals up to 200, doubles beyond."""
    return "exact" if n <= 200 else "double"


LN2 = math.log(2.0)
LOG_DOUBLE_MAX = math.log(np.finfo(np.float64).max)


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
    elements whose cycle lengths all lie in the window (d, r].

    d = 0 gives nu(m, r), 1 <= d <= r gives mu(m).  Each mode has its own
    readers, and a reader of the other mode raises ValueError naming the
    right one.  Exact mode holds the integers ``scaled[m]`` = scale * f(m)
    and their common ``scale`` (n_max! from :func:`count_table`), read as
    f(m) through :meth:`fraction` and as m! f(m) through :meth:`count`.
    Double mode holds only log f(m) (-inf where f(m) = 0), because deep in
    the tail f(m) lies below the smallest double, and is read through
    :meth:`log_view`.
    """

    def __init__(self, d: int, r: int, mode: str, values, scale: int = 1):
        if mode not in ("exact", "double"):
            raise ValueError(f"unknown mode {mode!r}")
        self.d = d
        self.r = r
        self.mode = mode
        if mode == "exact":
            self.scaled = tuple(values)
            self.scale = scale
        else:
            self._log = np.asarray(values, dtype=np.float64)
            self._log.setflags(write=False)

    @property
    def n_max(self) -> int:
        return len(self.scaled if self.mode == "exact" else self._log) - 1

    def fraction(self, m: int) -> Fraction:
        """f(m), reduced (exact mode only: a double f(m) underflows deep in the tail)."""
        if self.mode != "exact":
            raise ValueError("fractions require exact mode; read a double table through log_view()")
        if not 0 <= m <= self.n_max:
            raise ValueError(f"m={m} outside tabulated range 0..{self.n_max}")
        return Fraction(self.scaled[m], self.scale)

    def count(self, m: int) -> int:
        """m! f(m), the number of such permutations (exact mode only)."""
        f = self.fraction(m)
        value, rest = divmod(f.numerator * math.factorial(m), f.denominator)
        if rest:
            raise ArithmeticError(f"table entry {m} is not a count over {m}!")
        return value

    def log_view(self) -> np.ndarray:
        """Read-only float64 array of log f(m), -inf where f(m) = 0 (double mode only)."""
        if self.mode != "double":
            raise ValueError("logs require double mode; read an exact table through fraction()")
        return self._log


def count_table(n_max: int, r: int, mode: str = "exact", *, d: int = 0) -> WindowTable:
    """Tabulate f(m), m = 0..n_max, for cycle lengths confined to (d, r].

    d = 0 gives nu(m, r), 1 <= d <= r gives mu(m), and d = r is the empty
    window, where f(m) = 0 for every m > 0.  f(0) = 1 and
    m f(m) = sum_{k=d+1}^{min(m, r)} f(m - k): classify by the length k of
    the cycle through a fixed element.

    Exact mode runs the recurrence in integers: with scale = n_max!,
    g(m) = scale * f(m) is an integer because m! divides n_max!, and
    g(m) = window // m, where the window sum gains g(m-d-1) and loses
    g(m-r-1) at each step.  Every division is checked: a remainder raises
    ArithmeticError naming m, d and r.  Double mode works in
    blocks of m, adds positive terms only (no sliding-window subtraction,
    whose absolute error floor once swamped the tail) and keeps one scale
    per block, so log f stays accurate to ~1e-12 relative far below the
    smallest double:

    * d = 0 (nu), blocks of length r.  m f(m) = A(m) + B(m), with A(m)
      the part of the window below the block (a suffix sum of the previous
      block) and B(m) the part inside it.  b(m) = B(m)/m starts at 0 and
      obeys b(m+1) = b(m) + A(m)/(m(m+1)), so a block costs one cumsum.
    * d >= 1, one scalar pass over m.  With j cut into chunks of width
      r-d at multiples of it, the window [m-r, m-d-1] is one whole chunk
      or a suffix of one plus a prefix of the next (van Herk; Gil and
      Werman).  A step extends its chunk's prefix sum by one add, and a
      complete chunk fills its suffix sums backwards.
    """
    require_sizes("0 <= n_max, 1 <= r, 0 <= d <= r", n_max=n_max, r=r, d=d)
    if mode not in ("exact", "double"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact":
        scale = math.factorial(n_max)  # scale * f(m) is an integer: m! divides n_max!
        scaled = [scale]
        window = 0  # sum of scaled[m-k] over d < k <= min(m, r)
        for m in range(1, n_max + 1):
            if m - d - 1 >= 0:
                window += scaled[m - d - 1]
            if m - r - 1 >= 0:
                window -= scaled[m - r - 1]
            value, rest = divmod(window, m)
            if rest:
                raise ArithmeticError(f"window sum at m={m} is not a multiple of m (d={d}, r={r})")
            scaled.append(value)
        return WindowTable(d, r, "exact", scaled, scale)
    top = min(r, n_max)  # no cycle of m <= n_max elements is longer
    if top <= d:
        logs = np.full(n_max + 1, -np.inf)
        logs[0] = 0.0
    elif d == 0:
        logs = _nu_logs(top, n_max)
    else:
        with np.errstate(divide="ignore"):  # log 0 = -inf marks f(m) = 0
            logs = _windowed_logs(d + 1, top, n_max)
    return WindowTable(d, r, "double", logs)


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


def nu_ratios(n: int, top: int, table: WindowTable) -> list[Fraction] | np.ndarray:
    """R(m) = nu(n - m, r) / nu(n, r) for m = 0..top, r = ``table.r``; ``table`` must hold nu(m, r) for m <= n.

    Fractions from an exact table.  From a double table a float64 array, the
    reversed view of one exp, or a ValueError if R(top) leaves the double range.
    """
    require_sizes("0 <= top <= n", top=top, n=n)
    return _ratios(n, 0, top, table)


def _ratios(n: int, low: int, top: int, table: WindowTable) -> list[Fraction] | np.ndarray:
    """R(m) for m = low..top, 0 <= low <= top <= n, as :func:`nu_ratios` gives
    them; this is the one table-coverage check."""
    r = table.r
    if table.d != 0 or table.n_max < n:
        raise ValueError(f"table (({table.d}, {r}], m <= {table.n_max}) does not cover nu(m, {r}), m <= {n}")
    if table.mode == "exact":
        scaled = table.scaled
        return [Fraction(scaled[n - m], scaled[n]) for m in range(low, top + 1)]
    logs = table.log_view()
    log_ratios = logs[n - top : n - low + 1] - logs[n]  # R(top) first: nu is non-increasing, so it is the largest
    if log_ratios[0] > LOG_DOUBLE_MAX:
        raise ValueError(f"nu({n - top}, {r})/nu({n}, {r}) = exp({log_ratios[0]:.6g}) lies beyond the double range")
    return np.exp(log_ratios)[::-1]


def first_element_cycle_length_pmf(n: int, table: WindowTable):
    """Exact law of the cycle length of a fixed element, k = 1..r, r = ``table.r``.

    Entry k-1 is R(k) / n (:func:`nu_ratios`).  For r = n this is uniform:
    every length 1..n has probability exactly 1/n.
    """
    require_sizes("1 <= r <= n", r=table.r, n=n)
    ratios = _ratios(n, 0, table.r, table)[1:]
    return ratios / n if table.mode == "double" else [x / n for x in ratios]


class _Entries(Mapping):
    """A law's count vectors and masses as a read-only mapping keyed by
    :class:`CountsVector`.  ``len`` reads the arrays; the dict behind the
    lookups is built on first use and kept."""

    def __init__(self, pmf: "SparsePMF"):
        self._pmf = pmf
        self._dict = None

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

    def __init__(self, d: int, counts: np.ndarray, masses, mode: str):
        if mode not in ("exact", "double"):
            raise ValueError(f"unknown mode {mode!r}")
        if len(masses) != len(counts):
            raise ValueError(f"{len(masses)} masses for {len(counts)} count vectors")
        self.d = d
        self.counts = counts
        self.masses = masses
        self.mode = mode
        self._total = None
        self.entries = _Entries(self)

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
        if key.d != self.d:
            raise ValueError(f"count vector of dimension {key.d} for a law of dimension d={self.d}")
        return self.entries.get(key, Fraction(0) if self.mode == "exact" else 0.0)

    def support(self) -> list[CountsVector]:
        return list(map(CountsVector, map(tuple, self.counts.tolist())))

    def expectation(self, k: int) -> Probability:
        """E[number of k-cycles] under this law, k <= d."""
        require_sizes("1 <= k <= d", k=k, d=self.d)
        return sum(c * p for c, p in zip(self.counts[:, k - 1].tolist(), self.mass_list()))


def _count_vector_tree(n: int, d: int) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """All (c_1, ..., c_d) with sum_j j*c_j <= n, one level per j, in lexicographic order.

    Level j holds, for each vector (c_1, ..., c_j), the index of its prefix
    at level j - 1 and its last entry c_j.  Returns the per-level parent
    indices, the per-level entries, and the sums sum_j j*c_j at level d.
    """
    parents, entries = [], []
    used = np.zeros(1, dtype=np.int64)
    for j in range(1, d + 1):
        reps = (n - used) // j + 1
        parent = np.repeat(np.arange(len(used)), reps)
        parents.append(parent)
        entries.append(np.arange(parent.size) - np.repeat(np.cumsum(reps) - reps, reps))
        used = used[parent] + j * entries[-1]
    return parents, entries, used


def _count_vector_rows(parents: list[np.ndarray], entries: list[np.ndarray], select: np.ndarray) -> np.ndarray:
    """The level-d vectors at indices ``select`` as rows, one gather per column along the parent links."""
    rows = np.empty((len(select), len(entries)), dtype=np.int64)
    at = select
    for j in reversed(range(len(entries))):
        rows[:, j] = entries[j][at]
        at = parents[j][at]
    return rows


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
    require_sizes("1 <= d <= r <= n", d=d, r=r, n=n)
    cap = support_cap()
    size, exact = capped_type_count(n, d, sum, cap)
    if size > cap:
        bound = "" if exact else "at least "
        raise ResourceLimitError(f"joint law support has {bound}{size} vectors, exceeding the cap of {cap}")
    nu = count_table(n, r, mode)
    mu = count_table(n, r, mode, d=d)
    parents, entries, used = _count_vector_tree(n, d)
    if mode == "exact":
        # both tables have scale n!, so entry s is n! mu(n - s) = perm(n, s) * mu.count(n - s)
        placed = np.array(mu.scaled[::-1], dtype=object)
        keep = np.flatnonzero((placed != 0)[used])
        counts, used = _count_vector_rows(parents, entries, keep), used[keep]
        denominator = np.ones(len(counts), dtype=object)
        for j in range(1, d + 1):
            # j^c c! for c = 0..n//j
            column = np.array([j**c * math.factorial(c) for c in range(n // j + 1)], dtype=object)
            denominator *= column[counts[:, j - 1]]
        norm = nu.scaled[n]  # n! nu(n, r) = nu.count(n)
        masses = list(map(Fraction, placed[used], denominator * norm))
        # the masses sum to 1 iff the permutations they count add up to nu.count(n):
        # perm(n, s) / denominator (an integer) small-cycle placements times mu.count(n - s)
        if (placed[used] // denominator).sum() != norm:
            raise ArithmeticError("exact joint law failed to normalize")
    else:
        # the log denominators are finite, so a vector is kept where log mu(n - s) is
        log_mu = mu.log_view()[n - used]
        keep = np.flatnonzero(np.isfinite(log_mu))
        counts = _count_vector_rows(parents, entries, keep)
        log_prob = log_mu[keep] - nu.log_view()[n]
        for j in range(1, d + 1):
            # log(j^c c!) for c = 0..n//j
            log_denominator = np.array([c * math.log(j) + math.lgamma(c + 1) for c in range(n // j + 1)])
            log_prob -= log_denominator[counts[:, j - 1]]
        masses = np.exp(log_prob)
    pmf = SparsePMF(d, counts, masses, mode)
    if mode == "exact":
        pmf._total = Fraction(1)
    return pmf


def factorial_moment(n: int, a: Sequence[int], table: WindowTable) -> Probability:
    """E[prod_j (c_j)_{a_j}], c_j the number of j-cycles (j <= len(a)) of a uniform permutation with cycles <= r.

    prod_j j^{-a_j} * R(s), s = sum_j j*a_j (:func:`nu_ratios`), or 0 when s > n or
    some a_j > 0 has j > r = ``table.r``: a Fraction from an exact table, a float from a double one.
    """
    r = table.r
    require_sizes("1 <= r <= n", r=r, n=n)
    s, weight, longest = 0, 1, 0
    for j, aj in itertools.compress(enumerate(a, 1), a):  # the nonzero a_j only
        if aj < 0:
            raise ValueError(f"need every a_j >= 0, got a={tuple(a)}")
        s, weight, longest = s + j * aj, weight * j**aj, j
    possible = s <= n and longest <= r
    m = s if possible else 0  # R(0) = 1 checks the table for a zero too
    ratio = _ratios(n, m, m, table)[0]
    value = Fraction(ratio) / weight if possible else Fraction(0)
    return value if table.mode == "exact" else float(value)


def expected_count(n: int, k: int, table: WindowTable) -> Probability:
    """E[number of k-cycles] for a uniform permutation with cycles <= r = ``table.r``.

    :func:`factorial_moment` at a = e_k, R(k) / k: exactly 1/k when r = n, 0 for
    r < k <= n.
    """
    require_sizes("1 <= k <= n", k=k, n=n)
    return factorial_moment(n, (0,) * (k - 1) + (1,), table)


def brute_force_count(n: int, r: int) -> int:
    """|{permutations of n elements with all cycles <= r}| by full enumeration."""
    return sum(1 for _ in mappings_with_bounded_cycles(n, r))


def brute_force_pmf(n: int, r: int, d: int) -> SparsePMF:
    """Joint law of small-cycle counts by enumerating all n! permutations.

    The oracle for :func:`joint_pmf`; exact rationals throughout.
    """
    require_sizes("1 <= d <= r", d=d, r=r)
    types = Counter(lengths for _, lengths in mappings_with_bounded_cycles(n, r))
    tally = Counter()
    for lengths, ways in types.items():
        tally[CountsVector.from_cycle_type(lengths, d).counts] += ways
    rows = sorted(tally)
    kept = types.total()
    return SparsePMF(d, np.array(rows, dtype=np.int64), [Fraction(tally[row], kept) for row in rows], "exact")

