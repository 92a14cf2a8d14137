"""Permutations in one-line notation, cycle types and their enumeration.

A permutation of {0, ..., n-1} is stored as the tuple of images: ``mapping[i]``
is where ``i`` goes; its cycle structure is derived from that array.  A cycle
type is a tuple of positive cycle lengths, and :func:`cycle_type_size` is the
one check of that rule, and of a bound r on the parts, for every function of
the package that takes cycle lengths.  :func:`cycle_types` enumerates the
types of n with parts <= r, at most ``SHORTCYCLES_SUPPORT_CAP`` of them.  Entry ``k``
of a :class:`CountsVector`, never negative, is the number of k-cycles.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Callable, Iterator, NamedTuple, Sequence

from .errors import ResourceLimitError, env_cap, require_sizes


def cycle_type_size(lengths: Sequence[int], r: int | None = None) -> int:
    """n of the cycle type ``lengths``, after checking that every part is
    positive and, when ``r`` is given, at most ``r``.  () is the type of n = 0."""
    if lengths and min(lengths) < 1:
        raise ValueError(f"cycle type {tuple(lengths)} has a part that is not positive")
    if lengths and r is not None and max(lengths) > r:
        raise ValueError(f"cycle type {tuple(lengths)} has a cycle longer than r={r}")
    return sum(lengths)


class Permutation:
    """A bijection on {0, ..., n-1} in one-line notation.

    >>> Permutation((1, 0, 2)).mapping
    (1, 0, 2)
    """

    __slots__ = ("mapping",)

    def __init__(self, mapping: Sequence[int]):
        mapping = tuple(mapping)
        n = len(mapping)
        if n == 0:
            raise ValueError("permutation must act on at least one element")
        if len(set(mapping)) != n or min(mapping) < 0 or max(mapping) >= n:
            raise ValueError(f"mapping of length {n} is not a bijection on 0..{n - 1}")
        self.mapping = mapping

    @property
    def n(self) -> int:
        return len(self.mapping)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    @classmethod
    def from_cycle_type(cls, lengths: Sequence[int]) -> "Permutation":
        """A representative of the cycle type: consecutive blocks rotated by one.

        >>> Permutation.from_cycle_type((1, 2)).mapping
        (0, 2, 1)
        """
        mapping = list(range(1, cycle_type_size(lengths) + 1))
        for end, length in zip(itertools.accumulate(lengths), lengths):
            mapping[end - 1] = end - length  # each cycle closes on its first element
        return cls(mapping)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.mapping == other.mapping

    def __hash__(self) -> int:
        return hash(self.mapping)

    def __repr__(self) -> str:
        return f"Permutation({list(self.mapping)})"


class CycleStructure(NamedTuple):
    """Disjoint cycles of a permutation, sorted by smallest element.

    Each cycle is written starting from its smallest element and following
    the permutation.  ``lengths`` is the cycle type: the cycle lengths in
    non-decreasing order.
    """

    cycles: tuple[tuple[int, ...], ...]
    lengths: tuple[int, ...]

    @property
    def n(self) -> int:
        return sum(self.lengths)


class _CountsFields(NamedTuple):
    counts: tuple[int, ...]


class CountsVector(_CountsFields):
    """Counts of cycles by length: ``counts[k-1]`` cycles of length k, k <= d."""

    __slots__ = ()

    def __new__(cls, counts: tuple[int, ...]):
        if counts and min(counts) < 0:
            raise ValueError(f"count vector {counts} has a negative entry")
        return super().__new__(cls, counts)

    @classmethod
    def _make(cls, iterable) -> "CountsVector":
        # _replace builds through _make and unpickling through __new__, so both validate
        return cls(*iterable)

    @property
    def d(self) -> int:
        return len(self.counts)

    @classmethod
    def from_cycle_type(cls, lengths: Sequence[int], d: int) -> "CountsVector":
        """Number of cycles of each length 1..d among the cycle lengths ``lengths``."""
        if d < 0:
            raise ValueError(f"need d >= 0, got d={d}")
        cycle_type_size(lengths)
        counts = [0] * d
        for length in lengths:
            if length <= d:
                counts[length - 1] += 1
        return cls(tuple(counts))

    def weighted_sum(self) -> int:
        """Total number of elements lying in cycles of length <= d."""
        return sum(k * c for k, c in enumerate(self.counts, start=1))


def cycle_structure(p: Permutation) -> CycleStructure:
    """Decompose ``p`` into disjoint cycles.

    Cycles are reported sorted by their smallest element, each starting at
    that element, so the output is deterministic.
    """
    cycles = _cycles(p.mapping)
    return CycleStructure(tuple(map(tuple, cycles)), tuple(sorted(map(len, cycles))))


def _cycles(mapping: Sequence[int]) -> list[list[int]]:
    """The cycle walk: the cycles of ``mapping``, each from its smallest element, in order of it."""
    seen = bytearray(len(mapping))
    cycles = []
    for start in range(len(mapping)):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = 1
        x = mapping[start]
        while x != start:
            cycle.append(x)
            seen[x] = 1
            x = mapping[x]
        cycles.append(cycle)
    return cycles


def longest_cycle(p: Permutation) -> int:
    """Length of the longest cycle of ``p``."""
    return max(cycle_structure(p).lengths)


def mappings_with_bounded_cycles(n: int, r: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every permutation of n elements whose cycles all have length <= r, as
    its one-line mapping and its cycle type (``cycle_structure(p).lengths``).

    The brute-force enumerator: it filters all n! arrays, after checking n
    against ``SHORTCYCLES_BRUTE_FORCE_CAP``.  n = 0 gives the empty permutation,
    the mapping () with cycle type ().
    """
    require_sizes("0 <= n, 1 <= r", n=n, r=r)
    limit = env_cap("SHORTCYCLES_BRUTE_FORCE_CAP")
    if n > limit:
        raise ResourceLimitError(f"brute force capped at n <= {limit}, got n={n}")
    for mapping in itertools.permutations(range(n)):
        lengths = tuple(sorted(map(len, _cycles(mapping))))
        if not lengths or lengths[-1] <= r:
            yield mapping, lengths


def permutations_with_bounded_cycles(n: int, r: int) -> Iterator[Permutation]:
    """All permutations of n >= 1 elements whose every cycle has length <= r.

    The permutations :func:`mappings_with_bounded_cycles` yields, capped by ``SHORTCYCLES_BRUTE_FORCE_CAP``.
    """
    require_sizes("1 <= n, 1 <= r", n=n, r=r)
    for mapping, _ in mappings_with_bounded_cycles(n, r):
        yield Permutation(mapping)


def cycle_types(n: int, r: int) -> Iterator[tuple[int, ...]]:
    """Every cycle type of n elements with all cycles <= r.

    A cycle type is a partition of n, written as non-decreasing cycle
    lengths like :attr:`CycleStructure.lengths`.  Partitions are visited in
    reverse lexicographic order of their parts read largest first, so the
    first one is (r, ..., r, n mod r) and parts never exceed r.  At most
    ``SHORTCYCLES_SUPPORT_CAP`` types: their number is checked before the first.
    """
    require_sizes("1 <= n, 1 <= r", n=n, r=r)
    cap = env_cap("SHORTCYCLES_SUPPORT_CAP")
    types, exact = capped_type_count(n, r, lambda ways: ways[n], cap)
    if types > cap:
        bound = "" if exact else "at least "
        raise ResourceLimitError(f"{bound}{types} cycle types of n={n} with parts <= {r} exceed the cap of {cap}")
    parts = [r] * (n // r) + ([n % r] if n % r else [])  # non-increasing
    while True:
        yield tuple(reversed(parts))
        h = len(parts) - 1
        while h >= 0 and parts[h] == 1:
            h -= 1
        if h < 0:
            return
        # lower parts[h] by one and regroup it with the trailing ones
        size = parts[h] - 1
        spread = len(parts) - h
        del parts[h:]
        parts.append(size)
        q, rem = divmod(spread, size)
        parts.extend([size] * q)
        if rem:
            parts.append(rem)


def cycle_type_counts(n: int, r: int) -> list[int]:
    """Entry s: the number of cycle types of s elements with all cycles <= r.

    That is the number of partitions of s with parts <= r, and also the
    number of count vectors (c_1, ..., c_r) with sum_j j*c_j = s; entry n
    counts what :func:`cycle_types` visits.
    """
    require_sizes("0 <= n", n=n, r=r)
    *_, ways = _admit_parts(n, r)
    return ways


def _admit_parts(n: int, r: int) -> Iterator[list[int]]:
    """cycle_type_counts(n, p) for p = 0, 1, ..., min(n, r): one list, updated in place."""
    ways = [1] + [0] * n
    yield ways
    for part in range(1, min(n, r) + 1):
        for s in range(part, n + 1):
            ways[s] += ways[s - part]
        yield ways


def capped_type_count(n: int, r: int, measure: Callable[[list[int]], int], cap: int) -> tuple[int, bool]:
    """``measure(cycle_type_counts(n, r))`` and True, or a lower bound above ``cap`` and False.

    ``measure``, an entry or a sum of entries, never decreases as part sizes
    are admitted, so the recurrence stops once it exceeds ``cap``.
    """
    for part, ways in enumerate(_admit_parts(n, r)):
        value = measure(ways)
        if value > cap:
            break
    return value, part == min(n, r)


def class_size(lengths: Sequence[int]) -> int:
    """Number of permutations with the given cycle type: n! / prod_j j^{c_j} c_j!."""
    size = math.factorial(cycle_type_size(lengths))
    for length, count in Counter(lengths).items():
        size //= length**count * math.factorial(count)
    return size
