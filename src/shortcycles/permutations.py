"""Permutations in one-line notation and their cycle statistics.

A permutation of {0, ..., n-1} is stored as the tuple of images: ``mapping[i]``
is where ``i`` goes.  Cycle structure is always derived from this array, never
stored as an independent source of truth, which keeps composition with a
transposition O(n) and validation trivial.

The downstream statistic of interest is the vector of small-cycle counts:
entry ``k`` of a :class:`CountsVector` is the number of cycles of length
exactly ``k``.  Everything here is immutable and safe to share between
threads.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence


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
        mapping = []
        for length in lengths:
            start = len(mapping)
            mapping.extend(start + (i + 1) % length for i in range(length))
        return cls(mapping)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.mapping == other.mapping

    def __hash__(self) -> int:
        return hash(self.mapping)

    def __repr__(self) -> str:
        return f"Permutation({list(self.mapping)})"


@dataclass(frozen=True)
class Transposition:
    """An unordered pair swap; (a, b) and (b, a) are the same object."""

    a: int
    b: int

    def __init__(self, a: int, b: int):
        if a == b:
            raise ValueError("transposition needs two distinct indices")
        if a < 0 or b < 0:
            raise ValueError("indices must be non-negative")
        object.__setattr__(self, "a", min(a, b))
        object.__setattr__(self, "b", max(a, b))


@dataclass(frozen=True)
class CycleStructure:
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


@dataclass(frozen=True)
class CountsVector:
    """Counts of cycles by length: ``counts[k-1]`` cycles of length k, k <= d."""

    counts: tuple[int, ...]

    @property
    def d(self) -> int:
        return len(self.counts)

    @classmethod
    def from_cycle_type(cls, lengths: Sequence[int], d: int) -> "CountsVector":
        """Number of cycles of each length 1..d among the cycle lengths ``lengths``."""
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
    n = p.n
    mapping = p.mapping
    seen = bytearray(n)
    cycles: list[tuple[int, ...]] = []
    for start in range(n):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = 1
        x = mapping[start]
        while x != start:
            cycle.append(x)
            seen[x] = 1
            x = mapping[x]
        cycles.append(tuple(cycle))
    lengths = tuple(sorted(len(c) for c in cycles))
    return CycleStructure(tuple(cycles), lengths)


def apply_transposition(p: Permutation, t: Transposition) -> Permutation:
    """Compose: first ``p``, then swap the images ``t.a`` and ``t.b``.

    Self-inverse for fixed ``t``.  If ``t.a`` and ``t.b`` lie in the same
    cycle of ``p`` the cycle splits in two; otherwise their cycles merge.
    """
    if t.b >= p.n:
        raise ValueError(f"transposition index {t.b} outside 0..{p.n - 1}")
    new = list(p.mapping)
    ia = new.index(t.a)
    ib = new.index(t.b)
    new[ia], new[ib] = new[ib], new[ia]
    return Permutation(new)


def longest_cycle(p: Permutation) -> int:
    """Length of the longest cycle of ``p``."""
    return max(cycle_structure(p).lengths)


def permutations_with_bounded_cycles(n: int, r: int) -> Iterator[Permutation]:
    """All permutations of n elements whose every cycle has length <= r.

    Plain filtered enumeration of all n! arrays; intended for small n.
    """
    if n < 1 or r < 1:
        raise ValueError(f"need n >= 1 and r >= 1, got n={n}, r={r}")
    for mapping in itertools.permutations(range(n)):
        p = Permutation(mapping)
        if longest_cycle(p) <= r:
            yield p


def cycle_types(n: int, r: int) -> Iterator[tuple[int, ...]]:
    """Every cycle type of n elements with all cycles <= r.

    A cycle type is a partition of n, written as non-decreasing cycle
    lengths like :attr:`CycleStructure.lengths`.  Partitions are visited in
    reverse lexicographic order of their parts read largest first, so the
    first one is (r, ..., r, n mod r) and parts never exceed r.
    """
    if n < 1 or r < 1:
        raise ValueError(f"need n >= 1 and r >= 1, got n={n}, r={r}")
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
    size = math.factorial(sum(lengths))
    for length, count in Counter(lengths).items():
        size //= length**count * math.factorial(count)
    return size
