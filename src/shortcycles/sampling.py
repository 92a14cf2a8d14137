"""Uniform samplers for permutations with all cycle lengths at most r.

Two routes to the same distribution, both on cycle types:

* sequential: draw the cycle type, then the labels.  With m elements
  left, the cycle through any fixed one of them has length k with
  probability nu(m-k, r) / (m * nu(m, r)); drawing one such length per
  cycle gives the cycle type with its exact law, in as many stages as
  there are cycles.  While m > r a stage proposes k uniformly on 1..r
  and accepts with probability
  nu(m-k, r) / nu(m-r, r) <= 1 (nu is non-increasing), so the law is
  never formed; that takes about xi(u) / (1 - e^-xi(u)) proposals deep in
  the tail, 6.5 at u = n/r = 100.  Once m <= r, nu(m-k, r) = 1 for every
  k, so the one proposal, k uniform on 1..m, is accepted without reading
  the table; the batch checks once that log nu(m, r) is 0 for m <= min(n, r).
  A proposal takes two uniforms, one for k and one for the acceptance, in
  both kinds of stage; a draw reads them from blocks of 64 that one numpy
  call each fills, refilling when a block runs out and dropping what is left
  when the draw ends.  The table entries are read as Python floats through a
  memoryview.  Given
  its type, a uniform permutation is uniform over that conjugacy class,
  so cutting one uniform arrangement of 0..n-1 into consecutive cycles of
  those lengths finishes the draw.  Exact, and no whole draw is ever
  rejected; callers that need only cycle counts stop after the first step.
* mcmc: the random-transposition walk restricted to the bounded-cycle set,
  run on cycle types.  A step draws an ordered pair of distinct elements
  and composes their transposition with sigma: two elements of one cycle
  split it, two elements of different cycles merge them, and a merge
  longer than r is rejected (the chain stays put).  The proposal is
  symmetric and rejection keeps the chain reversible, so the uniform law is
  stationary, and the law of the next cycle type depends on sigma only
  through its type: on types the walk is reversible with respect to the
  class sizes, class_size(l) P(l -> m) = class_size(m) P(m -> l).  The chain starts from one exact sequential draw of the
  type, so every state it emits is exactly uniform; burn-in only delays
  the first output and thinning weakens the correlation between successive
  ones.  One step is also the perturbation the event-probability
  identities in :mod:`shortcycles.stein` describe.

Every draw goes through one of two entry points, which serve both methods,
chosen by ``SamplerConfig.method``: :func:`draw_cycle_types` gives a list
of cycle types and :func:`draw` gives labelled permutations as one
``(count, n)`` int64 array, row i the one-line notation of draw i; both
take ``(cfg, count, rng)``, and no sampler takes a table.  Both read one
checked stream of types: it builds the double log nu table and checks the
count, the stage law and the entries m <= r once per batch.  :func:`draw`
labels the types and checks that every row is a bijection in one array
pass.  Wrap a row in a :class:`~shortcycles.permutations.Permutation` for
its cycles.  All draws
consume the numpy Generator the caller passes, and no config carries a
seed; samplers never share mutable state.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right, insort
from typing import NamedTuple

import numpy as np

from .counting import count_table, first_element_cycle_length_pmf
from .errors import require_sizes
from .permutations import cycle_type_size

_UNIFORM_BLOCK = 64  # uniforms drawn per numpy call in _cycle_type; even, two per proposal
_PAIR_BLOCK = 4096  # ordered pairs drawn per numpy call by the walk


class _SamplerFields(NamedTuple):
    n: int
    r: int
    method: str  # sequential | mcmc
    mcmc_burn_in: int
    mcmc_thinning: int


class SamplerConfig(_SamplerFields):
    __slots__ = ()

    def __new__(cls, n: int, r: int, method: str = "sequential", mcmc_burn_in: int = 0, mcmc_thinning: int = 1):
        require_sizes(
            "1 <= r <= n, 0 <= mcmc_burn_in, 1 <= mcmc_thinning",
            r=r, n=n, mcmc_burn_in=mcmc_burn_in, mcmc_thinning=mcmc_thinning,
        )
        if method not in ("sequential", "mcmc"):
            raise ValueError(f"unknown method {method!r}")
        return super().__new__(cls, n, r, method, mcmc_burn_in, mcmc_thinning)

    @classmethod
    def _make(cls, iterable) -> "SamplerConfig":
        # _replace builds through _make and unpickling through __new__, so both validate
        return cls(*iterable)


def _stage_logs(n: int, r: int) -> memoryview:
    """The log nu(m, r) entries the stages of a draw of n read, from one double
    nu table, as a memoryview whose items are Python floats, once the stage law
    at m = n (:func:`first_element_cycle_length_pmf`) is found to sum to 1 and
    nu(m, r) = 1 for m <= min(n, r).  A batch of draws runs this once."""
    table = count_table(n, r, "double")
    total = np.add.reduce(first_element_cycle_length_pmf(n, table))
    if not abs(total - 1.0) <= 1e-9:
        raise ValueError(f"stage law sums to {total}, table looks inconsistent")
    logs = table.log_view()
    # the stages with m <= r accept every proposal without reading the table
    if np.any(logs[: min(n, r) + 1] != 0.0):
        raise ValueError(f"log nu(m, {r}) is not 0 for some m <= {min(n, r)}, table looks inconsistent")
    return memoryview(logs)


def _cycle_type(n: int, r: int, logs: memoryview, rng: np.random.Generator) -> tuple[int, ...]:
    """Cycle lengths, ascending, of one uniform draw of n elements with cycles <= r:
    one stage per cycle, by rejection against the checked entries ``logs`` while
    more than r elements are left, accepted at once after that.  A proposal ratio
    above 1 raises ValueError.  Two uniforms per proposal, from blocks of
    ``_UNIFORM_BLOCK``; the rest of the last block is dropped."""
    lengths = []
    uniforms: list[float] = []
    at = _UNIFORM_BLOCK  # empty: the first proposal fills the block
    m = n
    while m > r:
        floor = logs[m - r]
        while True:
            if at == _UNIFORM_BLOCK:
                uniforms = rng.random(_UNIFORM_BLOCK).tolist()
                at = 0
            k = 1 + int(r * uniforms[at])
            ratio = math.exp(logs[m - k] - floor)
            if not ratio <= 1 + 1e-9:
                raise ValueError(f"nu ratio {ratio} at m={m}, k={k}, table looks inconsistent")
            at += 2
            if uniforms[at - 1] < ratio:
                break
        lengths.append(k)
        m -= k
    # m <= r: nu(m - k, r) and the floor nu(0, r) are both 1, so the proposal is accepted;
    # its second uniform is still spent
    while m > 0:
        if at == _UNIFORM_BLOCK:
            uniforms = rng.random(_UNIFORM_BLOCK).tolist()
            at = 0
        k = 1 + int(m * uniforms[at])
        at += 2
        lengths.append(k)
        m -= k
    return tuple(sorted(lengths))


def _labelled(lengths: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """The int64 one-line row of a uniform permutation of the cycle type
    ``lengths``: one uniform arrangement of 0..n-1 cut into consecutive
    cycles of those lengths."""
    lengths = np.array(lengths)
    n = int(lengths.sum())
    order = rng.permutation(n)
    ends = np.cumsum(lengths)
    successor = np.arange(1, n + 1)
    successor[ends - 1] = ends - lengths  # each cycle closes on its first position
    mapping = np.empty(n, dtype=np.int64)
    mapping[order] = order[successor]
    return mapping


def _transposition_move(lengths: tuple[int, ...], a: int, b: int, r: int) -> tuple[int, ...]:
    """Cycle type after the transposition of elements ``a != b`` acts on
    ``Permutation.from_cycle_type(lengths)``, whose cycles run through
    consecutive elements in the order of ``lengths``.

    Two elements of one cycle of length L split it into (b - a) mod L and
    the rest; elements of two cycles merge them.  A merge longer than ``r``
    is rejected and returns ``lengths`` itself.  O(number of cycles).
    """
    ends = list(itertools.accumulate(lengths))
    i = bisect_right(ends, a)
    j = bisect_right(ends, b)
    parts = list(lengths)
    if i == j:
        length = parts.pop(i)
        offset = (b - a) % length
        insort(parts, offset)
        insort(parts, length - offset)
    else:
        merged = parts[i] + parts[j]
        if merged > r:
            return lengths
        del parts[max(i, j)], parts[min(i, j)]
        insort(parts, merged)
    return tuple(parts)


def _pair_move(lengths: tuple[int, ...], n: int, pair: int, r: int) -> tuple[int, ...]:
    """The step of the walk on ``lengths`` (n elements) for the ordered pair
    numbered ``pair`` in 0..n(n-1)-1: a = pair // (n-1), and b the
    (pair mod (n-1))-th element other than a."""
    a, b = divmod(pair, n - 1)
    return _transposition_move(lengths, a, b + (b >= a), r)


def mcmc_step(lengths: tuple[int, ...], r: int, rng: np.random.Generator) -> tuple[int, ...]:
    """One step of the restricted random-transposition walk on cycle types.

    ``lengths`` is a sorted cycle type with parts <= ``r``.  Draws a uniform
    ordered pair of distinct elements and returns the sorted type after
    their transposition; a rejected merge returns ``lengths`` itself.  With
    one element there is no transposition and the fixed point stays.
    """
    n = cycle_type_size(lengths, r)
    if not n or list(lengths) != sorted(lengths):
        raise ValueError(f"chain state {lengths} is empty or not sorted ascending")
    if n == 1:
        return lengths
    return _pair_move(lengths, n, int(rng.integers(n * (n - 1))), r)


def _ordered_pairs(n: int, steps: int, rng: np.random.Generator):
    """The pair numbers of ``steps`` calls of :func:`mcmc_step` on n elements,
    drawn in blocks of ``_PAIR_BLOCK``: one vector draw gives the same numbers
    as that many scalar ones and leaves ``rng`` in the same state.  With
    n = 1 nothing is drawn."""
    if n == 1:
        return
    for start in range(0, steps, _PAIR_BLOCK):
        yield from rng.integers(n * (n - 1), size=min(_PAIR_BLOCK, steps - start)).tolist()


def _types(cfg: SamplerConfig, count: int, rng: np.random.Generator):
    """The types of :func:`draw_cycle_types`, lazy for sequential; a plain function, so its checks run on the call."""
    require_sizes("0 <= count", count=count)
    n, r = cfg.n, cfg.r
    logs = _stage_logs(n, r)
    if cfg.method == "sequential":
        return (_cycle_type(n, r, logs, rng) for _ in range(count))
    state = _cycle_type(n, r, logs, rng)
    pairs = _ordered_pairs(n, cfg.mcmc_burn_in + count * cfg.mcmc_thinning, rng)
    for pair in itertools.islice(pairs, cfg.mcmc_burn_in):
        state = _pair_move(state, n, pair, r)
    out: list[tuple[int, ...]] = []
    for _ in range(count):
        for pair in itertools.islice(pairs, cfg.mcmc_thinning):
            state = _pair_move(state, n, pair, r)
        out.append(state)
    return out


def draw_cycle_types(cfg: SamplerConfig, count: int, rng: np.random.Generator) -> list[tuple[int, ...]]:
    """``count`` cycle types of uniform permutations with cycles <= r, by ``cfg.method``.

    sequential gives independent stage-by-stage draws.  mcmc runs
    ``cfg.mcmc_burn_in`` steps of the transposition walk from one such draw,
    then emits every ``cfg.mcmc_thinning``-th state: the chain a loop of
    :func:`mcmc_step` on ``rng`` runs, with its pairs drawn in blocks.  Every
    type has the exact law; successive mcmc types are correlated.  The count
    and the stage law are checked once, before the first uniform is drawn.
    """
    return list(_types(cfg, count, rng))


def draw(cfg: SamplerConfig, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` labelled draws with the configured method, from ``rng``, as a
    ``(count, n)`` int64 array: row i is the one-line notation of draw i.

    sequential labels each type as it is drawn, so ``draw(cfg, 1, rng)``
    called repeatedly spends ``rng`` as one batch does.  mcmc labels each type of :func:`draw_cycle_types` independently
    and uniformly, after the whole chain has run.  The stage law is checked
    once, and every row is checked to be a bijection in one pass at the end.
    """
    types = _types(cfg, count, rng)
    n = cfg.n
    rows = np.empty((count, n), dtype=np.int64)
    for row, lengths in zip(rows, types):
        row[:] = _labelled(lengths, rng)
    # a row of n entries in 0..n-1 that hits every one of them is a bijection;
    # entry j of row i hits cell i * n + rows[i, j]
    hit = np.zeros(rows.size, dtype=bool)
    if rows.size and 0 <= rows.min() and rows.max() < n:
        hit[(rows + np.arange(0, rows.size, n)[:, None]).ravel()] = True
    if not hit.all():
        raise ValueError("a labelled draw is not a bijection on 0..n-1")
    return rows
