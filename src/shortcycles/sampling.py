"""Uniform samplers for permutations with all cycle lengths at most r.

Two routes to the same distribution, both on cycle types:

* sequential: draw the cycle type, then the labels.  With m elements
  left, the cycle through any fixed one of them has length k with
  probability nu(m-k, r) / (m * nu(m, r)); drawing one such length per
  cycle gives the cycle type with its exact law, in as many stages as
  there are cycles (:func:`sample_cycle_type`).  A stage proposes k
  uniformly on 1..top, top = min(m, r), and accepts with probability
  nu(m-k, r) / nu(m-top, r) <= 1 (nu is non-increasing), so the law is
  never formed; that takes one proposal when m <= r and about
  xi(u) / (1 - e^-xi(u)) deep in the tail, 6.5 at u = n/r = 100.  A
  proposal takes two uniforms, one for k and one for the acceptance; a draw
  reads them from blocks of 64 that one numpy call each fills, refilling
  when a block runs out and dropping what is left when the draw ends.  Given
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

Two entry points serve both methods, chosen by ``SamplerConfig.method``:
:func:`draw_cycle_types` gives cycle types only and :func:`draw` gives
labelled permutations, both as ``(cfg, count, rng)``.  Each builds the
double log nu table it reads inside, so no caller passes a table.  All
draws consume the numpy Generator the caller passes, and no config carries
a seed; samplers never share mutable state.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right, insort
from dataclasses import dataclass

import numpy as np

from .counting import WindowTable, count_table, nu_ratios
from .permutations import Permutation

_UNIFORM_BLOCK = 64  # uniforms drawn per numpy call in sample_cycle_type; even, two per proposal


@dataclass(frozen=True)
class SamplerConfig:
    n: int
    r: int
    method: str = "sequential"  # sequential | mcmc
    mcmc_burn_in: int = 0
    mcmc_thinning: int = 1

    def __post_init__(self):
        if not 1 <= self.r <= self.n:
            raise ValueError(f"need 1 <= r <= n, got r={self.r}, n={self.n}")
        if self.method not in ("sequential", "mcmc"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.mcmc_burn_in < 0:
            raise ValueError(f"burn-in must be >= 0, got {self.mcmc_burn_in}")
        if self.mcmc_thinning < 1:
            raise ValueError(f"thinning must be >= 1, got {self.mcmc_thinning}")


def sample_cycle_type(n: int, rng: np.random.Generator, table: WindowTable) -> tuple[int, ...]:
    """Cycle lengths of one uniform draw with all cycles <= r = ``table.r``, ascending.

    One stage per cycle, drawn by rejection against two entries of the log
    nu table ``table``, which must cover n.  A stage law at m = n (sum_k R(k)/n,
    :func:`nu_ratios`) that does not sum to 1, or a proposal ratio above 1, raises ValueError.
    Uniforms come from ``rng`` in blocks of ``_UNIFORM_BLOCK``, two per
    proposal; the unused rest of the last block is dropped.
    The result is what ``cycle_structure(p).lengths`` gives for the
    permutation drawn.
    """
    r = table.r
    total = np.add.reduce(nu_ratios(n, min(n, r), table)[1:]) / n
    logs = table.log_view()
    if not abs(total - 1.0) <= 1e-9:
        raise ValueError(f"stage law sums to {total}, table looks inconsistent")
    lengths = []
    uniforms: list[float] = []
    at = _UNIFORM_BLOCK  # empty: the first proposal fills the block
    m = n
    while m > 0:
        top = min(m, r)
        floor = logs[m - top]
        while True:
            if at == _UNIFORM_BLOCK:
                uniforms = rng.random(_UNIFORM_BLOCK).tolist()
                at = 0
            k = 1 + int(top * uniforms[at])
            ratio = math.exp(logs[m - k] - floor)
            if not ratio <= 1 + 1e-9:
                raise ValueError(f"nu ratio {ratio} at m={m}, k={k}, table looks inconsistent")
            at += 2
            if uniforms[at - 1] < ratio:
                break
        lengths.append(k)
        m -= k
    return tuple(sorted(lengths))


def _labelled(lengths: tuple[int, ...], rng: np.random.Generator) -> Permutation:
    """A uniform permutation of the cycle type ``lengths``: one uniform
    arrangement of 0..n-1 cut into consecutive cycles of those lengths."""
    lengths = np.array(lengths)
    n = int(lengths.sum())
    order = rng.permutation(n)
    ends = np.cumsum(lengths)
    successor = np.arange(1, n + 1)
    successor[ends - 1] = ends - lengths  # each cycle closes on its first position
    mapping = np.empty(n, dtype=np.int64)
    mapping[order] = order[successor]
    return Permutation(mapping.tolist())


def sample_sequential(n: int, rng: np.random.Generator, table: WindowTable) -> Permutation:
    """One exact uniform draw of n elements with cycles <= ``table.r``: a cycle type, then a uniform labelling."""
    return _labelled(sample_cycle_type(n, rng, table), rng)


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


def mcmc_step(lengths: tuple[int, ...], r: int, rng: np.random.Generator) -> tuple[int, ...]:
    """One step of the restricted random-transposition walk on cycle types.

    ``lengths`` is a sorted cycle type with parts <= ``r``.  Draws a uniform
    ordered pair of distinct elements and returns the sorted type after
    their transposition; a rejected merge returns ``lengths`` itself.  With
    one element there is no transposition and the fixed point stays.
    """
    if max(lengths) > r:
        raise ValueError(f"chain state {lengths} has a cycle longer than r={r}")
    n = sum(lengths)
    if n == 1:
        return lengths
    pair = int(rng.integers(n * (n - 1)))
    a, b = divmod(pair, n - 1)
    return _transposition_move(lengths, a, b + (b >= a), r)


def draw_cycle_types(cfg: SamplerConfig, count: int, rng: np.random.Generator) -> list[tuple[int, ...]]:
    """``count`` cycle types of uniform permutations with cycles <= r, by ``cfg.method``.

    sequential gives one :func:`sample_cycle_type` draw each.  mcmc starts the transposition walk
    from one :func:`sample_cycle_type` draw, which has the exact uniform law,
    runs ``cfg.mcmc_burn_in`` steps, then emits every
    ``cfg.mcmc_thinning``-th state.  Every emitted type therefore has the
    exact law; successive mcmc types are correlated.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    n, r = cfg.n, cfg.r
    table = count_table(n, r, "double")
    if cfg.method == "sequential":
        return [sample_cycle_type(n, rng, table) for _ in range(count)]
    state = sample_cycle_type(n, rng, table)
    for _ in range(cfg.mcmc_burn_in):
        state = mcmc_step(state, r, rng)
    out: list[tuple[int, ...]] = []
    for _ in range(count):
        for _ in range(cfg.mcmc_thinning):
            state = mcmc_step(state, r, rng)
        out.append(state)
    return out


def draw(cfg: SamplerConfig, count: int, rng: np.random.Generator) -> list[Permutation]:
    """``count`` labelled draws with the configured method, from ``rng``.

    sequential labels each type as it is drawn (:func:`sample_sequential`).
    mcmc labels each type
    of :func:`draw_cycle_types` independently and uniformly, after the whole
    chain has run.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if cfg.method == "sequential":
        table = count_table(cfg.n, cfg.r, "double")
        return [sample_sequential(cfg.n, rng, table) for _ in range(count)]
    return [_labelled(lengths, rng) for lengths in draw_cycle_types(cfg, count, rng)]
