"""Uniform samplers for permutations with all cycle lengths at most r.

Three routes to the same distribution:

* rejection: draw uniform permutations (Fisher-Yates) until the longest
  cycle is <= r.  Exact, with acceptance probability nu(n, r), so only
  practical when that fraction is not tiny.
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
  through its type.  The chain starts from one exact sequential draw of the
  type, so every state it emits is exactly uniform; burn-in only delays
  the first output and thinning weakens the correlation between successive
  ones.  One step is also the perturbation the event-probability
  identities in :mod:`shortcycles.stein` describe.

Two entry points serve all three methods, chosen by ``SamplerConfig.method``:
:func:`draw_cycle_types` gives cycle types only and :func:`draw` gives
labelled permutations, both as ``(cfg, count, rng)``.  Each builds the
double log nu table it reads inside, so no caller passes a table.  All
draws consume the numpy Generator the caller passes, and no config carries
a seed; samplers never share mutable state.
"""

from __future__ import annotations

import itertools
import math
import os
from bisect import bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .counting import WindowTable, _check_nu_table, count_table
from .errors import ResourceLimitError
from .permutations import (
    Permutation,
    Transposition,
    apply_transposition,
    cycle_structure,
    longest_cycle,
    permutations_with_bounded_cycles,
)

DEFAULT_RETRY_CAP = 10**7
STATIONARITY_MAX_N = 7  # an exact oracle, not a resource cap: 7! = 5040 states
_UNIFORM_BLOCK = 64  # uniforms drawn per numpy call in sample_cycle_type; even, two per proposal


def retry_cap() -> int:
    """Rejection-sampler draw budget; override with SHORTCYCLES_RETRY_CAP."""
    return int(os.environ.get("SHORTCYCLES_RETRY_CAP", DEFAULT_RETRY_CAP))


@dataclass(frozen=True)
class SamplerConfig:
    n: int
    r: int
    method: str = "sequential"  # rejection | sequential | mcmc
    mcmc_burn_in: int = 0
    mcmc_thinning: int = 1

    def __post_init__(self):
        if not 1 <= self.r <= self.n:
            raise ValueError(f"need 1 <= r <= n, got r={self.r}, n={self.n}")
        if self.method not in ("rejection", "sequential", "mcmc"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.mcmc_burn_in < 0:
            raise ValueError(f"burn-in must be >= 0, got {self.mcmc_burn_in}")
        if self.mcmc_thinning < 1:
            raise ValueError(f"thinning must be >= 1, got {self.mcmc_thinning}")


def sample_rejection(cfg: SamplerConfig, rng: np.random.Generator) -> Permutation:
    """One exact uniform draw by rejection on the longest cycle, at most SHORTCYCLES_RETRY_CAP tries."""
    cap = retry_cap()
    for _ in range(cap):
        p = Permutation(rng.permutation(cfg.n))
        if longest_cycle(p) <= cfg.r:
            return p
    raise ResourceLimitError(
        f"rejection sampler used {cap} draws without an acceptance (n={cfg.n}, r={cfg.r})"
    )


def acceptance_rate(n: int, r: int, trials: int, rng: np.random.Generator) -> float:
    """Fraction of uniform permutations whose longest cycle is <= r.

    This is the empirical acceptance rate of the rejection sampler's
    proposal loop and estimates nu(n, r).
    """
    hits = 0
    for _ in range(trials):
        if longest_cycle(Permutation(rng.permutation(n))) <= r:
            hits += 1
    return hits / trials


def sample_cycle_type(n: int, r: int, rng: np.random.Generator, table: WindowTable) -> tuple[int, ...]:
    """Cycle lengths of one uniform draw with all cycles <= r, ascending.

    One stage per cycle, drawn by rejection against two entries of the
    log nu table ``table``, which must cover n; a stage law at m = n that
    does not sum to 1, or a proposal ratio above 1, raises ValueError.
    Uniforms come from ``rng`` in blocks of ``_UNIFORM_BLOCK``, two per
    proposal; the unused rest of the last block is dropped.
    The result is what ``cycle_structure(p).lengths`` gives for the
    permutation drawn.
    """
    _check_nu_table(table, n, r)
    logs = table.log_view()
    top = min(n, r)
    total = np.exp(logs[n - top : n] - (logs[n] + math.log(n))).sum()
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


def sample_sequential(cfg: SamplerConfig, rng: np.random.Generator, table: WindowTable) -> Permutation:
    """One exact uniform draw: a cycle type, then a uniform labelling."""
    return _labelled(sample_cycle_type(cfg.n, cfg.r, rng, table), rng)


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

    rejection gives the type of each accepted permutation, sequential one
    :func:`sample_cycle_type` draw each.  mcmc starts the transposition walk
    from one :func:`sample_cycle_type` draw, which has the exact uniform law,
    runs ``cfg.mcmc_burn_in`` steps, then emits every
    ``cfg.mcmc_thinning``-th state.  Every emitted type therefore has the
    exact law; successive mcmc types are correlated.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    n, r = cfg.n, cfg.r
    if cfg.method == "rejection":
        return [cycle_structure(sample_rejection(cfg, rng)).lengths for _ in range(count)]
    table = count_table(n, r, "double")
    if cfg.method == "sequential":
        return [sample_cycle_type(n, r, rng, table) for _ in range(count)]
    state = sample_cycle_type(n, r, rng, table)
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

    rejection returns its accepted permutations and sequential labels each
    type as it is drawn (:func:`sample_sequential`).  mcmc labels each type
    of :func:`draw_cycle_types` independently and uniformly, after the whole
    chain has run.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if cfg.method == "rejection":
        return [sample_rejection(cfg, rng) for _ in range(count)]
    if cfg.method == "sequential":
        table = count_table(cfg.n, cfg.r, "double")
        return [sample_sequential(cfg, rng, table) for _ in range(count)]
    return [_labelled(lengths, rng) for lengths in draw_cycle_types(cfg, count, rng)]


@dataclass(frozen=True)
class TransitionMatrix:
    """Exact one-step law of the restricted transposition walk.

    ``states`` enumerates the bounded-cycle permutations; ``rows[i]`` maps
    column index -> rational probability (diagonal included when proposals
    get rejected).
    """

    n: int
    r: int
    states: tuple[Permutation, ...]
    rows: tuple[dict[int, Fraction], ...]

    def probability(self, i: int, j: int) -> Fraction:
        return self.rows[i].get(j, Fraction(0))

    def is_symmetric(self) -> bool:
        for i, row in enumerate(self.rows):
            for j, value in row.items():
                if self.rows[j].get(i, Fraction(0)) != value:
                    return False
        return True

    def row_sums(self) -> list[Fraction]:
        return [sum(row.values()) for row in self.rows]

    def uniform_is_stationary(self) -> bool:
        """uniform * P = uniform, checked in exact rationals (column sums 1)."""
        size = len(self.states)
        column_sums = [Fraction(0)] * size
        for row in self.rows:
            for j, value in row.items():
                column_sums[j] += value
        return all(s == 1 for s in column_sums)


def stationarity_matrix(n: int, r: int) -> TransitionMatrix:
    """Build the exact transition matrix over the bounded-cycle state space, n <= 7."""
    if n > STATIONARITY_MAX_N:
        raise ResourceLimitError(f"state space enumeration capped at n <= {STATIONARITY_MAX_N}")
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    states = tuple(permutations_with_bounded_cycles(n, r))
    index = {p: i for i, p in enumerate(states)}
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    total = len(pairs)
    rows = []
    for p in states:
        row: dict[int, Fraction] = {}
        for a, b in pairs:
            q = apply_transposition(p, Transposition(a, b))
            j = index.get(q)
            if j is None:  # proposal left the state space: stay put
                j = index[p]
            row[j] = row.get(j, Fraction(0)) + Fraction(1, total)
        rows.append(row)
    return TransitionMatrix(n, r, states, tuple(rows))
