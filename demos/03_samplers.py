#!/usr/bin/env python3
"""Two exact-uniform samplers for bounded-cycle permutations, both on cycle types.

Sequential (cycle-by-cycle with the exact length law) and the restricted
random-transposition walk on cycle types, started from one sequential draw
so that every state it emits is exactly uniform.  Both are compared with
the exact cycle-type law class_size / (n! nu(n, r)), and the walk's one-step
law is checked for detailed balance in exact integers.  The chi-square
checks here are informal versions of what the test suite pins down.
"""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
from scipy import stats

from shortcycles import (
    Permutation,
    SamplerConfig,
    class_size,
    count_table,
    cycle_types,
    draw,
    draw_cycle_types,
    mcmc_step,
    permutations_with_bounded_cycles,
)

print("=" * 72)
print("Both samplers against the exact cycle-type law (n=8, r=4)")
print("=" * 72)
n, r, draws = 8, 4, 20000
nu = count_table(n, r).fraction(n)
types = list(cycle_types(n, r))
law = {t: Fraction(class_size(t), math.factorial(n)) / nu for t in types}
methods = ("sequential", "mcmc")
tallies = {}
for method in methods:
    # 40 walk steps between outputs keep successive mcmc types nearly independent
    cfg = SamplerConfig(n=n, r=r, method=method, mcmc_thinning=40)
    tallies[method] = Counter(draw_cycle_types(cfg, draws, np.random.default_rng(2025)))
print(f"  {'cycle type':18s} {'exact':>10s}" + "".join(f" {m:>12s}" for m in methods))
for t in types:
    label = " ".join(map(str, t))
    print(f"  {label:18s} {float(law[t]):10.5f}" + "".join(f" {tallies[m][t] / draws:12.5f}" for m in methods))
expected = np.array([float(law[t]) * draws for t in types])
for method in methods:
    observed = np.array([tallies[method][t] for t in types])
    print(f"  {method} chi-square p-value against the exact law: {stats.chisquare(observed, expected).pvalue:.4f}")

print("\n" + "=" * 72)
print("Sequential sampler: labelled draws of S_6^3 against the enumerated uniform law")
print("=" * 72)
states = list(permutations_with_bounded_cycles(6, 3))
index = {p: i for i, p in enumerate(states)}
counts = np.zeros(len(states))
for row in draw(SamplerConfig(n=6, r=3), 50000, np.random.default_rng(42)).tolist():
    counts[index[Permutation(row)]] += 1
print(f"  {len(states)} states, 50000 draws, expected {50000 / len(states):.1f} per state")
print(f"  min count {counts.min():.0f}, max count {counts.max():.0f}")
print(f"  chi-square p-value: {stats.chisquare(counts).pvalue:.4f}")


class PairIndex:
    """Feeds mcmc_step one chosen ordered-pair draw instead of a random one."""

    def __init__(self, index):
        self.index = index

    def integers(self, high):
        return self.index


def walk_counts(n, r):
    """Type -> Counter of next types over all n(n-1) ordered-pair draws of one step."""
    return {t: Counter(mcmc_step(t, r, PairIndex(i)) for i in range(n * (n - 1))) for t in cycle_types(n, r)}


print("\n" + "=" * 72)
print("Restricted transposition walk on cycle types: exact detailed balance")
print("=" * 72)
walk = walk_counts(4, 2)
print("  one-step law at n=4, r=2 (12 ordered pairs):")
for t, row in walk.items():
    moves = ", ".join(f"{' '.join(map(str, m))}: {Fraction(c, 12)}" for m, c in row.items())
    print(f"    {' '.join(map(str, t)):8s} (class size {class_size(t)}) -> {moves}")
checked = 0
for n in range(2, 8):
    for r in range(1, n + 1):
        walk = walk_counts(n, r)
        assert all(m in walk for row in walk.values() for m in row)
        for t, row in walk.items():
            for m, c in row.items():
                assert class_size(t) * c == class_size(m) * walk[m][t], (n, r, t, m)
                checked += 1
print(f"  class_size(l) P(l -> m) = class_size(m) P(m -> l) on all {checked} moves, 2 <= n <= 7")
# the chain starts stationary, so it needs no burn-in; thinning only
# weakens the correlation between successive outputs
cfg = SamplerConfig(n=5, r=3, method="mcmc", mcmc_thinning=15)
chain_states = list(permutations_with_bounded_cycles(5, 3))
chain_index = {p: i for i, p in enumerate(chain_states)}
counts = np.zeros(len(chain_states))
for row in draw(cfg, 30000, np.random.default_rng(9)).tolist():
    counts[chain_index[Permutation(row)]] += 1
print(f"  labelled thinned-chain chi-square p-value on S_5^3: {stats.chisquare(counts).pvalue:.4f}")
