#!/usr/bin/env python3
"""Three exact-uniform samplers for bounded-cycle permutations.

Rejection (accept when the longest cycle fits), sequential (cycle-by-cycle
with the exact length law), and the restricted random-transposition walk on
cycle types, started from one sequential draw so that every state it emits
is exactly uniform.  All three agree; the chi-square checks here are
informal versions of what the test suite pins down.
"""

from collections import Counter

import numpy as np
from scipy import stats

from shortcycles import (
    SamplerConfig,
    acceptance_rate,
    count_table,
    draw,
    draw_cycle_types,
    permutations_with_bounded_cycles,
    stationarity_matrix,
)

rng = np.random.default_rng(7)

print("=" * 72)
print("Rejection sampling: the acceptance rate IS the count fraction")
print("=" * 72)
for n, r in [(6, 3), (8, 4), (9, 3)]:
    rate = acceptance_rate(n, r, 30000, rng)
    nu = float(count_table(n, r).fraction(n))
    print(f"  n={n} r={r}: empirical {rate:.4f} vs nu = {nu:.4f}")

print("\n" + "=" * 72)
print("Sequential sampler: draws of S_6^3 against the enumerated uniform law")
print("=" * 72)
states = list(permutations_with_bounded_cycles(6, 3))
index = {p: i for i, p in enumerate(states)}
cfg = SamplerConfig(n=6, r=3, method="sequential")
counts = np.zeros(len(states))
for p in draw(cfg, 50000, np.random.default_rng(42)):
    counts[index[p]] += 1
print(f"  {len(states)} states, 50000 draws, expected {50000 / len(states):.1f} per state")
print(f"  min count {counts.min():.0f}, max count {counts.max():.0f}")
print(f"  chi-square p-value: {stats.chisquare(counts).pvalue:.4f}")

print("\n" + "=" * 72)
print("Restricted transposition walk: symmetric, so uniform is stationary")
print("=" * 72)
matrix = stationarity_matrix(5, 3)
print(f"  state space size {len(matrix.states)} (n=5, r=3)")
print(f"  transition matrix symmetric:      {matrix.is_symmetric()}")
print(f"  rows sum to one (exact rationals): {all(s == 1 for s in matrix.row_sums())}")
print(f"  uniform exactly stationary:        {matrix.uniform_is_stationary()}")
# the chain starts stationary, so it needs no burn-in; thinning only
# weakens the correlation between successive outputs
cfg = SamplerConfig(n=5, r=3, method="mcmc", mcmc_thinning=15)
chain_states = list(permutations_with_bounded_cycles(5, 3))
chain_index = {p: i for i, p in enumerate(chain_states)}
counts = np.zeros(len(chain_states))
for p in draw(cfg, 30000, np.random.default_rng(9)):
    counts[chain_index[p]] += 1
print(f"  thinned-chain chi-square p-value:  {stats.chisquare(counts).pvalue:.4f}")

print("\n" + "=" * 72)
print("Sampler agreement on cycle types (n=8, r=4)")
print("=" * 72)
# one entry point gives the cycle types of every method
methods = ("sequential", "rejection", "mcmc")
tallies = {}
for method in methods:
    cfg = SamplerConfig(n=8, r=4, method=method, mcmc_thinning=10)
    tallies[method] = Counter(draw_cycle_types(cfg, 30000, np.random.default_rng(2025)))
keys = sorted(set().union(*tallies.values()))
print(f"  {'cycle type':24s}" + "".join(f" {m:>12s}" for m in methods))
for key in keys:
    label = " ".join(map(str, key))
    print(f"  {label:24s}" + "".join(f" {tallies[m][key]:12d}" for m in methods))
table = np.array([[tallies[m][k] for k in keys] for m in methods])
print(f"  three-sample chi-square p-value: {stats.chi2_contingency(table).pvalue:.4f}")
