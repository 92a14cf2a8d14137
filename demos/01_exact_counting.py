#!/usr/bin/env python3
"""Exact counting of permutations whose cycles are all short.

Walks through the count tables, the cycle-length law of a fixed element,
the joint law of small-cycle counts, and the expectation identities, with
brute-force enumeration cross-checks where feasible.
"""

from fractions import Fraction

from shortcycles import (
    brute_force_count,
    brute_force_pmf,
    count_table,
    expected_count,
    first_element_cycle_length_pmf,
    joint_pmf,
)

print("=" * 72)
print("Count tables: nu(m, r) = fraction of permutations with cycles <= r")
print("=" * 72)

table = count_table(10, 3)
print("\n m   |set|            nu(m, 3)")
for m in range(11):
    nu = table.fraction(m)
    print(f"{m:3d}  {table.count(m):12d}    {nu} = {float(nu):.6f}")

print("\nCross-check against full enumeration (n <= 8):")
for n, r in [(4, 2), (6, 3), (8, 4)]:
    rec = count_table(n, r).count(n)
    brute = brute_force_count(n, r)
    print(f"  n={n} r={r}: recurrence {rec}, brute force {brute}, equal: {rec == brute}")

print("\n" + "=" * 72)
print("Cycle length of a fixed element")
print("=" * 72)
n, r = 8, 4
pmf = first_element_cycle_length_pmf(n, count_table(n, r))
print(f"\nn={n}, r={r}:  P[length = k] = nu(n-k, r) / (n nu(n, r))")
for k, p in enumerate(pmf, start=1):
    print(f"  k={k}: {p} = {float(p):.6f}")
print(f"  total: {sum(pmf)}")
print("With r = n the law is exactly uniform:")
print("  ", first_element_cycle_length_pmf(5, count_table(5, 5)))

print("\n" + "=" * 72)
print("Joint law of (counts of 1-cycles, ..., d-cycles)")
print("=" * 72)
n, r, d = 6, 3, 2
law = joint_pmf(n, r, d)
oracle = brute_force_pmf(n, r, d)
print(f"\nn={n}, r={r}, d={d}: {len(law.entries)} support points")
for cv in law.support():
    print(f"  counts={cv.counts}: {law.entries[cv]}  (brute force {oracle.probability(cv)})")
print(f"identical to enumeration: {law.entries == oracle.entries}")
print(f"total mass: {law.total_mass}")

print("\n" + "=" * 72)
print("Expected number of k-cycles: nu(n-k, r) / (k nu(n, r))")
print("=" * 72)
n = 12
print(f"\nUnrestricted (r = n = {n}) recovers exactly 1/k:")
table = count_table(n, n)
for k in (1, 2, 3, 4):
    print(f"  k={k}: {expected_count(n, k, table)}")
n, r = 10, 4
table = count_table(n, r)
law = joint_pmf(n, r, 4)
print(f"\nRestricted n={n}, r={r}: closed form vs expectation under the joint law")
for k in (1, 2, 3, 4):
    closed = expected_count(n, k, table)
    from_law = law.expectation(k)
    print(f"  k={k}: {closed} = {float(closed):.6f}   joint-law route: {from_law}  equal: {closed == from_law}")
