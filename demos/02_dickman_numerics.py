#!/usr/bin/env python3
"""Dickman-function numerics and how the count fraction tracks it.

rho solves t rho'(t) + rho(t-1) = 0 with rho = 1 on [0, 1]; the fraction of
permutations with no cycle longer than r approaches rho(n/r).  xi(t), the
positive root of e^x = 1 + t x, governs ratios of rho at nearby points.
"""

import math

from shortcycles import (
    DickmanEvaluator,
    count_table,
    gamma_bound_check,
    rho_ratio_check,
    xi,
)

ev = DickmanEvaluator()

print("=" * 72)
print("rho at small arguments (closed forms: 1 on [0,1], 1 - log t on [1,2])")
print("=" * 72)
for t in (0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0):
    closed = ""
    if t <= 1:
        closed = "   (= 1 exactly)"
    elif t <= 2:
        closed = f"   (1 - log t = {1 - math.log(t):.15f})"
    print(f"  rho({t:5.1f}) = {ev.rho(t):.15e}{closed}")

print("\nlog-rho stays usable long after rho underflows a double:")
for t in (50.0, 100.0, 170.0, 199.0):
    print(f"  log rho({t:5.1f}) = {ev.log_rho(t):12.3f}")

print("\n" + "=" * 72)
print("xi(t): positive root of e^x = 1 + t x, bracketed by (log t, 2 log t]")
print("=" * 72)
for t in (1.5, math.e, 10.0, 1e3, 1e6):
    x = xi(t)
    print(f"  xi({t:10.2f}) = {x:.12f}   bracket ({math.log(t):.4f}, {2 * math.log(t):.4f}]")

print("\n" + "=" * 72)
print("Ratio check: rho(t-v)/rho(t) vs exp(v xi(t)) (gap expected ~ v/t)")
print("=" * 72)
for t, v in [(2.0, 1.0), (5.0, 1.0), (10.0, 1.0), (20.0, 1.0), (20.0, 2.0)]:
    rep = rho_ratio_check(t, v, ev)
    print(
        f"  t={t:5.1f} v={v:3.1f}: ratio={rep.ratio:12.6f} predicted={rep.predicted:12.6f} "
        f"relative gap={rep.relative_gap:.3e} (v/t = {v / t:.3f})"
    )

print("\n" + "=" * 72)
print("Upper bound rho(t) <= 1/Gamma(t+1), checked in log space")
print("=" * 72)
for t in (0.0, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0):
    rep = gamma_bound_check(t, ev)
    print(
        f"  t={t:5.1f}: log rho = {rep.log_rho:10.4f}  log bound = {rep.log_bound:10.4f}  "
        f"holds: {rep.holds}"
    )

print("\n" + "=" * 72)
print("How well nu(n, r) tracks rho(u), u = n/r (relative gap and the")
print("observed constant K in gap <= K u log(u+1) / r)")
print("=" * 72)
n = 10**5
print(f"\nn = {n}")
worst_k = 0.0
for u_target in (1.25, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0):
    r = round(n / u_target)
    u = n / r
    nu = math.exp(count_table(n, r, "double").log_view()[n])
    rho_u = ev.rho(u)
    gap = abs(nu / rho_u - 1.0)
    scale = u * math.log(u + 1.0) / r
    worst_k = max(worst_k, gap / scale)
    print(f"  u={u:.4f} r={r:6d}: nu={nu:.8e} rho={rho_u:.8e} gap={gap:.3e} gap/scale={gap / scale:.2f}")
print(f"\nobserved K on this grid: {worst_k:.2f} (the acceptance suite pins K = 5)")
