"""Write reference.json, the stored answers the benchmark checks outputs against.

    python3 perfbench/make_reference.py

Run from the repository root; it takes under a minute.  Nothing here runs
during a benchmark run.  Each value is derived independently of the code
path the benchmark times, and cross-checked against the library's own
exact oracle where one exists:

* tv: the conditioning identity of Arratia, Barbour and Tavare,
  TV = 1/2 [sum_{s<=n} nu(s,d) |mu(n-s)/nu(n,r) - e^{-H_d}| + 1 - e^{-H_d} sum_{s<=n} nu(s,d)],
  with nu and mu as exact rationals and e^{-H_d} in 50-digit mpmath;
  cross-checked against tv_exact(joint_pmf(..., mode="exact"), precision=50).
* pmf: support size from partition counts; a few masses as exact rationals.
* stein: the library's exhaustive enumeration (the brute-force oracle).
* nu: the window recurrence in 60-digit (400 for the deep tail) decimal
  arithmetic; the deep-tail probe is cross-checked against exact rationals.
* rho: the power series of rho(k + 1 - z) in z, panel by panel, in 60-digit
  mpmath.
"""

from __future__ import annotations

import json
import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import mpmath

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import PROBE_COUNT, RHO_POINTS, SIZES, key  # noqa: E402

from shortcycles import (  # noqa: E402
    PoissonSpec,
    count_table,
    joint_pmf,
    term_estimates_exact,
    tv_exact,
    verify_closed_forms,
)


def window_fractions(n_max: int, lo: int, hi: int) -> list[Fraction]:
    """Fraction of permutations of m elements with every cycle length in (lo, hi]."""
    values = [Fraction(1)]
    window = Fraction(0)
    for m in range(1, n_max + 1):
        if m - lo - 1 >= 0:
            window += values[m - lo - 1]
        if m - hi - 1 >= 0:
            window -= values[m - hi - 1]
        values.append(window / m)
    return values


def nu_decimal(n: int, r: int, digits: int) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = digits
        values = [Decimal(1)]
        window = Decimal(0)
        for m in range(1, n + 1):
            window += values[m - 1]
            if m - r - 1 >= 0:
                window -= values[m - r - 1]
            values.append(window / m)
        return values[n]


def to_mpf(x: Fraction) -> mpmath.mpf:
    return mpmath.mpf(x.numerator) / x.denominator


def tv_identity(n: int, r: int, d: int) -> float:
    nu_d = window_fractions(n, 0, d)
    mu = window_fractions(n, d, r)
    norm = window_fractions(n, 0, r)[n]
    with mpmath.workdps(50):
        q0 = mpmath.exp(-to_mpf(sum(Fraction(1, k) for k in range(1, d + 1))))
        distance = sum(to_mpf(nu_d[s]) * abs(to_mpf(mu[n - s] / norm) - q0) for s in range(n + 1))
        covered = q0 * sum(to_mpf(nu_d[s]) for s in range(n + 1))
        return float((distance + 1 - covered) / 2)


def partitions_by_size(n: int, d: int) -> list[int]:
    """ways[s] = number of (c_1..c_d) with sum_j j c_j = s."""
    ways = [1] + [0] * n
    for part in range(1, d + 1):
        for s in range(part, n + 1):
            ways[s] += ways[s - part]
    return ways


def pmf_reference(n: int, r: int, d: int) -> dict:
    ways = partitions_by_size(n, d)
    mu = window_fractions(n, d, r)
    norm = window_fractions(n, 0, r)[n]
    support = sum(ways[s] for s in range(n + 1) if mu[n - s] != 0)
    entries = {}
    for counts in ([0] * d, [1] + [0] * (d - 1), [2, 1] + [0] * (d - 2)):
        s = sum(j * c for j, c in enumerate(counts, start=1))
        weight = Fraction(1)
        for j, c in enumerate(counts, start=1):
            weight /= j**c * math.factorial(c)
        entries[key(*counts)] = float(weight * mu[n - s] / norm)
    return {"support_points": support, "entries": entries}


def stein_reference(n: int, r: int, d: int) -> dict:
    report = verify_closed_forms(n, r, d)
    terms = term_estimates_exact(n, r, d)
    fraction = lambda x: f"{x.numerator}/{x.denominator}"  # noqa: E731
    return {
        "combinations_checked": report.checked,
        "mismatch_counts": {
            which: report.mismatch_count(which)
            for which in ("creation", "destruction", "destruction_rearranged")
        },
        "terms": [
            {"k": row.k, "creation_term": fraction(row.creation_term), "destruction_term": fraction(row.destruction_term)}
            for row in terms.rows
        ],
        "total_bound": float(terms.total),
    }


def rho_values(points, digits: int = 60, terms: int = 400) -> dict:
    """rho at integer points by the panel power series.

    With f(z) = rho(k+1-z) and g(z) = rho(k-z) = sum c_i z^i on z in [0, 1],
    the delay equation gives (k+1-z) f'(z) = g(z), so
    a_{i+1} = (c_i + i a_i) / ((k+1)(i+1)) for i >= 0, and a_0 follows from
    f(1) = rho(k) = c_0.  The series converges like (k+1)^-i on [0, 1].
    """
    top = int(max(points))
    out = {}
    with mpmath.workdps(digits):
        coeffs = [mpmath.mpf(1)] + [mpmath.mpf(0)] * terms  # rho(1 - z) = 1
        for k in range(1, top):
            a = [mpmath.mpf(0)] * (terms + 1)
            for i in range(terms):
                a[i + 1] = (coeffs[i] + i * a[i]) / ((k + 1) * (i + 1))
            a[0] = coeffs[0] - mpmath.fsum(a[1:])
            coeffs = a
            if float(k + 1) in points:
                out[repr(float(k + 1))] = float(a[0])
    return out


def main() -> int:
    refs: dict = {"tv": {}, "bounds": {}, "pmf": {}, "stein": {}, "nu": {}, "rho": {}}
    for size in SIZES.values():
        ns, rs, ds = size["sweep"]
        triples = [size["tv"]] + [(n, r, d) for n in ns for r in rs if r <= n for d in ds if d <= r]
        for n, r, d in triples:
            value = tv_identity(n, r, d)
            oracle = tv_exact(joint_pmf(n, r, d, mode="exact"), PoissonSpec.cycle_reference(d), precision=50)
            assert abs(value - oracle) <= 1e-13 * value, (n, r, d, value, oracle)
            refs["tv"][key(n, r, d)] = value
            u = n / r
            refined = (2 * d * math.log(d) + 10 * d) / (n - 1) + (d * d + d * u) * math.log(u + 1) / (n * r)
            refs["bounds"][key(n, r, d)] = [refined, r / n + d * math.log(n) / r]
        refs["pmf"][key(*size["pmf"])] = pmf_reference(*size["pmf"])
        refs["stein"][key(*size["stein"])] = stein_reference(*size["stein"])
        refs["nu"][key(*size["count"])] = float(nu_decimal(*size["count"], digits=60))
    n, r = PROBE_COUNT
    deep = nu_decimal(n, r, digits=400)
    exact = count_table(n, r, "exact").fraction(n)
    assert abs(Fraction(deep) / exact - 1) < Fraction(1, 10**30)
    refs["nu"][key(n, r)] = float(deep)
    refs["rho"] = rho_values(RHO_POINTS)
    assert abs(refs["rho"]["2.0"] - (1 - math.log(2))) < 1e-16
    (HERE / "reference.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(json.dumps(refs["nu"]), json.dumps(refs["rho"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
