"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from oracles import detailed_balance_failures, dickman_fixed_step, dickman_fixed_step_at, type_law_pvalue
from shortcycles.counting import (
    brute_force_count,
    brute_force_pmf,
    count_table,
    expected_count,
    joint_pmf,
)
from shortcycles.closedforms import macroscopic_bound, refined_bound
from shortcycles.dickman import gamma_bound_check, xi
from shortcycles.distances import PoissonSpec, tv_exact
from shortcycles.permutations import Permutation, longest_cycle, permutations_with_bounded_cycles
from shortcycles.sampling import SamplerConfig, draw, draw_cycle_types
from shortcycles.stein import term_estimates_exact, verify_closed_forms


@contextmanager
def criterion(num, description):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num}: FAIL - {description}")
        raise
    else:
        print(f"\nACCEPTANCE {num}: PASS - {description} ({time.time() - start:.1f}s)")


def test_criterion_01_exact_count_oracle_equivalence():
    with criterion(1, "recurrence counts equal brute-force enumeration, n <= 8"):
        assert count_table(4, 2).fraction(4) == Fraction(5, 12)
        assert count_table(3, 1).fraction(3) == Fraction(1, 6)
        for n in range(1, 9):
            for r in range(1, n + 1):
                assert count_table(n, r).count(n) == brute_force_count(n, r)


def test_criterion_02_joint_law_oracle_equivalence():
    with criterion(2, "joint law equals brute-force law exactly, n <= 8, d <= r"):
        for n in range(1, 9):
            for r in range(1, n + 1):
                for d in range(1, r + 1):
                    assert joint_pmf(n, r, d).entries == brute_force_pmf(n, r, d).entries, (
                        n,
                        r,
                        d,
                    )


def test_criterion_03_dickman_accuracy(dickman):
    with criterion(3, "rho matches closed form, fixed-step oracle, and the Gamma bound"):
        for j in range(0, 101):
            t = 1.0 + j / 100
            assert dickman.rho(t) == pytest.approx(1 - math.log(t), rel=1e-10)
        panels = dickman_fixed_step(10, 1e-6)
        for j in range(8, 41):
            t = j * 0.25
            assert dickman.rho(t) == pytest.approx(
                dickman_fixed_step_at(panels, t), rel=1e-9
            ), t
        for j in range(0, 101):
            assert gamma_bound_check(j * 0.5, dickman).holds, j * 0.5


def test_criterion_04_xi_correctness():
    with criterion(4, "xi residual and bracket on 10^4 random points in (1, 10^6)"):
        rng = np.random.default_rng(20240817)
        ts = np.exp(rng.uniform(math.log(1.000001), math.log(1e6), size=10**4))
        for t in ts:
            t = float(t)
            x = xi(t)
            assert abs(math.exp(x) - 1 - t * x) <= 1e-12 * (1 + t * x)
            assert math.log(t) < x <= 2 * math.log(t)


def test_criterion_05_event_identity_sweep(tmp_path):
    with criterion(5, "creation identity exact on n <= 7; destruction catalogue emitted"):
        catalogue = []
        creation_mismatches = 0
        checked = 0
        for n in range(2, 8):
            for r in range(2, n + 1):
                report = verify_closed_forms(n, r, 3)
                checked += report.checked
                creation_mismatches += report.mismatch_count("creation")
                for m in report.mismatches:
                    catalogue.append(
                        {
                            "which": m.which,
                            "n": m.n,
                            "r": m.r,
                            "d": m.d,
                            "k": m.k,
                            "witness_permutation": list(m.mapping),
                            "enumerated": str(m.enumerated),
                            "closed_form": str(m.formula),
                        }
                    )
        assert creation_mismatches == 0
        # every catalogued disagreement carries its witness permutation
        for entry in catalogue:
            witness = entry["witness_permutation"]
            assert sorted(witness) == list(range(entry["n"]))
        path = tmp_path / "event_identity_catalogue.json"
        path.write_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "combinations_checked": checked,
                    "creation_mismatches": creation_mismatches,
                    "catalogue": catalogue,
                },
                indent=2,
                sort_keys=True,
            )
        )
        assert path.exists()
        print(f"\n  catalogue: {len(catalogue)} entries over {checked} combinations -> {path}")


def test_criterion_06_exchangeability():
    with criterion(6, "walk on cycle types: rows sum to 1, detailed balance with class sizes, n <= 7"):
        # every ordered pair of one mcmc_step, in exact rationals: (type sigma,
        # type sigma') is exchangeable for a uniform sigma
        for n in range(1, 8):
            for r in range(1, n + 1):
                assert detailed_balance_failures(n, r) == [], (n, r)


def test_criterion_07_sampler_uniformity():
    with criterion(7, "chi-square uniformity on S_6^3 and both samplers against the exact type law on S_8^4"):
        states = list(permutations_with_bounded_cycles(6, 3))
        index = {p: i for i, p in enumerate(states)}
        counts = np.zeros(len(states))
        for row in draw(SamplerConfig(n=6, r=3), 10**5, np.random.default_rng(11)).tolist():
            p = Permutation(row)
            assert longest_cycle(p) <= 3
            counts[index[p]] += 1
        pvalue = stats.chisquare(counts).pvalue
        assert pvalue >= 1e-3, pvalue
        # the chi-square needs independent draws: 40 walk steps apart, the
        # chain's types at n = 8 are close to that (10 steps apart they are
        # not, and p-values below 0.01 come several times too often)
        for method, seed, draws in (("sequential", 33, 10**5), ("mcmc", 44, 25000)):
            cfg = SamplerConfig(n=8, r=4, method=method, mcmc_thinning=40)
            pvalue = type_law_pvalue(draw_cycle_types(cfg, draws, np.random.default_rng(seed)), 8, 4)
            assert pvalue >= 1e-3, (method, pvalue)


def test_criterion_08_stein_dominance():
    with criterion(8, "exact assembled bound dominates exact tv at desk scale"):
        for n in (6, 7, 8):
            for r in (-(-n // 2), n):
                for d in (1, 2):
                    bound = term_estimates_exact(n, r, d)
                    tv = tv_exact(joint_pmf(n, r, d), PoissonSpec.cycle_reference(d))
                    assert float(bound.total) >= tv, (n, r, d, float(bound.total), tv)


def test_criterion_09_expectation_law():
    with criterion(9, "k * E[count of k-cycles] identities, exact rationals"):
        for n in range(1, 31):
            table = count_table(n, n)
            for k in range(1, n + 1):
                value = expected_count(n, k, table)
                assert k * value == 1
                assert value == table.fraction(n - k) / (k * table.fraction(n))
        for n in range(2, 11):
            for r in {n, -(-n // 2)}:
                table = count_table(n, r)
                d = min(r, 5)
                pmf = joint_pmf(n, r, d)
                for k in range(1, d + 1):
                    assert expected_count(n, k, table) == pmf.expectation(k), (n, r, k)


def test_criterion_10_trend_regression():
    with criterion(10, "tv trend non-increasing, below the refined bound; bound comparison"):
        spec = PoissonSpec.cycle_reference(1)
        values = []
        for n in (10, 15, 20, 25, 30):
            values.append(tv_exact(joint_pmf(n, n, 1), spec, precision=60))
        assert all(a >= b for a, b in zip(values, values[1:])), values
        assert values[-1] < refined_bound(30, 30, 1).total
        assert refined_bound(10**6, 10**4, 5).total < macroscopic_bound(10**6, 10**4, 5)
        print("\n  tv values:", ["%.3e" % v for v in values])


def test_criterion_11_asymptotic_tracking(dickman, tmp_path):
    with criterion(11, "double-mode count fraction tracks rho(u) within 5 u log(u+1)/r"):
        n = 10**5
        realized = []
        for u_target in (1.0, 1.5, 2.0, 3.0):
            r = round(n / u_target)
            table = count_table(n, r, "double")
            u = n / r
            nu = math.exp(table.log_view()[n])
            rho_u = dickman.rho(u)
            gap = abs(nu / rho_u - 1.0)
            bound = 5 * u * math.log(u + 1.0) / r
            realized.append(
                {"u_target": u_target, "r": r, "u": u, "nu": nu, "rho": rho_u, "gap": gap, "bound": bound}
            )
            assert gap <= bound, realized[-1]
        fixture = tmp_path / "asymptotic_tracking.json"
        fixture.write_text(json.dumps({"schema_version": 1, "grid": realized}, indent=2, sort_keys=True))
        print("\n  realized ratios:", [(row["u_target"], "%.3e" % row["gap"]) for row in realized])
