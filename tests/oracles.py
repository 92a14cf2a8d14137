"""Independent reference implementations used only by the tests.

These deliberately avoid the code paths they are meant to check.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
from scipy import stats

from shortcycles.counting import SparsePMF, count_table
from shortcycles.dickman import DickmanEvaluator
from shortcycles.permutations import (
    CycleStructure,
    Permutation,
    class_size,
    cycle_structure,
    cycle_types,
    permutations_with_bounded_cycles,
)
from shortcycles.sampling import mcmc_step
from shortcycles.stein import TermEstimates, TermRow, event_tally


def csv_by_writer(header: list[str], rows) -> bytes:
    """The bytes ``csv.writer`` writes for ``header`` and ``rows``."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode()


def pmf_csv_by_writer(d: int, entries: dict) -> bytes:
    """The CSV bytes of a joint law as ``csv.writer`` writes its sorted dict entries."""
    rows = ([*cv.counts, float(p)] for cv, p in sorted(entries.items(), key=lambda item: item[0].counts))
    return csv_by_writer([f"c_{j}" for j in range(1, d + 1)] + ["probability"], rows)


def law_from_dict(d: int, entries: dict, mode: str) -> SparsePMF:
    """The law with masses ``entries``, a dict keyed by CountsVector in any order, rows sorted, as a ``SparsePMF``."""
    support = sorted(entries, key=lambda cv: cv.counts)
    counts = np.array([cv.counts for cv in support], dtype=np.int64).reshape(len(support), d)
    masses = [entries[cv] for cv in support]
    return SparsePMF(d, counts, masses if mode == "exact" else np.array(masses, dtype=np.float64), mode)


def window_fractions(n_max: int, d: int, r: int) -> list[Fraction]:
    """f(m), m = 0..n_max, for cycle lengths in (d, r], from m f(m) = sum_{d < k <= min(m, r)} f(m - k) in Fractions."""
    values = [Fraction(1)]
    for m in range(1, n_max + 1):
        values.append(sum(values[max(m - r, 0) : max(m - d, 0)], Fraction(0)) / m)
    return values


def nu_table_rows(n: int, r: int) -> list[tuple]:
    """``count --out`` rows of a double table, one entry at a time: m, exp(log nu) by ``math.exp``, log nu."""
    return [(m, math.exp(x), float(x)) for m, x in enumerate(count_table(n, r, "double").log_view())]


def rho_grid_rows(start: float, stop: float, num: int) -> list[tuple]:
    """``dickman rho --grid`` rows, one point at a time: t, rho(t), log rho(t)."""
    ev = DickmanEvaluator()
    return [(float(t), ev.rho(float(t)), ev.log_rho(float(t))) for t in np.linspace(start, stop, num)]


def pmf_printed_by_dict(entries: dict) -> str:
    """``pmf`` stdout without ``--out``: one line per sorted count vector, then its exact mass."""
    lines = []
    for cv, p in sorted(entries.items(), key=lambda item: item[0].counts):
        mass = f"{p.numerator}/{p.denominator}" if isinstance(p, Fraction) else repr(p)
        lines.append(" ".join(map(str, cv.counts)) + " " + mass + "\n")
    return "".join(lines)


def dickman_fixed_step(t_max: int, step: float = 1e-6) -> list[np.ndarray]:
    """Fixed-step trapezoid solution of t*rho(t) = integral_{t-1}^t rho(s) ds.

    Returns one array of rho values per unit panel ([k, k+1] sampled every
    ``step``).  The window integral is recomputed per point from per-panel
    cumulative sums rather than marched forward; marching accumulates
    absolute truncation that swamps rho once it has decayed a few orders of
    magnitude.  With t_j = k + j*step and the trapezoid rule, the identity
    becomes

        rho_j * (t_j - h/2) = A_j + S_j,
        A_j = (integral of the previous panel from t_j - 1 to k),
        S_j = h/2 * rho_0 + h * sum_{0 < i < j} rho_i,

    a one-step linear recurrence in S_j with positive coefficients, solved
    in closed form with cumulated products (no cancellation anywhere except
    inside A_j, where the amplification is bounded by one panel's decay).
    """
    m = round(1.0 / step)
    if abs(m * step - 1.0) > 1e-12:
        raise ValueError("step must divide 1 exactly")
    h = step
    panels = [np.ones(m + 1)]
    for k in range(1, t_max):
        prev = panels[k - 1]
        increments = 0.5 * h * (prev[:-1] + prev[1:])
        prev_cum = np.concatenate([[0.0], np.cumsum(increments)])
        total_prev = prev_cum[-1]
        a_part = total_prev - prev_cum  # integral of prev from t_j - 1 up to k
        t = k + np.arange(m + 1) * h
        denom = t - 0.5 * h
        rho0 = total_prev / k
        values = np.empty(m + 1)
        values[0] = rho0
        # S_{j+1} = S_j * (1 + h/denom_j) + h * A_j / denom_j, S_1 = h/2 * rho_0
        growth = 1.0 + h / denom[1:m]
        forcing = h * a_part[1:m] / denom[1:m]
        cum_growth = np.cumprod(growth)
        s = np.empty(m + 1)
        s[1] = 0.5 * h * rho0
        if m > 1:
            s[2:] = cum_growth * (s[1] + np.cumsum(forcing / cum_growth))
        values[1:] = (a_part[1:] + s[1:]) / denom[1:]
        panels.append(values)
    return panels


def dickman_fixed_step_at(panels: list[np.ndarray], t: float, step: float = 1e-6) -> float:
    """Value at t, which must lie exactly on the grid."""
    k = int(t)
    if t == k:
        if k == len(panels):
            return float(panels[k - 1][-1])
        return float(panels[k][0])
    offset = (t - k) / step
    idx = round(offset)
    if abs(offset - idx) > 1e-6:
        raise ValueError(f"t={t} is not on the step grid")
    return float(panels[k][idx])


def dickman_log_rho_series(points, digits: int = 60, terms: int = 220) -> list[float]:
    """log rho at each point of ``points`` (all in [1, 200]) from the panel
    power series in ``digits``-digit mpmath.

    On [k, k+1], rho(k + 1 - z) = sum_i a_i z^i with
    a_{i+1} = (c_i + i a_i) / ((k + 1)(i + 1)), c the series of the previous
    panel, and a_0 = rho(k + 1) = (1/k) sum_{i >= 1} a_i / (i + 1), a sum of
    positive terms.  No scaling is needed: mpmath's exponent range covers
    rho(200) ~ 1e-700.  Panel [1, 2] converges slowest, like 2^-i, so 220
    terms leave a relative truncation below 1e-68, past 60 digits.
    """
    top = max(1, math.ceil(max(points)))
    with mpmath.workdps(digits):
        panels = [[mpmath.mpf(1)] + [mpmath.mpf(0)] * (terms - 1)]  # rho(1 - z) = 1
        for k in range(1, top):
            c = panels[-1]
            a = [mpmath.mpf(0)] * terms
            for i in range(terms - 1):
                a[i + 1] = (c[i] + i * a[i]) / ((k + 1) * (i + 1))
            a[0] = mpmath.fsum(a[i] / (i + 1) for i in range(1, terms)) / k
            panels.append(a)
        out = []
        for t in points:
            if t <= 1:
                out.append(0.0)
                continue
            k = math.ceil(t) - 1  # t in (k, k+1]
            z = mpmath.mpf(k + 1) - mpmath.mpf(t)
            out.append(float(mpmath.log(mpmath.polyval(panels[k][::-1], z))))
    return out


def xi_oracle(t: float, digits: int = 50) -> float:
    """Positive root of e^x = 1 + t x for t > 1 from ``digits``-digit mpmath.

    Solved as expm1(x) = t x, with t read exactly from the double; near
    t = 1 the two sides agree to about log10(1/(t-1)) digits, which the
    working precision absorbs.
    """
    with mpmath.workdps(digits):
        t = mpmath.mpf(t)
        start = 2 * (t - 1) if t < 2 else 2 * mpmath.log(t)
        return float(mpmath.findroot(lambda x: mpmath.expm1(x) - t * x, start))


def gamma_bound_misses(evaluator: DickmanEvaluator, ts, slack: float = 1e-10) -> list[float]:
    """The t of ``ts`` where rho(t) <= 1/Gamma(t + 1) fails in logs:
    log_rho(t) > -lgamma(t + 1) + slack * max(1, |lgamma(t + 1)|).  The
    default slack is 100 times the panel accuracy."""
    misses = []
    for t in ts:
        log_rho = evaluator.log_rho(t)  # first, so t outside rho's domain meets the evaluator's error
        bound = -math.lgamma(t + 1.0)
        if not log_rho <= bound + slack * max(1.0, abs(bound)):
            misses.append(t)
    return misses


def apply_transposition(p: Permutation, a: int, b: int) -> Permutation:
    """``p`` followed by the swap of ``a != b``: the images a and b trade places.

    Two elements of one cycle of ``p`` split it in two; elements of two
    cycles merge them.
    """
    mapping = list(p.mapping)
    ia, ib = mapping.index(a), mapping.index(b)
    mapping[ia], mapping[ib] = b, a
    return Permutation(mapping)


class _PairIndex:
    """Stands in for the generator of ``mcmc_step``: its one draw is ``index``."""

    def __init__(self, index: int):
        self.index = index

    def integers(self, high: int) -> int:
        return self.index


def type_walk_law(n: int, r: int) -> dict[tuple[int, ...], Counter]:
    """P(lambda -> mu) of one ``mcmc_step``, in Fractions, for every cycle type lambda of n with parts <= r.

    Not an independent oracle: the step runs once for each of its n(n-1)
    ordered-pair draws, so the law is exactly the one the sampler samples.
    """
    draws = max(n * (n - 1), 1)  # with one element the step draws nothing
    law = {}
    for lengths in cycle_types(n, r):
        row = Counter()
        for index in range(draws):
            row[mcmc_step(lengths, r, _PairIndex(index))] += Fraction(1, draws)
        law[lengths] = row
    return law


def detailed_balance_failures(n: int, r: int) -> list[tuple]:
    """Where the walk on cycle types breaks exchangeability, at (n, r).

    (type sigma, type sigma') after one step is exchangeable when sigma is
    uniform on the bounded set, that is when every row of
    :func:`type_walk_law` sums to 1 over the types of n with parts <= r and
    class_size(l) P(l -> m) = class_size(m) P(m -> l).  Returns the rows
    and pairs that fail; empty when both hold.
    """
    law = type_walk_law(n, r)
    failures = [("row", l) for l, row in law.items() if sum(p for m, p in row.items() if m in law) != 1]
    failures += [
        ("balance", l, m)
        for l, row in law.items()
        for m, p in row.items()
        if m not in law or class_size(l) * p != class_size(m) * law[m][l]
    ]
    return failures


def stage_rejection_cycle_types(n: int, r: int, count: int, rng: np.random.Generator, block: int = 64) -> list:
    """``count`` cycle types by one rejection proposal at a time, every stage alike.

    With m elements left a stage proposes k = 1 + floor(top u), top = min(m, r),
    and accepts when a second uniform lies below nu(m - k, r) / nu(m - top, r),
    read as numpy scalars from the double table.  Uniforms come from ``rng`` in
    blocks of ``block``, and a draw drops what is left of its last block.
    """
    logs = count_table(n, r, "double").log_view()
    types = []
    for _ in range(count):
        lengths = []
        uniforms, at = None, block
        m = n
        while m > 0:
            top = min(m, r)
            while True:
                if at == block:
                    uniforms, at = rng.random(block), 0
                k = 1 + int(top * uniforms[at])
                accept = uniforms[at + 1] < math.exp(logs[m - k] - logs[m - top])
                at += 2
                if accept:
                    break
            lengths.append(k)
            m -= k
        types.append(tuple(sorted(lengths)))
    return types


def type_law_pvalue(draws, n: int, r: int) -> float:
    """Chi-square p-value of cycle types ``draws`` against the exact type law
    class_size(type) / (n! nu(n, r)); cells expected below 5 are pooled into one."""
    nu = count_table(n, r).fraction(n)
    types = list(cycle_types(n, r))
    expected = np.array([float(Fraction(class_size(t), math.factorial(n)) / nu) for t in types])
    assert abs(expected.sum() - 1) <= 1e-12
    tally = Counter(draws)
    assert set(tally) <= set(types), set(tally) - set(types)
    observed = np.array([tally[t] for t in types])
    expected *= len(draws)
    rare = expected < 5  # pooled into one cell, where the chi-square approximation holds
    if rare.any():
        observed = np.append(observed[~rare], observed[rare].sum())
        expected = np.append(expected[~rare], expected[rare].sum())
    return stats.chisquare(observed, expected).pvalue


def pair_effects(struct: CycleStructure, r: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(created lengths, destroyed lengths) for each of the n(n-1)/2 transpositions.

    Walks the actual element pairs of the permutation.  Rejected proposals
    (merges that would exceed r) appear as ((), ()); a pair inside a cycle
    of length L at within-cycle distance j splits it into (j, L-j).
    """
    n = struct.n
    cycle_of = [()] * n
    pos = [0] * n
    for cycle in struct.cycles:
        for i, x in enumerate(cycle):
            cycle_of[x] = cycle
            pos[x] = i
    effects = []
    for a in range(n):
        for b in range(a + 1, n):
            la, lb = len(cycle_of[a]), len(cycle_of[b])
            if cycle_of[a] == cycle_of[b]:  # disjoint cycles never compare equal
                j = (pos[b] - pos[a]) % la
                effects.append(((j, la - j), (la,)))
            elif la + lb > r:
                effects.append(((), ()))
            else:
                effects.append(((la + lb,), (la, lb)))
    return effects


def classify(created: tuple[int, ...], destroyed: tuple[int, ...], k: int, d: int) -> str | None:
    """"increase"/"decrease" when the k-cycle count moves by one and k+1..d stay put."""
    delta_k = created.count(k) - destroyed.count(k)
    if delta_k not in (1, -1):
        return None
    for j in range(k + 1, d + 1):
        if created.count(j) != destroyed.count(j):
            return None
    return "increase" if delta_k == 1 else "decrease"


def enumerated_events(p: Permutation, r: int, k: int, d: int) -> tuple[Fraction, Fraction]:
    """(P[create], P[destroy]) of a k-cycle for ``p``, pair by pair."""
    effects = pair_effects(cycle_structure(p), r)
    outcomes = [classify(created, destroyed, k, d) for created, destroyed in effects]
    total = len(effects)
    return Fraction(outcomes.count("increase"), total), Fraction(outcomes.count("decrease"), total)


def _assembled(n: int, r: int, d: int, sums_up, sums_down, count) -> TermEstimates:
    rows = tuple(TermRow(k, sums_up[k - 1] / count, sums_down[k - 1] / count) for k in range(1, d + 1))
    total_bound = sum(Fraction(1, 2) * (row.creation_term + row.destruction_term) for row in rows)
    return TermEstimates(n, r, d, "exact", rows, total_bound)


def term_estimates_per_permutation(n: int, r: int, d: int) -> TermEstimates:
    """Exact bound terms as an average over every permutation with cycles <= r."""
    sums_up = [Fraction(0)] * d
    sums_down = [Fraction(0)] * d
    count = 0
    for p in permutations_with_bounded_cycles(n, r):
        struct = cycle_structure(p)
        effects = pair_effects(struct, r)
        total = len(effects)
        for k in range(1, d + 1):
            up = down = 0
            for created, destroyed in effects:
                outcome = classify(created, destroyed, k, d)
                if outcome == "increase":
                    up += 1
                elif outcome == "decrease":
                    down += 1
            c_k = Fraction(n, 2 * k)
            sums_up[k - 1] += abs(Fraction(1, k) - c_k * Fraction(up, total))
            sums_down[k - 1] += abs(struct.lengths.count(k) - c_k * Fraction(down, total))
        count += 1
    return _assembled(n, r, d, sums_up, sums_down, count)


def term_estimates_by_tally(n: int, r: int, d: int) -> TermEstimates:
    """Exact bound terms from the enumeration tally of every cycle type, weighted by class size.

    Uses no closed form: both event probabilities come from ``event_tally``.
    """
    sums_up = [Fraction(0)] * d
    sums_down = [Fraction(0)] * d
    count = 0
    for lengths in cycle_types(n, r):
        weight = class_size(lengths)
        tally = event_tally(lengths, r, (d,))
        for k in range(1, d + 1):
            p_up, p_down = tally[(d, k)]
            c_k = Fraction(n, 2 * k)
            sums_up[k - 1] += weight * abs(Fraction(1, k) - c_k * p_up)
            sums_down[k - 1] += weight * abs(lengths.count(k) - c_k * p_down)
        count += weight
    return _assembled(n, r, d, sums_up, sums_down, count)
