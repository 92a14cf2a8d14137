"""Event probabilities for one step of the restricted transposition walk.

Fix k <= d < r and a permutation sigma with no cycle longer than r.  One
chain step proposes a uniform transposition and keeps the result only if no
cycle grows beyond r.  Two events matter for comparing the small-cycle
counts with independent Poissons:

* creation: the number of k-cycles goes up by exactly one while the counts
  of lengths k+1..d are unchanged;
* destruction: the number of k-cycles drops by exactly one, same freeze.

Both probabilities are exactly computable per sigma in two independent
ways, and both depend on sigma only through its cycle type, so every
function here takes the cycle lengths (as ``cycle_structure(p).lengths``
gives them) rather than a permutation.  The enumeration route
(:func:`event_tally`) classifies the outcome of each of the n(n-1)/2
transpositions, grouped by effect.  The closed-form route reads them off
the cycle lengths:

  P[create] = 2/(n(n-1)) * sum_a [ 1{L_a > d+k} + 1{d < L_a < 2k} ]
            + 1/(n(n-1)) * sum_{a != b} 1{cycle_a != cycle_b} 1{L_a + L_b = k}

  P[destroy] = 2/(n(n-1)) * sum_{a != b} 1{L_a = k} *
                   ( 1{L_b > d} 1{L_b <= r-k} + 1{d-k < L_b < k} )
             + (k-1)/(n(n-1)) * sum_a 1{L_a = k}

where L_a is the length of the cycle containing element a.  A splitting
transposition inside a cycle of length L makes parts (j, L-j); it creates a
k-cycle net +1 only when L > d+k or d < L < 2k (L = 2k makes two).  A merge
of different cycles with L_a + L_b = k always lands inside the length
budget because k < r.  Destruction merges a k-cycle with a cycle whose
length stays acceptable and out of the frozen window, or splits the k-cycle
itself (k-1 partners per element).

The creation identity is exact for every valid (k, d, r).  The destruction
display has one finite-size blind spot: its small-partner window d-k < L_b
< k ignores the length budget, so when r <= 2k-2 it counts merges the walk
actually rejects.  Exhaustive sweeps catalogue exactly those cases rather
than patching the formula silently: one record per (cycle type, d, k), with
the type's ``Permutation.from_cycle_type`` as witness and its class size.

``destruction_probability_rearranged`` evaluates a complement-substituted
variant whose leading term is the raw k-cycle count; it is retained because
it does NOT agree with enumeration (the leading term only matches after
scaling by n/2k), and the comparison report catalogues the gap with witness
permutations instead of asserting either way.

The assembled upper bound on the total-variation distance from the product
Poisson law is

  sum_k (alpha_k / 2) * ( E|lambda_k - c_k P[create_k]|
                          + E|W_k - c_k P[destroy_k]| ),

with lambda_k = 1/k, c_k = n/(2k) and alpha_k = min(1, 1.4/sqrt(lambda_k)).
The damping factor is identically 1 here: 1.4/sqrt(lambda_k) = 1.4 sqrt(k)
and 1.4^2 * k >= 1 for every k >= 1, so the code drops it.  Both
expectations are over the cycle type, so one routine evaluates the exact
terms of a single type; the exact estimate weights it by class size over
every type, the Monte Carlo estimate averages it over sampled types.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

import numpy as np

from .counting import support_cap
from .errors import ResourceLimitError
from .permutations import Permutation, capped_type_count, class_size, cycle_types
from .sampling import SamplerConfig, draw_cycle_types


def _transposition_effects(lengths: tuple[int, ...], r: int) -> dict[tuple[tuple[int, ...], tuple[int, ...]], int]:
    """(created lengths, destroyed lengths) -> number of transpositions with that effect.

    Depends on the permutation only through its cycle type.  A cycle of
    length L splits into parts (j, L-j) under exactly L unordered pairs per
    distance class j < L/2 and L/2 pairs for j = L/2.  Two cycles of lengths
    a and b merge under a*b pairs; merges longer than r are rejected and
    have no effect, so they are left out (they still count towards the
    n(n-1)/2 proposals).
    """
    hist = Counter(lengths)
    effects: Counter = Counter()
    for length, count in hist.items():
        for j in range(1, length // 2 + 1):
            pairs = length // 2 if 2 * j == length else length
            effects[((j, length - j), (length,))] += count * pairs
    distinct = sorted(hist)
    for i, la in enumerate(distinct):
        for lb in distinct[i:]:
            if la + lb > r:
                break
            cycle_pairs = hist[la] * (hist[la] - 1) // 2 if la == lb else hist[la] * hist[lb]
            if cycle_pairs:
                effects[((la + lb,), (la, lb))] += cycle_pairs * la * lb
    return effects


def _classify(created: tuple[int, ...], destroyed: tuple[int, ...], k: int, d: int) -> str | None:
    delta_k = created.count(k) - destroyed.count(k)
    if delta_k not in (1, -1):
        return None
    for j in range(k + 1, d + 1):
        if created.count(j) != destroyed.count(j):
            return None
    return "increase" if delta_k == 1 else "decrease"


def event_tally(
    lengths: tuple[int, ...], r: int, ds: Iterable[int]
) -> dict[tuple[int, int], tuple[Fraction, Fraction]]:
    """(P[create], P[destroy]) of a k-cycle for every d in ``ds`` and k <= d.

    Keyed by (d, k).  ``lengths`` are the cycle lengths of a permutation.
    Classifies the outcome of each of the n(n-1)/2 transpositions of a
    permutation with this cycle type (rejected proposals included); the
    enumeration is grouped by effect, so it costs O(n) rather than O(n^2)
    per (d, k).
    """
    n = sum(lengths)
    if n < 2:
        raise ValueError("a transposition needs n >= 2")
    _check_longest(lengths, r)
    total = n * (n - 1) // 2
    effects = _transposition_effects(lengths, r)
    out = {}
    for d in ds:
        for k in range(1, d + 1):
            up = down = 0
            for (created, destroyed), pairs in effects.items():
                outcome = _classify(created, destroyed, k, d)
                if outcome == "increase":
                    up += pairs
                elif outcome == "decrease":
                    down += pairs
            out[(d, k)] = (Fraction(up, total), Fraction(down, total))
    return out


def _validate_kdr(n: int, k: int, d: int, r: int) -> None:
    if not 1 <= k <= d < r <= n:
        raise ValueError(f"need 1 <= k <= d < r <= n, got k={k}, d={d}, r={r}, n={n}")


def _check_longest(lengths: tuple[int, ...], r: int) -> None:
    if max(lengths) > r:
        raise ValueError(f"cycle type has a cycle longer than r={r}")


def creation_probability(lengths: tuple[int, ...], k: int, d: int) -> Fraction:
    """Closed form for the creation event, read off the cycle lengths."""
    n = sum(lengths)
    if not 1 <= k <= d:
        raise ValueError(f"need 1 <= k <= d, got k={k}, d={d}")
    hist = Counter(lengths)
    elements = {length: length * count for length, count in hist.items()}
    split = sum(e for length, e in elements.items() if length > d + k or d < length < 2 * k)
    merge_ordered = 0
    for j in range(1, k):
        ej = elements.get(j, 0)
        other = k - j
        if other == j:
            merge_ordered += ej * (ej - 1) - hist.get(j, 0) * j * (j - 1)
        else:
            merge_ordered += ej * elements.get(other, 0)
    return Fraction(2 * split + merge_ordered, n * (n - 1))


def destruction_probability(lengths: tuple[int, ...], k: int, d: int, r: int) -> Fraction:
    """Closed form for the destruction event, read off the cycle lengths."""
    n = sum(lengths)
    _validate_kdr(n, k, d, r)
    _check_longest(lengths, r)
    hist = Counter(lengths)
    k_elements = k * hist.get(k, 0)
    partner_weight = 0
    for length, count in hist.items():
        if (d < length <= r - k) or (d - k < length < k):
            partner_weight += length * count
    return Fraction(2 * k_elements * partner_weight + (k - 1) * k_elements, n * (n - 1))


def destruction_probability_rearranged(lengths: tuple[int, ...], k: int, d: int, r: int) -> Fraction:
    """Complement-substituted variant with the raw count as leading term, read off the cycle lengths.

    Not an identity: enumeration sweeps catalogue its deviation (the leading
    term matches the event probability only after the n/2k scaling).  Kept
    so reports can show the gap explicitly.
    """
    n = sum(lengths)
    _validate_kdr(n, k, d, r)
    _check_longest(lengths, r)
    hist = Counter(lengths)
    w_k = hist.get(k, 0)
    k_elements = k * w_k

    def g(length: int) -> int:
        value = 0
        if length <= d:
            value -= 1
        if length > r - k:
            value -= 1
        if d - k < length < k:
            value += 1
        return value

    total_g = sum(length * count * g(length) for length, count in hist.items())
    inner = total_g - g(k)  # the summation excludes b = a
    return (
        Fraction(w_k)
        - Fraction(2 * k_elements * inner, n * (n - 1))
        + Fraction((k - 1) * k_elements, n * (n - 1))
    )


@dataclass(frozen=True)
class ClosedFormMismatch:
    n: int
    r: int
    d: int
    k: int
    which: str  # "creation" | "destruction" | "destruction_rearranged"
    mapping: tuple[int, ...]  # witness: Permutation.from_cycle_type of the cycle type
    enumerated: Fraction
    formula: Fraction
    class_size: int  # permutations of that cycle type, all sharing the verdict


@dataclass
class ClosedFormReport:
    """Exhaustive closed-form vs enumeration comparison over a state space."""

    n: int
    r: int
    d_max: int
    checked: int = 0
    mismatches: list[ClosedFormMismatch] = field(default_factory=list)

    def mismatch_count(self, which: str) -> int:
        return sum(m.class_size for m in self.mismatches if m.which == which)


def _weighted_cycle_types(n: int, r: int):
    """(lengths, class size) of every cycle type of n with parts <= r, at most SHORTCYCLES_SUPPORT_CAP."""
    cap = support_cap()
    types, exact = capped_type_count(n, r, lambda ways: ways[n], cap)
    if types > cap:
        bound = "" if exact else "at least "
        raise ResourceLimitError(f"{bound}{types} cycle types of n={n} with parts <= {r} exceed the cap of {cap}")
    return ((lengths, class_size(lengths)) for lengths in cycle_types(n, r))


def verify_closed_forms(n: int, r: int, d_max: int) -> ClosedFormReport:
    """Compare the closed forms against enumeration over the bounded-cycle set.

    Covers all d <= min(d_max, r-1) and k <= d.  Both sides depend on a
    permutation only through its cycle type, so each type is checked once;
    ``checked`` and ``mismatch_count`` weight it by its class size.
    """
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    report = ClosedFormReport(n, r, d_max)
    ds = range(1, min(d_max, r - 1) + 1)
    for lengths, size in _weighted_cycle_types(n, r):
        report.checked += size * sum(ds)
        witness = Permutation.from_cycle_type(lengths).mapping
        report.mismatches.extend(
            ClosedFormMismatch(n, r, d, k, which, witness, enumerated, formula, size)
            for d, k, which, enumerated, formula in _closed_form_gaps(lengths, r, ds)
        )
    return report


def _closed_form_gaps(lengths: tuple[int, ...], r: int, ds: range):
    """(d, k, which, enumerated, formula) for every closed form that misses the tally."""
    gaps = []
    tally = event_tally(lengths, r, ds) if ds else {}
    for (d, k), (enum_up, enum_down) in tally.items():
        formula_up = creation_probability(lengths, k, d)
        if formula_up != enum_up:
            gaps.append((d, k, "creation", enum_up, formula_up))
        formula_down = destruction_probability(lengths, k, d, r)
        if formula_down != enum_down:
            gaps.append((d, k, "destruction", enum_down, formula_down))
        variant = destruction_probability_rearranged(lengths, k, d, r)
        if variant != enum_down:
            gaps.append((d, k, "destruction_rearranged", enum_down, variant))
    return gaps


@dataclass(frozen=True)
class TermRow:
    k: int
    creation_term: Fraction | float
    destruction_term: Fraction | float
    creation_se: float | None = None
    destruction_se: float | None = None


@dataclass(frozen=True)
class TermEstimates:
    """Per-length terms of the assembled total-variation upper bound."""

    n: int
    r: int
    d: int
    mode: str  # exact | mc
    rows: tuple[TermRow, ...]
    total: Fraction | float
    sample_count: int | None = None


def _type_terms(lengths: tuple[int, ...], r: int, d: int) -> list[tuple[Fraction, Fraction]]:
    """(|1/k - c_k P[create_k]|, |W_k - c_k P[destroy_k]|) for k = 1..d, exact, c_k = n/(2k).

    P[create] is the closed form.  P[destroy] is the closed form where it is
    an identity (r >= 2k-1) and the enumeration tally elsewhere, because the
    display over-counts merges the walk rejects when r <= 2k-2.
    """
    n = sum(lengths)
    tally = None
    terms = []
    for k in range(1, d + 1):
        c_k = Fraction(n, 2 * k)
        p_up = creation_probability(lengths, k, d)
        if r >= 2 * k - 1:
            p_down = destruction_probability(lengths, k, d, r)
        else:
            tally = tally or event_tally(lengths, r, (d,))
            p_down = tally[(d, k)][1]
        terms.append((abs(Fraction(1, k) - c_k * p_up), abs(lengths.count(k) - c_k * p_down)))
    return terms


def _assemble(n: int, r: int, d: int, mode: str, means, ses=None, sample_count: int | None = None) -> TermEstimates:
    """Rows from per-length (creation, destruction) means and standard errors,
    and the bound sum_k (alpha_k/2) (creation + destruction) with alpha_k = 1."""
    ses = [(None, None)] * d if ses is None else ses
    rows = tuple(
        TermRow(k, up, down, se_up, se_down)
        for k, ((up, down), (se_up, se_down)) in enumerate(zip(means, ses), start=1)
    )
    total = sum((row.creation_term + row.destruction_term) / 2 for row in rows)
    return TermEstimates(n, r, d, mode, rows, total, sample_count)


def term_estimates_exact(n: int, r: int, d: int) -> TermEstimates:
    """Exact expectations over the whole bounded-cycle set.

    Every summand depends on a permutation only through its cycle type, so
    the sum runs over partitions of n with parts <= r, one per type,
    weighted by the class size n!/prod_j j^{c_j} c_j!.  The number of cycle
    types is capped by SHORTCYCLES_SUPPORT_CAP.
    """
    if not 1 <= d < r <= n:
        raise ValueError(f"need 1 <= d < r <= n, got d={d}, r={r}, n={n}")
    sums = [[Fraction(0), Fraction(0)] for _ in range(d)]
    count = 0
    for lengths, weight in _weighted_cycle_types(n, r):
        for acc, (up, down) in zip(sums, _type_terms(lengths, r, d)):
            acc[0] += weight * up
            acc[1] += weight * down
        count += weight
    return _assemble(n, r, d, "exact", [(up / count, down / count) for up, down in sums])


def term_estimates_mc(
    n: int,
    r: int,
    d: int,
    sample_count: int,
    rng: np.random.Generator,
) -> TermEstimates:
    """Mean and standard error of the exact per-type terms over sampled cycle types.

    Sampling noise enters only through the choice of cycle types, and the
    standard errors cover only the spread of the sampled types' terms.
    Where destruction terms are heavy-tailed, at moderate u, they understate
    the spread from run to run: at (n, r, d) = (2000, 1000, 3) with 500
    samples the k = 1 destruction term read 2.73e-3 +- 1.0e-3 on one random
    stream and 8.57e-3 +- 3.6e-3 on another.  The exact terms of
    :func:`term_estimates_exact` are the reference.
    """
    if sample_count < 2:
        raise ValueError(f"need at least 2 samples for a standard error, got {sample_count}")
    if not 1 <= d < r <= n:
        raise ValueError(f"need 1 <= d < r <= n, got d={d}, r={r}, n={n}")
    types = draw_cycle_types(SamplerConfig(n, r), sample_count, rng)
    terms = np.array([_type_terms(lengths, r, d) for lengths in types], dtype=float)
    means = terms.mean(axis=0)
    ses = terms.std(axis=0, ddof=1) / np.sqrt(sample_count)
    return _assemble(n, r, d, "mc", means.tolist(), ses.tolist(), sample_count)
