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
public function here takes the cycle lengths (as ``cycle_structure(p).lengths``
gives them), checked by ``cycle_type_size``.  The enumeration route
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
< k ignores the length budget L_b <= r-k, so when r <= 2k-2 it counts
merges the walk actually rejects.  Cut at the budget, every partner length at
most r-k, it is an identity for every (k, d, r); :func:`destruction_probability`
and the bound terms below read it in that form.  The display as printed is
catalogued, not patched: exhaustive sweeps record exactly those cases, one
record per (cycle type, d, k), with the type's ``Permutation.from_cycle_type``
as witness and its class size.  The catalogue, not a public function, also
carries a complement-substituted variant whose leading term is the raw
k-cycle count; it is no identity, and the sweeps record its gap.

The assembled upper bound on the total-variation distance from the product
Poisson law is

  sum_k (alpha_k / 2) * ( E|lambda_k - c_k P[create_k]|
                          + E|W_k - c_k P[destroy_k]| ),

with lambda_k = 1/k, c_k = n/(2k) and alpha_k = min(1, 1.4/sqrt(lambda_k)).
The damping factor is identically 1 here: 1.4/sqrt(lambda_k) = 1.4 sqrt(k)
and 1.4^2 * k >= 1 for every k >= 1, so the code drops it.  Both
expectations are over the cycle type, so one routine evaluates the exact
terms of a single type; the exact estimate weights it by class size over
each type of ``cycle_types``, the Monte Carlo one averages sampled types.

Every per-type quantity is an integer numerator over a denominator known in
advance, so no gcd runs inside the module.  The event probabilities are
numerators over n(n-1), read off the type's element counts (for the tally,
twice its pair count out of the n(n-1)/2 transpositions).  The bound terms
are numerators over 2k(n-1): creation |2(n-1) - U| and destruction
|2k(n-1) W_k - D| for probabilities U/(n(n-1)) and D/(n(n-1)).  Fractions
are built only where values leave the module: the public probabilities
(reduced), the exact terms (one per term, after summing weight times
numerator in ints), and mismatch records; the Monte Carlo terms divide int
by int, which is correctly rounded as float(Fraction) is.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Iterable, NamedTuple

import numpy as np

from .errors import require_sizes
from .permutations import Permutation, class_size, cycle_type_size, cycle_types
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


def _pair_counts(lengths: tuple[int, ...], r: int, ds: Iterable[int]) -> dict[tuple[int, int], tuple[int, int]]:
    """(transpositions that create a k-cycle, transpositions that destroy one) for every d in ``ds`` and k <= d.

    The integer tally behind :func:`event_tally`, keyed by (d, k); both
    counts are out of the n(n-1)/2 transpositions.  An effect counts for
    (d, k) when it changes the number of k-cycles by exactly +-1 and leaves
    the numbers of (k+1)- to d-cycles alone, that is when d lies below the
    next length above k whose number it changes.
    """
    ds = list(dict.fromkeys(ds))
    out = {(d, k): [0, 0] for d in ds for k in range(1, d + 1)}
    for (created, destroyed), pairs in _transposition_effects(lengths, r).items():
        net = Counter(created)
        net.subtract(destroyed)
        changed = sorted(j for j, delta in net.items() if delta)
        for i, k in enumerate(changed):
            if net[k] in (1, -1):
                side = 0 if net[k] == 1 else 1
                above = changed[i + 1] if i + 1 < len(changed) else math.inf
                for d in ds:
                    if k <= d < above:
                        out[(d, k)][side] += pairs
    return {key: (up, down) for key, (up, down) in out.items()}


def event_tally(
    lengths: tuple[int, ...], r: int, ds: Iterable[int]
) -> dict[tuple[int, int], tuple[Fraction, Fraction]]:
    """(P[create], P[destroy]) of a k-cycle for every d in ``ds`` and k <= d.

    Keyed by (d, k).  ``lengths`` are the cycle lengths of a permutation.
    Classifies the outcome of each of the n(n-1)/2 transpositions of a
    permutation with this cycle type (rejected proposals included); the
    enumeration is grouped by effect, so it costs O(n) rather than O(n^2)
    per (d, k).  Each d must satisfy 1 <= d < r.
    """
    n = _type_size(lengths, r)
    ds = list(ds)
    for d in ds:
        require_sizes("1 <= d < r", d=d, r=r)
    total = n * (n - 1) // 2
    counts = _pair_counts(lengths, r, ds)
    return {key: (Fraction(up, total), Fraction(down, total)) for key, (up, down) in counts.items()}


def _type_size(lengths: tuple[int, ...], r: int | None = None) -> int:
    """``cycle_type_size(lengths, r)``, which must be at least the two elements a transposition needs."""
    n = cycle_type_size(lengths, r)
    if n < 2:
        raise ValueError(f"a transposition needs n >= 2, got the cycle type {lengths}")
    return n


# The closed forms as integer numerators over n(n-1), read off the cycle
# type's element counts {length: elements in cycles of that length}.


def _elements(lengths: tuple[int, ...]) -> dict[int, int]:
    return {length: length * count for length, count in Counter(lengths).items()}


def _creation_numerator(elements: dict[int, int], k: int, d: int) -> int:
    """n(n-1) P[create_k]: twice the splitting elements plus the ordered merge pairs."""
    split = sum(e for length, e in elements.items() if length > d + k or d < length < 2 * k)
    merge_ordered = 0
    for j in range(1, k):
        ej = elements.get(j, 0)
        if ej:
            # two j-cycles when 2j = k: ordered pairs of elements in different cycles
            merge_ordered += ej * (elements.get(k - j, 0) - (j if 2 * j == k else 0))
    return 2 * split + merge_ordered


def _destruction_numerator(elements: dict[int, int], k: int, d: int, r: int, *, printed: bool = False) -> int:
    """n(n-1) P[destroy_k] by the closed-form display with its small-partner
    window cut at the length budget r-k, an identity; ``printed`` leaves the
    window uncut, as the display is printed, for the catalogue."""
    k_elements = elements.get(k, 0)
    if not k_elements:
        return 0
    small_end = k if printed else min(k, r - k + 1)
    partner_weight = sum(e for length, e in elements.items() if (d < length <= r - k) or (d - k < length < small_end))
    return 2 * k_elements * partner_weight + (k - 1) * k_elements


def _rearranged_numerator(elements: dict[int, int], n: int, k: int, d: int, r: int) -> int:
    """n(n-1) times the complement-substituted variant."""
    k_elements = elements.get(k, 0)

    def g(length: int) -> int:
        value = 0
        if length <= d:
            value -= 1
        if length > r - k:
            value -= 1
        if d - k < length < k:
            value += 1
        return value

    inner = sum(e * g(length) for length, e in elements.items()) - g(k)  # the summation excludes b = a
    return k_elements // k * n * (n - 1) - 2 * k_elements * inner + (k - 1) * k_elements


def creation_probability(lengths: tuple[int, ...], k: int, d: int) -> Fraction:
    """Closed form for the creation event, read off the cycle lengths."""
    n = _type_size(lengths)
    require_sizes("1 <= k <= d", k=k, d=d)
    return Fraction(_creation_numerator(_elements(lengths), k, d), n * (n - 1))


def destruction_probability(lengths: tuple[int, ...], k: int, d: int, r: int) -> Fraction:
    """Closed form for the destruction event, read off the cycle lengths: the
    display cut at the length budget, an identity for every valid (k, d, r)."""
    n = _type_size(lengths, r)
    require_sizes("1 <= k <= d < r <= n", k=k, d=d, r=r, n=n)
    return Fraction(_destruction_numerator(_elements(lengths), k, d, r), n * (n - 1))


CLOSED_FORMS = ("creation", "destruction", "destruction_rearranged")  # the closed forms checked against the tally


class ClosedFormMismatch(NamedTuple):
    n: int
    r: int
    d: int
    k: int
    which: str  # one of CLOSED_FORMS
    mapping: tuple[int, ...]  # witness: Permutation.from_cycle_type of the cycle type
    enumerated: Fraction
    formula: Fraction
    class_size: int  # permutations of that cycle type, all sharing the verdict


class ClosedFormReport(NamedTuple):
    """Exhaustive closed-form vs enumeration comparison over a state space."""

    n: int
    r: int
    d_max: int
    checked: int
    mismatches: list[ClosedFormMismatch]

    def mismatch_count(self, which: str) -> int:
        return sum(m.class_size for m in self.mismatches if m.which == which)


def verify_closed_forms(n: int, r: int, d_max: int) -> ClosedFormReport:
    """Compare the closed forms against enumeration over the bounded-cycle set.

    Covers all d <= min(d_max, r-1) and k <= d.  Both sides depend on a
    permutation only through its cycle type, so each type is checked once;
    ``checked`` and ``mismatch_count`` weight it by its class size.
    """
    require_sizes("1 <= r <= n, 1 <= d_max", r=r, n=n, d_max=d_max)
    ds = range(1, min(d_max, r - 1) + 1)
    checked = 0
    mismatches = []
    for lengths in cycle_types(n, r):
        size = class_size(lengths)
        checked += size * sum(ds)
        gaps = _closed_form_gaps(lengths, r, ds)
        if gaps:
            witness = Permutation.from_cycle_type(lengths).mapping
            mismatches.extend(
                ClosedFormMismatch(n, r, d, k, which, witness, enumerated, formula, size)
                for d, k, which, enumerated, formula in gaps
            )
    return ClosedFormReport(n, r, d_max, checked, mismatches)


def _closed_form_gaps(lengths: tuple[int, ...], r: int, ds: range):
    """(d, k, which, enumerated, formula) for every closed form that misses the tally.

    Both sides are compared as numerators over n(n-1); only a mismatch
    becomes a pair of Fractions.
    """
    if not ds:
        return []
    n = sum(lengths)
    scale = n * (n - 1)
    elements = _elements(lengths)
    gaps = []
    for (d, k), (up, down) in _pair_counts(lengths, r, ds).items():
        formulas = (
            _creation_numerator(elements, k, d),
            _destruction_numerator(elements, k, d, r, printed=True),
            _rearranged_numerator(elements, n, k, d, r),
        )
        # the tally counts pairs out of n(n-1)/2
        for which, enumerated, formula in zip(CLOSED_FORMS, (2 * up, 2 * down, 2 * down), formulas):
            if formula != enumerated:
                gaps.append((d, k, which, Fraction(enumerated, scale), Fraction(formula, scale)))
    return gaps


class TermRow(NamedTuple):
    k: int
    creation_term: Fraction | float
    destruction_term: Fraction | float
    creation_se: float | None = None
    destruction_se: float | None = None


class TermEstimates(NamedTuple):
    """Per-length terms of the assembled total-variation upper bound."""

    n: int
    r: int
    d: int
    mode: str  # exact | mc
    rows: tuple[TermRow, ...]
    total: Fraction | float
    sample_count: int | None = None


def _type_terms(lengths: tuple[int, ...], r: int, d: int) -> list[tuple[int, int]]:
    """Numerators over 2k(n-1) of (|1/k - c_k P[create_k]|, |W_k - c_k P[destroy_k]|) for k = 1..d, c_k = n/(2k).

    With P[create_k] = U/(n(n-1)) and P[destroy_k] = D/(n(n-1)) they are
    |2(n-1) - U| and |2k(n-1) W_k - D|.  U is the creation closed form and D
    the destruction display cut at the length budget, both identities for
    every valid (k, d, r).
    """
    n = sum(lengths)
    elements = _elements(lengths)
    terms = []
    for k in range(1, d + 1):
        scale = 2 * k * (n - 1)
        down = _destruction_numerator(elements, k, d, r)
        w_k = elements.get(k, 0) // k
        terms.append((abs(2 * (n - 1) - _creation_numerator(elements, k, d)), abs(scale * w_k - down)))
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
    require_sizes("1 <= d < r <= n", d=d, r=r, n=n)
    sums = [[0, 0] for _ in range(d)]
    count = 0
    for lengths in cycle_types(n, r):
        weight = class_size(lengths)
        for acc, (up, down) in zip(sums, _type_terms(lengths, r, d)):
            acc[0] += weight * up
            acc[1] += weight * down
        count += weight
    scales = [2 * k * (n - 1) * count for k in range(1, d + 1)]
    means = [(Fraction(up, scale), Fraction(down, scale)) for scale, (up, down) in zip(scales, sums)]
    return _assemble(n, r, d, "exact", means)


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
    require_sizes("1 <= d < r <= n", d=d, r=r, n=n)
    types = draw_cycle_types(SamplerConfig(n, r), sample_count, rng)
    # int / int is correctly rounded, as float(Fraction) is
    scales = [2 * k * (n - 1) for k in range(1, d + 1)]
    terms = np.array(
        [[(up / scale, down / scale) for scale, (up, down) in zip(scales, _type_terms(lengths, r, d))]
         for lengths in types]
    )
    means = terms.mean(axis=0)
    ses = terms.std(axis=0, ddof=1) / np.sqrt(sample_count)
    return _assemble(n, r, d, "mc", means.tolist(), ses.tolist(), sample_count)
