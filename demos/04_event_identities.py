#!/usr/bin/env python3
"""Per-permutation event probabilities for one step of the restricted walk.

The creation/destruction probabilities of k-cycles (with counts of lengths
k+1..d frozen) admit closed forms over the cycle lengths.  Enumerating
all n(n-1)/2 transpositions gives the same numbers, exhaustively.  One
finite-size blind spot of the printed destruction formula is catalogued
instead of patched: when r <= 2k-2 it counts merges the walk rejects.  Cut
at the length budget r-k, the formula is an identity, and both
destruction_probability and the Stein bound terms read it in that form.
"""

from shortcycles import (
    Permutation,
    creation_probability,
    cycle_structure,
    cycle_type_counts,
    destruction_probability,
    event_tally,
    verify_closed_forms,
)

print("=" * 72)
print("A worked example: sigma = (0 1 2)(3 4) in S_5 with r = 3, k = d = 2")
print("=" * 72)
sigma = Permutation((1, 2, 0, 4, 3))
lengths = cycle_structure(sigma).lengths
p_up, p_down = event_tally(lengths, 3, (2,))[(2, 2)]
print(f"  all {sigma.n * (sigma.n - 1) // 2} transpositions classified:")
print(f"  P[one more 2-cycle]  = {p_up}   (3 splits of the 3-cycle)")
print(f"  P[one fewer 2-cycle] = {p_down}   (the swap inside the 2-cycle)")
print("  the 6 cross pairs would build a 5-cycle > r and are rejected")
print(f"  closed forms: {creation_probability(lengths, 2, 2)}, {destruction_probability(lengths, 2, 2, 3)}")

print("\n" + "=" * 72)
print("Exhaustive verification over whole state spaces")
print("=" * 72)
print("  both sides depend on sigma only through its cycle type, so each type is")
print("  checked once and counts for all the permutations of that type")
for n, r in [(5, 3), (6, 4), (7, 5)]:
    report = verify_closed_forms(n, r, 3)
    print(f"  n={n} r={r}: {report.checked} (sigma, k, d) combinations over {cycle_type_counts(n, r)[n]} cycle types")
    for which in ("creation", "destruction", "destruction_rearranged"):
        records = sum(1 for m in report.mismatches if m.which == which)
        print(f"    {which} mismatches: {report.mismatch_count(which)} permutations in {records} (type, d, k) records")

print("\n" + "=" * 72)
print("The destruction formula's blind spot (r <= 2k-2)")
print("=" * 72)
report = verify_closed_forms(5, 4, 3)
blind = [m for m in report.mismatches if m.which == "destruction"]
print(f"  n=5, r=4, d<=3: {report.mismatch_count('destruction')} mismatches, all at k=3, in {len(blind)} cycle type:")
m = blind[0]
print(f"  witness sigma = {m.mapping} (a 2-cycle and a 3-cycle), one of {m.class_size}")
print(f"  enumeration: {m.enumerated}   closed form: {m.formula}")
print("  the formula counts merging the 3-cycle with the 2-cycle, but the")
print("  resulting 5-cycle would exceed r = 4, so the walk rejects it")
witness = cycle_structure(Permutation(m.mapping)).lengths
cut = destruction_probability(witness, m.k, m.d, 4)
print(f"  cut at the budget r-k = {4 - m.k}: {cut}   enumeration: {m.enumerated}   agree: {cut == m.enumerated}")
records = [rec for rec in verify_closed_forms(7, 5, 4).mismatches if rec.which == "destruction"]
agree = sum(
    destruction_probability(cycle_structure(Permutation(rec.mapping)).lengths, rec.k, rec.d, 5) == rec.enumerated
    for rec in records
)
print(f"  n=7, r=5, d<=4: the cut form matches enumeration on {agree} of {len(records)} blind-spot records")
print("  the Stein bound terms read the display in this cut form, an identity for every (k, d, r)")

print("\n" + "=" * 72)
print("The rearranged variant is not an identity at all")
print("=" * 72)
sigma = Permutation((1, 0, 2, 3, 4))  # one 2-cycle, three fixed points
lengths = cycle_structure(sigma).lengths
enum = event_tally(lengths, 3, (1,))[(1, 1)][1]
# the variant is no public function: the exhaustive catalogue records its value for this type
variant = next(
    rec.formula
    for rec in verify_closed_forms(5, 3, 1).mismatches
    if rec.which == "destruction_rearranged" and cycle_structure(Permutation(rec.mapping)).lengths == lengths
)
closed = destruction_probability(lengths, 1, 1, 3)
print(f"  sigma = {sigma.mapping}, k = d = 1, r = 3")
print(f"  enumeration:          {enum}")
print(f"  closed form:          {closed}")
print(f"  rearranged variant:   {variant}   <- leading term is the raw count;")
print("  it matches the event probability only after scaling by n/(2k)")
