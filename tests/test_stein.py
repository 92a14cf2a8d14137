import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from oracles import enumerated_events, term_estimates_by_tally, term_estimates_per_permutation

from shortcycles.counting import count_table, joint_pmf
from shortcycles.distances import PoissonSpec, tv_cycle_counts, tv_exact
from shortcycles.errors import ResourceLimitError
from shortcycles.permutations import (
    Permutation,
    cycle_structure,
    longest_cycle,
    permutations_with_bounded_cycles,
)
from shortcycles.sampling import SamplerConfig, draw_cycle_types
from shortcycles.stein import (
    _type_terms,
    creation_probability,
    destruction_probability,
    destruction_probability_rearranged,
    event_tally,
    term_estimates_exact,
    term_estimates_mc,
    verify_closed_forms,
)


class TestEventProbabilities:
    def test_identity_k1_no_creation(self):
        p_up, _ = event_tally((1,) * 5, 3, (1,))[(1, 1)]
        assert p_up == 0

    def test_identity_k2_all_create(self):
        assert event_tally((1,) * 6, 4, (2,))[(2, 2)] == (1, 0)

    def test_three_by_two_hand_count(self):
        # (0 1 2)(3 4) in S_5 with r=3: of the 10 transpositions, the 3
        # within-3-cycle pairs create a 2-cycle, the within-2-cycle pair
        # destroys it, all 6 cross pairs would build a 5-cycle and are rejected
        assert event_tally((2, 3), 3, (2,))[(2, 2)] == (Fraction(3, 10), Fraction(1, 10))

    def test_rejects_out_of_range(self):
        # a 4-cycle at r = 3
        with pytest.raises(ValueError):
            event_tally((4,), 3, (1,))


class TestClosedForms:
    def test_identity_merge_term(self):
        # every ordered pair of distinct fixed points fires the merge sum
        assert creation_probability(cycle_structure(Permutation.identity(7)).lengths, 2, 3) == 1

    def test_single_long_cycle(self):
        # one cycle of length d+k+1: every element contributes to the split
        # sum, giving 2/(n-1)
        d, k = 3, 2
        n = d + k + 1
        lengths = cycle_structure(Permutation(tuple(range(1, n)) + (0,))).lengths
        assert creation_probability(lengths, k, d) == Fraction(2, n - 1)

    def test_cycle_longer_than_r_is_rejected(self):
        with pytest.raises(ValueError, match="has a cycle longer than r"):
            destruction_probability((1, 1, 6), 1, 1, 3)
        with pytest.raises(ValueError, match="has a cycle longer than r"):
            event_tally((1, 1, 6), 3, (1,))
        with pytest.raises(ValueError, match="has a cycle longer than r"):
            destruction_probability_rearranged((1, 1, 6), 1, 1, 3)

    def test_no_k_cycle_means_no_destruction(self):
        lengths = cycle_structure(Permutation((1, 2, 0, 4, 5, 3))).lengths  # two 3-cycles
        assert destruction_probability(lengths, 2, 2, 4) == 0

    def test_matches_enumeration_on_examples(self):
        lengths = cycle_structure(Permutation((1, 2, 0, 4, 3))).lengths
        p_up, p_down = event_tally(lengths, 3, (2,))[(2, 2)]
        assert creation_probability(lengths, 2, 2) == p_up
        assert destruction_probability(lengths, 2, 2, 3) == p_down

    @pytest.mark.parametrize("n,r", [(5, 3), (6, 4), (6, 5)])
    def test_random_spot_checks(self, n, r):
        rng = np.random.default_rng(n * 100 + r)
        perms = [p for p in permutations_with_bounded_cycles(n, r)]
        for idx in rng.integers(0, len(perms), size=25):
            lengths = cycle_structure(perms[int(idx)]).lengths
            for d in range(1, min(3, r - 1) + 1):
                for k in range(1, d + 1):
                    p_up, p_down = event_tally(lengths, r, (d,))[(d, k)]
                    assert creation_probability(lengths, k, d) == p_up
                    if r >= 2 * k - 1:
                        assert destruction_probability(lengths, k, d, r) == p_down


class TestExhaustiveVerification:
    def test_creation_identity_holds_everywhere(self):
        for n in range(2, 7):
            for r in range(2, n + 1):
                report = verify_closed_forms(n, r, 3)
                assert report.mismatch_count("creation") == 0

    def test_destruction_mismatches_only_in_budget_blind_spot(self):
        # over-counting requires r <= 2k - 2
        for n in range(2, 7):
            for r in range(2, n + 1):
                report = verify_closed_forms(n, r, 3)
                for m in report.mismatches:
                    if m.which == "destruction":
                        assert m.r <= 2 * m.k - 2
                        assert m.formula > m.enumerated

    def test_rearranged_variant_disagrees(self):
        report = verify_closed_forms(5, 3, 2)
        assert report.mismatch_count("destruction_rearranged") > 0
        for m in report.mismatches:
            assert Permutation(m.mapping) is not None  # witness is well-formed

    def test_cap(self, monkeypatch):
        # the cap counts cycle types: (9, 3) has 12 partitions of 9 with parts <= 3
        monkeypatch.setenv("SHORTCYCLES_SUPPORT_CAP", "11")
        with pytest.raises(ResourceLimitError, match="12 cycle types"):
            verify_closed_forms(9, 3, 2)
        monkeypatch.setenv("SHORTCYCLES_SUPPORT_CAP", "12")
        # every permutation with cycles <= 3, each checked at (d, k) = (1, 1), (2, 1), (2, 2)
        assert verify_closed_forms(9, 3, 2).checked == 3 * count_table(9, 3, "exact").count(9)

    def test_r_above_n_names_the_given_values(self):
        with pytest.raises(ValueError, match=r"need 1 <= r <= n, got r=6, n=5"):
            verify_closed_forms(5, 6, 2)

    def test_records_group_per_permutation_verdicts_by_cycle_type(self):
        # pair-by-pair enumeration and the closed forms on every permutation,
        # grouped by (cycle type, d, k, which), are the records and their class sizes
        for n in range(2, 7):
            for r in range(2, n + 1):
                verdicts: Counter = Counter()
                values = {}
                combinations = 0
                for p in permutations_with_bounded_cycles(n, r):
                    lengths = cycle_structure(p).lengths
                    for d in range(1, min(3, r - 1) + 1):
                        for k in range(1, d + 1):
                            combinations += 1
                            up, down = enumerated_events(p, r, k, d)
                            for which, enumerated, formula in (
                                ("creation", up, creation_probability(lengths, k, d)),
                                ("destruction", down, destruction_probability(lengths, k, d, r)),
                                ("destruction_rearranged", down, destruction_probability_rearranged(lengths, k, d, r)),
                            ):
                                if formula != enumerated:
                                    verdicts[(lengths, d, k, which)] += 1
                                    values[(lengths, d, k, which)] = (enumerated, formula)
                report = verify_closed_forms(n, r, 3)
                records = {}
                for m in report.mismatches:
                    key = (cycle_structure(Permutation(m.mapping)).lengths, m.d, m.k, m.which)
                    assert key not in records
                    records[key] = m.class_size
                    assert (m.enumerated, m.formula) == values[key]
                assert records == dict(verdicts)
                assert report.checked == combinations
                for which in ("creation", "destruction", "destruction_rearranged"):
                    assert report.mismatch_count(which) == sum(
                        size for key, size in verdicts.items() if key[3] == which
                    )


class TestTermEstimates:
    def test_exact_upper_bounds_tv_small_case(self):
        terms = term_estimates_exact(6, 6, 1)
        tv = tv_exact(joint_pmf(6, 6, 1), PoissonSpec.cycle_reference(1))
        assert float(terms.total) >= tv

    def test_identity_contribution_computable(self):
        # with d = k = 1 the identity permutation only loses fixed points
        _, p_down = event_tally((1,) * 6, 4, (1,))[(1, 1)]
        c_1 = Fraction(6, 2 * 1)
        value = abs(6 - c_1 * p_down)
        assert value == abs(Fraction(6) - 3 * p_down)

    def test_mc_concentrates_near_reference_mean(self):
        # scaled creation probability concentrates near 1/k when r = n
        rng = np.random.default_rng(90)
        terms = term_estimates_mc(2000, 2000, 3, 400, rng)
        for row in terms.rows:
            assert row.creation_term <= 5 * row.creation_se + 0.05

    def test_mc_validation(self):
        with pytest.raises(ValueError):
            term_estimates_mc(10, 5, 2, 0, np.random.default_rng(0))
        # one sample has no standard error; the estimate never reports 0.0 for it
        with pytest.raises(ValueError, match="at least 2 samples for a standard error, got 1"):
            term_estimates_mc(10, 5, 2, 1, np.random.default_rng(0))

    @pytest.mark.parametrize("n", range(2, 13))
    def test_exact_matches_tally_oracle(self, n):
        # closed forms (with the tally fallback at r <= 2k-2) against the tally alone
        for r in range(2, n + 1):
            for d in range(1, r):
                assert term_estimates_exact(n, r, d) == term_estimates_by_tally(n, r, d), (n, r, d)

    @pytest.mark.parametrize("n,r,d", [(20, 5, 4), (20, 10, 4)])
    def test_exact_matches_tally_oracle_at_twenty(self, n, r, d):
        assert term_estimates_exact(n, r, d) == term_estimates_by_tally(n, r, d)

    @pytest.mark.parametrize("n,r,d", [(200, 40, 4), (50, 5, 4)])
    def test_mc_is_mean_of_exact_type_terms(self, n, r, d):
        # (50, 5, 4) has r <= 2k-2 for k = 4, where destruction comes from the tally
        samples = 60
        terms = term_estimates_mc(n, r, d, samples, np.random.default_rng(11))
        types = draw_cycle_types(SamplerConfig(n, r), samples, np.random.default_rng(11))
        per_type = np.array([[[float(x) for x in pair] for pair in _type_terms(t, r, d)] for t in types])
        means = per_type.mean(axis=0)
        ses = per_type.std(axis=0, ddof=1) / np.sqrt(samples)
        assert terms.sample_count == samples
        for row in terms.rows:
            assert (row.creation_term, row.destruction_term) == tuple(means[row.k - 1])
            assert (row.creation_se, row.destruction_se) == tuple(ses[row.k - 1])
        assert terms.total == sum((up + down) / 2 for up, down in means)

    def test_exact_cap(self, monkeypatch):
        # the cap counts cycle types: (9, 4) has 18 partitions of 9 with parts <= 4
        monkeypatch.setenv("SHORTCYCLES_SUPPORT_CAP", "17")
        with pytest.raises(ResourceLimitError, match="18 cycle types"):
            term_estimates_exact(9, 4, 2)
        monkeypatch.setenv("SHORTCYCLES_SUPPORT_CAP", "18")
        assert term_estimates_exact(9, 4, 2).n == 9


class TestCycleTypeCore:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_tally_matches_pair_enumeration_and_is_conjugation_invariant(self, n):
        # conjugating by a rotation relabels elements but keeps the cycle type
        shift = tuple((i + 1) % n for i in range(n))
        inverse = {image: i for i, image in enumerate(shift)}
        for p in map(Permutation, itertools.permutations(range(n))):
            conjugate = Permutation(tuple(shift[p.mapping[inverse[x]]] for x in range(n)))
            assert cycle_structure(conjugate).lengths == cycle_structure(p).lengths
            for r in range(max(longest_cycle(p), 2), n + 1):
                tally = event_tally(cycle_structure(p).lengths, r, range(1, r))
                for (d, k), probabilities in tally.items():
                    assert probabilities == enumerated_events(p, r, k, d), (p, r, d, k)
                    assert probabilities == enumerated_events(conjugate, r, k, d), (p, r, d, k)

    def test_tally_keys_and_totals(self):
        tally = event_tally(cycle_structure(Permutation((1, 2, 0, 4, 3))).lengths, 3, (1, 2))
        assert sorted(tally) == [(1, 1), (2, 1), (2, 2)]
        assert tally[(2, 2)] == (Fraction(3, 10), Fraction(1, 10))
        with pytest.raises(ValueError):
            event_tally(cycle_structure(Permutation.identity(1)).lengths, 1, (1,))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_term_estimates_match_per_permutation_oracle(self, n):
        for r in range(2, n + 1):
            for d in range(1, r):
                assert term_estimates_exact(n, r, d) == term_estimates_per_permutation(n, r, d), (n, r, d)

    @pytest.mark.parametrize("n,r,d", [(12, 6, 2), (16, 8, 3), (20, 10, 4), (20, 5, 4)])
    def test_exact_terms_beyond_enumeration_bound_the_distance(self, n, r, d):
        terms = term_estimates_exact(n, r, d)
        assert all(isinstance(row.creation_term, Fraction) for row in terms.rows)
        assert float(terms.total) >= tv_cycle_counts(n, r, d)
