import itertools
import math
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import apply_transposition
from shortcycles.errors import ResourceLimitError
from shortcycles.permutations import (
    CountsVector,
    Permutation,
    capped_type_count,
    class_size,
    cycle_structure,
    cycle_type_counts,
    cycle_type_size,
    cycle_types,
    longest_cycle,
    permutations_with_bounded_cycles,
)


def perms(max_n=24):
    return st.integers(1, max_n).flatmap(lambda n: st.permutations(list(range(n)))).map(Permutation)


def cycle_of(s, x):
    """The cycle of the structure ``s`` that contains ``x``."""
    return next(cycle for cycle in s.cycles if x in cycle)


def counts(p, d):
    return CountsVector.from_cycle_type(cycle_structure(p).lengths, d)


class TestPermutation:
    def test_identity(self):
        assert Permutation.identity(4).mapping == (0, 1, 2, 3)

    @pytest.mark.parametrize("bad", [[], [0, 0], [1, 2], [0, 2], [-1, 0]])
    def test_rejects_non_bijections(self, bad):
        with pytest.raises(ValueError):
            Permutation(bad)

    def test_hashable_and_eq(self):
        assert Permutation((1, 0)) == Permutation([1, 0])
        assert len({Permutation((1, 0)), Permutation((1, 0))}) == 1


class TestCycleTypeSize:
    def test_returns_n(self):
        assert cycle_type_size(()) == 0
        assert cycle_type_size((1, 2, 2), r=2) == 5
        assert cycle_type_size([3, 1]) == 4  # any order, any sequence
        assert cycle_type_size((1,) * 7, r=1) == 7

    @pytest.mark.parametrize(
        "lengths,r,message",
        [
            ((0, 2), None, "cycle type (0, 2) has a part that is not positive"),
            ((2, -1), 3, "cycle type (2, -1) has a part that is not positive"),
            ((3,), 2, "cycle type (3,) has a cycle longer than r=2"),
            ([1, 4, 2], 3, "cycle type (1, 4, 2) has a cycle longer than r=3"),
        ],
    )
    def test_rejects_naming_the_tuple(self, lengths, r, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cycle_type_size(lengths, r)


class TestCycleStructure:
    def test_identity_n4(self):
        s = cycle_structure(Permutation.identity(4))
        assert s.lengths == (1, 1, 1, 1)
        assert s.cycles == ((0,), (1,), (2,), (3,))

    def test_two_transpositions(self):
        s = cycle_structure(Permutation((1, 0, 3, 2)))
        assert s.lengths == (2, 2)

    def test_three_two_split(self):
        # orbit of 0: 0 -> 1 -> 2 -> 0; orbit of 3: 3 -> 4 -> 3
        s = cycle_structure(Permutation((1, 2, 0, 4, 3)))
        assert s.lengths == (2, 3)
        assert s.cycles == ((0, 1, 2), (3, 4))
        assert len(cycle_of(s, 0)) == 3 and len(cycle_of(s, 4)) == 2

    def test_cycles_sorted_by_minimum(self):
        s = cycle_structure(Permutation((2, 3, 0, 1, 4)))
        assert [c[0] for c in s.cycles] == sorted(c[0] for c in s.cycles)

    @given(perms())
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, p):
        s = cycle_structure(p)
        seen = sorted(x for cycle in s.cycles for x in cycle)
        assert seen == list(range(p.n))
        assert sum(s.lengths) == p.n


class TestCycleCounts:
    def test_identity(self):
        assert counts(Permutation.identity(5), 3).counts == (5, 0, 0)

    def test_double_transposition(self):
        assert counts(Permutation((1, 0, 3, 2)), 2).counts == (0, 2)

    def test_three_two(self):
        assert counts(Permutation((1, 2, 0, 4, 3)), 2).counts == (0, 1)

    @given(perms())
    @settings(max_examples=60, deadline=None)
    def test_weighted_sum_is_n(self, p):
        assert counts(p, p.n).weighted_sum() == p.n

    def test_counts_vector_dimension(self):
        cv = CountsVector((2, 0, 1))
        assert cv.d == 3 and cv.weighted_sum() == 5


class TestApplyTransposition:
    # the labelled oracle the walk on cycle types is checked against
    def test_swap_on_identity(self):
        assert apply_transposition(Permutation.identity(3), 0, 1).mapping == (1, 0, 2)

    def test_involution_example(self):
        p = Permutation((1, 0, 2))
        assert apply_transposition(p, 0, 1) == Permutation.identity(3)

    @given(perms(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_involution(self, p, data):
        if p.n < 2:
            return
        a = data.draw(st.integers(0, p.n - 1))
        b = data.draw(st.integers(0, p.n - 1).filter(lambda x: x != a))
        assert apply_transposition(apply_transposition(p, a, b), a, b) == p

    def test_split_and_merge_exhaustive_s4(self):
        # same cycle -> splits into two cycles whose lengths sum to the old one
        for mapping in itertools.permutations(range(4)):
            p = Permutation(mapping)
            s = cycle_structure(p)
            for a in range(4):
                for b in range(a + 1, 4):
                    q = apply_transposition(p, a, b)
                    sq = cycle_structure(q)
                    if cycle_of(s, a) == cycle_of(s, b):
                        assert len(sq.cycles) == len(s.cycles) + 1
                    else:
                        assert len(sq.cycles) == len(s.cycles) - 1
                        merged = len(cycle_of(sq, a))
                        assert merged == len(cycle_of(s, a)) + len(cycle_of(s, b))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_cycle_count_change_exhaustive(self, n):
        for mapping in itertools.permutations(range(n)):
            p = Permutation(mapping)
            s = cycle_structure(p)
            for a in range(n):
                for b in range(a + 1, n):
                    q = apply_transposition(p, a, b)
                    delta = len(cycle_structure(q).cycles) - len(s.cycles)
                    assert delta == (1 if cycle_of(s, a) == cycle_of(s, b) else -1)


class TestLongestCycle:
    def test_identity(self):
        assert longest_cycle(Permutation.identity(7)) == 1

    def test_full_cycle(self):
        n = 6
        assert longest_cycle(Permutation(tuple(range(1, n)) + (0,))) == n

    def test_mixed(self):
        assert longest_cycle(Permutation((1, 2, 0, 4, 3))) == 3


class TestBoundedEnumeration:
    def test_sizes(self):
        assert len(list(permutations_with_bounded_cycles(4, 2))) == 10
        assert len(list(permutations_with_bounded_cycles(4, 4))) == 24
        assert len(list(permutations_with_bounded_cycles(5, 1))) == 1

    def test_members_satisfy_bound(self):
        for p in permutations_with_bounded_cycles(5, 2):
            assert longest_cycle(p) <= 2

    @pytest.mark.parametrize("n, r", [(0, 3), (0, 0), (4, 0)])
    def test_validation_names_n_and_r(self, n, r):
        # checked before the first permutation is built, in cycle_types' words
        with pytest.raises(ValueError, match=rf"need 1 <= n, got n={n}" if n < 1 else rf"need 1 <= r, got r={r}"):
            next(permutations_with_bounded_cycles(n, r))

    def test_cap(self, monkeypatch):
        # the brute-force cap stops the enumeration before the first of the 6! arrays
        monkeypatch.setenv("SHORTCYCLES_BRUTE_FORCE_CAP", "5")
        with pytest.raises(ResourceLimitError, match="capped at n <= 5, got n=6"):
            next(permutations_with_bounded_cycles(6, 3))
        assert len(list(permutations_with_bounded_cycles(5, 3))) == 120 - 30 - 24  # no 4- or 5-cycle


class TestCycleTypes:
    def test_n4(self):
        assert list(cycle_types(4, 4)) == [(4,), (1, 3), (2, 2), (1, 1, 2), (1, 1, 1, 1)]
        assert list(cycle_types(4, 2)) == [(2, 2), (1, 1, 2), (1, 1, 1, 1)]
        assert list(cycle_types(5, 1)) == [(1, 1, 1, 1, 1)]

    def test_partitions_counts_and_class_sizes_match_enumeration(self):
        for n in range(1, 8):
            tally = Counter(cycle_structure(Permutation(m)).lengths for m in itertools.permutations(range(n)))
            for r in range(1, n + 1):
                types = list(cycle_types(n, r))
                assert len(set(types)) == len(types) == cycle_type_counts(n, r)[n]
                assert set(types) == {t for t in tally if max(t) <= r}
                for t in types:
                    assert class_size(t) == tally[t]

    def test_large_counts(self):
        assert cycle_type_counts(100, 100)[100] == 190569292
        assert cycle_type_counts(20, 10)[20] == sum(1 for _ in cycle_types(20, 10))
        assert sum(class_size(t) for t in cycle_types(12, 12)) == math.factorial(12)

    def test_capped_type_count(self):
        # (9, 3): 1, 5 and 12 partitions of 9 with parts <= 1, 2, 3
        entry_n = lambda ways: ways[9]
        assert capped_type_count(9, 3, entry_n, 100) == (12, True)
        assert capped_type_count(9, 3, entry_n, 11) == (12, True)
        assert capped_type_count(9, 3, entry_n, 4) == (5, False)
        assert capped_type_count(9, 3, entry_n, 0) == (1, False)
        assert capped_type_count(6, 2, sum, 100) == (sum(cycle_type_counts(6, 2)), True)
        assert capped_type_count(0, 3, sum, 0) == (1, True)

    def test_deep_partition_is_iterative(self):
        types = list(cycle_types(3000, 2))
        assert len(types) == 1501
        assert types[-1] == (1,) * 3000

    def test_representative(self):
        for t in cycle_types(9, 5):
            assert cycle_structure(Permutation.from_cycle_type(t)).lengths == t
        assert Permutation.from_cycle_type((1, 3)).mapping == (0, 2, 3, 1)

    def test_cap(self, monkeypatch):
        # (9, 3) has 12 cycle types; the enumerator checks the cap before the first
        monkeypatch.setenv("SHORTCYCLES_SUPPORT_CAP", "11")
        with pytest.raises(ResourceLimitError, match="^12 cycle types of n=9 with parts <= 3 exceed the cap of 11$"):
            next(cycle_types(9, 3))
        with pytest.raises(ResourceLimitError, match="^at least 16 cycle types of n=30 with parts <= 30 exceed"):
            next(cycle_types(30, 30))
        monkeypatch.setenv("SHORTCYCLES_SUPPORT_CAP", "12")
        assert len(list(cycle_types(9, 3))) == 12

    def test_validation(self):
        with pytest.raises(ValueError):
            next(cycle_types(0, 3))
        with pytest.raises(ValueError):
            next(cycle_types(3, 0))
