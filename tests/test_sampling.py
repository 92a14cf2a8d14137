import math
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from shortcycles.counting import (
    WindowTable,
    count_table,
    expected_count,
    first_element_cycle_length_pmf,
    restricted_count_table,
)
from shortcycles.errors import ResourceLimitError
from shortcycles.permutations import (
    Permutation,
    Transposition,
    apply_transposition,
    class_size,
    cycle_structure,
    cycle_types,
    longest_cycle,
    permutations_with_bounded_cycles,
)
from shortcycles.sampling import (
    SamplerConfig,
    _transposition_move,
    acceptance_rate,
    draw,
    draw_cycle_types,
    mcmc_step,
    sample_cycle_type,
    sample_rejection,
    sample_sequential,
    stationarity_matrix,
)
from shortcycles.stein import _transposition_effects


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(n=4, r=5)
        with pytest.raises(ValueError):
            SamplerConfig(n=4, r=2, method="magic")
        with pytest.raises(ValueError, match="thinning must be >= 1"):
            SamplerConfig(n=4, r=2, method="mcmc", mcmc_thinning=0)
        with pytest.raises(ValueError, match="burn-in must be >= 0"):
            SamplerConfig(n=4, r=2, method="mcmc", mcmc_burn_in=-1)


class TestRejection:
    def test_unrestricted_accepts_first_draw(self):
        cfg = SamplerConfig(n=8, r=8, method="rejection")
        first = np.random.default_rng(123).permutation(8)
        got = sample_rejection(cfg, np.random.default_rng(123))
        assert got.mapping == tuple(int(x) for x in first)

    def test_r1_returns_identity(self):
        cfg = SamplerConfig(n=4, r=1, method="rejection")
        p = sample_rejection(cfg, np.random.default_rng(0))
        assert p == Permutation.identity(4)

    def test_retry_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("SHORTCYCLES_RETRY_CAP", "5")
        cfg = SamplerConfig(n=9, r=1, method="rejection")
        with pytest.raises(ResourceLimitError):
            sample_rejection(cfg, np.random.default_rng(0))

    def test_acceptance_rate_matches_nu(self):
        rate = acceptance_rate(6, 3, 10**5, np.random.default_rng(2024))
        p = float(count_table(6, 3).fraction(6))
        se = (p * (1 - p) / 10**5) ** 0.5
        assert abs(rate - p) <= 3 * se


class TestSequential:
    # the stage law with m elements left is the first element's cycle-length law at m
    def test_stage_law_uniform_when_unrestricted(self):
        table = count_table(9, 9)
        probs = np.array(first_element_cycle_length_pmf(9, 9, table), dtype=np.float64)
        assert np.allclose(probs, np.full(9, 1 / 9))

    def test_stage_law_double_mode(self):
        table = count_table(300, 40, "double")
        probs = first_element_cycle_length_pmf(250, 40, table)
        assert probs.shape == (40,)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_support_constraint_n4_r2(self):
        cfg = SamplerConfig(n=4, r=2, method="sequential")
        lengths = set()
        for p in draw(cfg, 400, np.random.default_rng(3)):
            lengths.add(cycle_structure(p).lengths)
        assert lengths <= {(1, 1, 1, 1), (1, 1, 2), (2, 2)}
        assert lengths == {(1, 1, 1, 1), (1, 1, 2), (2, 2)}

    def test_every_draw_in_bounds(self):
        cfg = SamplerConfig(n=30, r=7, method="sequential")
        for p in draw(cfg, 50, np.random.default_rng(9)):
            assert longest_cycle(p) <= 7

    def test_large_n_double_mode(self):
        cfg = SamplerConfig(n=500, r=100, method="sequential")
        p = draw(cfg, 1, np.random.default_rng(11))[0]
        assert longest_cycle(p) <= 100

    def test_reproducible(self):
        cfg = SamplerConfig(n=12, r=5, method="sequential")
        assert draw(cfg, 10, np.random.default_rng(77)) == draw(cfg, 10, np.random.default_rng(77))


class TestCycleType:
    # (40, 2): 21 types and about 23 cycles, so a draw refills its block of
    # uniforms; rejection at (8, 4) accepts with probability nu(8, 4) = 0.365
    @pytest.mark.parametrize(
        "n,r,seed,method",
        [(8, 4, 1, "sequential"), (10, 3, 2, "sequential"), (40, 2, 3, "sequential"), (8, 4, 1, "rejection")],
        ids=["8-4-1", "10-3-2", "40-2-3", "rejection-8-4-1"],
    )
    def test_chi_square_against_exact_type_law(self, n, r, seed, method):
        # P(type) = class_size(type) / (n! nu(n, r))
        nu = count_table(n, r).fraction(n)
        types = list(cycle_types(n, r))
        expected = np.array([float(Fraction(class_size(t), math.factorial(n)) / nu) for t in types])
        assert expected.sum() == pytest.approx(1.0, abs=1e-12)
        draws = 40000
        tally = {t: 0 for t in types}
        for t in draw_cycle_types(SamplerConfig(n, r, method), draws, np.random.default_rng(seed)):
            tally[t] += 1
        observed = np.array([tally[t] for t in types])
        expected *= draws
        rare = expected < 5  # pooled into one cell, where the chi-square approximation holds
        if rare.any():
            observed = np.append(observed[~rare], observed[rare].sum())
            expected = np.append(expected[~rare], expected[rare].sum())
        assert stats.chisquare(observed, expected).pvalue >= 1e-3

    def test_sequential_draw_relabels_the_sampled_type(self):
        table = count_table(40, 6)
        cfg = SamplerConfig(n=40, r=6)
        for seed in range(5):
            p = sample_sequential(cfg, np.random.default_rng(seed), table)
            assert cycle_structure(p).lengths == sample_cycle_type(40, 6, np.random.default_rng(seed), table)

    def test_deep_tail_double_table(self):
        # u = 50: the stage law still sums to 1, and every type is a partition of n
        table = count_table(1000, 20, "double")
        assert first_element_cycle_length_pmf(1000, 20, table).sum() == pytest.approx(1.0, abs=1e-12)
        for lengths in draw_cycle_types(SamplerConfig(1000, 20), 5, np.random.default_rng(3)):
            assert sum(lengths) == 1000 and max(lengths) <= 20 and list(lengths) == sorted(lengths)

    def test_table_must_cover(self):
        with pytest.raises(ValueError):
            sample_cycle_type(10, 3, np.random.default_rng(0), count_table(10, 4))
        with pytest.raises(ValueError):
            sample_cycle_type(10, 3, np.random.default_rng(0), count_table(9, 3))

    @pytest.mark.parametrize("mode", ["exact", "double"])
    def test_table_must_be_a_nu_table(self, mode):
        # a mu table for the window (d, r] has the right r but is not nu
        for d in (1, 2, 3):
            with pytest.raises(ValueError, match="does not cover"):
                sample_cycle_type(30, 6, np.random.default_rng(0), restricted_count_table(d, 6, 30, mode))
        lengths = sample_cycle_type(30, 6, np.random.default_rng(0), restricted_count_table(0, 6, 30, mode))
        assert sum(lengths) == 30 and max(lengths) <= 6

    def test_inconsistent_table_is_rejected(self):
        # entries with the wrong total at m = n fail the once-per-draw check
        logs = np.array(count_table(60, 10, "double").log_view())
        logs[50:60] -= 1.0
        with pytest.raises(ValueError, match="stage law sums to .* table looks inconsistent"):
            sample_cycle_type(60, 10, np.random.default_rng(0), WindowTable(1, 10, "double", logs))

    @pytest.mark.parametrize("corruption", ["nan", "increasing"])
    def test_corrupt_table_raises_instead_of_hanging(self, corruption, src_env):
        # the stage law at m = n is intact; every entry below n - r is corrupt,
        # so the second stage proposes against it and must raise, not loop
        script = f"""
import numpy as np
from shortcycles.counting import WindowTable, count_table
from shortcycles.sampling import sample_cycle_type
logs = np.array(count_table(60, 10, "double").log_view())
logs[:50] = np.nan if {corruption!r} == "nan" else np.arange(50.0)
table = WindowTable(1, 10, "double", logs)
for seed in range(20):
    try:
        sample_cycle_type(60, 10, np.random.default_rng(seed), table)
    except ValueError as exc:
        assert "table looks inconsistent" in str(exc), exc
    else:
        raise SystemExit("a draw from a corrupt table returned")
"""
        result = subprocess.run(
            [sys.executable, "-c", script], env=src_env, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr[-2000:]

    def test_deep_tail_fixed_point_mean(self):
        # u = 50 on the double table: the mean number of fixed points over
        # 4000 draws lies within 4 standard errors of the exact expectation
        types = draw_cycle_types(SamplerConfig(1000, 20), 4000, np.random.default_rng(11))
        fixed = np.array([t.count(1) for t in types])
        stderr = fixed.std(ddof=1) / math.sqrt(len(fixed))
        assert abs(fixed.mean() - float(expected_count(1000, 20, 1))) <= 4 * stderr


class TestMcmc:
    def test_unrestricted_always_moves(self):
        rng = np.random.default_rng(4)
        state = (1,) * 6
        for _ in range(50):
            moved = mcmc_step(state, 6, rng)
            assert moved != state
            state = moved

    def test_small_case_transition_counts(self):
        pairs = [(a, b) for a in range(3) for b in range(a + 1, 3)]
        # from the identity every proposal is accepted (results are 2-cycles)
        accepted_from_id = [
            longest_cycle(apply_transposition(Permutation.identity(3), Transposition(a, b))) <= 2
            for a, b in pairs
        ]
        assert accepted_from_id == [True, True, True]
        # from a 2-cycle only the inverse proposal is accepted; the other
        # two proposals would build a 3-cycle and get rejected
        p = Permutation((1, 0, 2))
        accepted = [
            longest_cycle(apply_transposition(p, Transposition(a, b))) <= 2 for a, b in pairs
        ]
        assert sum(accepted) == 1
        # on types: from (1, 2) the walk splits the 2-cycle or stays put
        rng = np.random.default_rng(12)
        state = (1, 2)
        seen = {mcmc_step(state, 2, rng) for _ in range(200)}
        assert seen == {(1, 2), (1, 1, 1)}

    def test_step_stays_in_state_space(self):
        rng = np.random.default_rng(8)
        state = (1,) * 7
        for _ in range(300):
            state = mcmc_step(state, 3, rng)
            assert sum(state) == 7 and max(state) <= 3 and list(state) == sorted(state)

    def test_rejects_bad_state(self):
        with pytest.raises(ValueError, match="longer than r=2"):
            mcmc_step((3,), 2, np.random.default_rng(0))

    def test_rejected_step_returns_its_input(self):
        # a rejected merge hands back the input object itself, so callers
        # can count accepted steps by identity
        rng = np.random.default_rng(5)
        state = (1, 2)
        outcomes = [mcmc_step(state, 2, rng) for _ in range(100)]
        assert any(out is state for out in outcomes)
        assert all(out is state or out == (1, 1, 1) for out in outcomes)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_move_law_equals_transposition_effects(self, n):
        # over all n(n-1) ordered pairs, every accepted move is one of the
        # unordered transposition effects, each counted twice
        for r in range(1, n + 1):
            for lengths in cycle_types(n, r):
                representative = Permutation.from_cycle_type(lengths)
                counts = Counter()
                for a in range(n):
                    for b in range(n):
                        if a == b:
                            continue
                        moved = _transposition_move(lengths, a, b, r)
                        if moved is lengths:
                            continue
                        assert moved == cycle_structure(apply_transposition(representative, Transposition(a, b))).lengths
                        counts[(tuple(sorted((Counter(moved) - Counter(lengths)).elements())),
                                tuple(sorted((Counter(lengths) - Counter(moved)).elements())))] += 1
                expected = {key: 2 * pairs for key, pairs in _transposition_effects(lengths, r).items()}
                assert dict(counts) == expected, (lengths, r)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_class_size_law_is_stationary(self, n):
        # pi(mu) = sum_lambda pi(lambda) P(lambda -> mu) in exact rationals,
        # with pi(lambda) proportional to the class size
        for r in range(1, n + 1):
            types = list(cycle_types(n, r))
            pi = {t: Fraction(class_size(t)) for t in types}
            pairs = max(n * (n - 1), 1)
            after = {t: Fraction(0) for t in types}
            for lengths in types:
                moves = [_transposition_move(lengths, a, b, r) for a in range(n) for b in range(n) if a != b]
                for moved in moves or [lengths]:
                    after[moved] += pi[lengths] / pairs
            assert after == pi, (n, r)

    def test_chain_starts_uniform(self):
        # the first output, one step from a stationary start, is uniform
        states = list(permutations_with_bounded_cycles(5, 3))
        samples = [draw(SamplerConfig(5, 3, "mcmc"), 1, np.random.default_rng(seed))[0] for seed in range(5000)]
        assert chi_square_uniform_pvalue(samples, states) >= 1e-3

    def test_chain_types_match_labelled_draws(self):
        # draw labels the chain's types after the chain has run, so the
        # same seed gives the same types with and without labels
        cfg = SamplerConfig(30, 6, "mcmc", mcmc_burn_in=5, mcmc_thinning=3)
        types = draw_cycle_types(cfg, 20, np.random.default_rng(3))
        perms = draw(cfg, 20, np.random.default_rng(3))
        assert [cycle_structure(p).lengths for p in perms] == types
        assert all(max(t) <= 6 and sum(t) == 30 for t in types)


class TestStationarityMatrix:
    def test_n4_r2(self):
        m = stationarity_matrix(4, 2)
        assert len(m.states) == 10
        assert m.is_symmetric()
        assert all(s == 1 for s in m.row_sums())
        assert m.uniform_is_stationary()

    def test_diagonal_only_when_rejections_exist(self):
        m = stationarity_matrix(4, 4)
        for i in range(len(m.states)):
            assert m.probability(i, i) == 0

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            stationarity_matrix(8, 3)


def chi_square_uniform_pvalue(samples, states):
    index = {p: i for i, p in enumerate(states)}
    counts = np.zeros(len(states))
    for p in samples:
        counts[index[p]] += 1
    return stats.chisquare(counts).pvalue


class TestUniformity:
    def test_sequential_chi_square_s5_r3(self):
        states = list(permutations_with_bounded_cycles(5, 3))
        cfg = SamplerConfig(n=5, r=3, method="sequential")
        samples = draw(cfg, 20000, np.random.default_rng(101))
        assert chi_square_uniform_pvalue(samples, states) >= 1e-3

    def test_rejection_chi_square_s5_r3(self):
        states = list(permutations_with_bounded_cycles(5, 3))
        cfg = SamplerConfig(n=5, r=3, method="rejection")
        samples = draw(cfg, 20000, np.random.default_rng(202))
        assert chi_square_uniform_pvalue(samples, states) >= 1e-3

    def test_mcmc_chi_square_s5_r3(self):
        states = list(permutations_with_bounded_cycles(5, 3))
        cfg = SamplerConfig(n=5, r=3, method="mcmc", mcmc_burn_in=500, mcmc_thinning=20)
        samples = draw(cfg, 20000, np.random.default_rng(303))
        assert chi_square_uniform_pvalue(samples, states) >= 1e-3
