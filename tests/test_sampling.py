import math
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from oracles import (
    apply_transposition,
    detailed_balance_failures,
    stage_rejection_cycle_types,
    type_law_pvalue,
    type_walk_law,
)
from shortcycles import sampling
from shortcycles.counting import (
    WindowTable,
    count_table,
    expected_count,
    first_element_cycle_length_pmf,
)
from shortcycles.permutations import (
    Permutation,
    class_size,
    cycle_structure,
    cycle_types,
    longest_cycle,
    permutations_with_bounded_cycles,
)
from shortcycles.sampling import (
    SamplerConfig,
    _transposition_move,
    draw,
    draw_cycle_types,
    mcmc_step,
)
from shortcycles.stein import _transposition_effects


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(n=4, r=5)
        for method in ("magic", "rejection"):
            with pytest.raises(ValueError, match="unknown method"):
                SamplerConfig(n=4, r=2, method=method)
        with pytest.raises(ValueError, match="need 1 <= mcmc_thinning, got mcmc_thinning=0"):
            SamplerConfig(n=4, r=2, method="mcmc", mcmc_thinning=0)
        with pytest.raises(ValueError, match="need 0 <= mcmc_burn_in, got mcmc_burn_in=-1"):
            SamplerConfig(n=4, r=2, method="mcmc", mcmc_burn_in=-1)


class TestSequential:
    # the stage law with m elements left is the first element's cycle-length law at m
    def test_stage_law_uniform_when_unrestricted(self):
        table = count_table(9, 9)
        probs = np.array(first_element_cycle_length_pmf(9, table), dtype=np.float64)
        assert np.allclose(probs, np.full(9, 1 / 9))

    def test_stage_law_double_mode(self):
        table = count_table(300, 40, "double")
        probs = first_element_cycle_length_pmf(250, table)
        assert probs.shape == (40,)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_support_constraint_n4_r2(self):
        cfg = SamplerConfig(n=4, r=2, method="sequential")
        lengths = set()
        for row in draw(cfg, 400, np.random.default_rng(3)).tolist():
            lengths.add(cycle_structure(Permutation(row)).lengths)
        assert lengths <= {(1, 1, 1, 1), (1, 1, 2), (2, 2)}
        assert lengths == {(1, 1, 1, 1), (1, 1, 2), (2, 2)}

    def test_every_draw_in_bounds(self):
        cfg = SamplerConfig(n=30, r=7, method="sequential")
        for row in draw(cfg, 50, np.random.default_rng(9)).tolist():
            assert longest_cycle(Permutation(row)) <= 7

    def test_large_n_double_mode(self):
        cfg = SamplerConfig(n=500, r=100, method="sequential")
        row = draw(cfg, 1, np.random.default_rng(11))[0]
        assert longest_cycle(Permutation(row.tolist())) <= 100

    @pytest.mark.parametrize("method", ["sequential", "mcmc"])
    def test_r1_returns_identity(self, method):
        cfg = SamplerConfig(n=4, r=1, method=method)
        assert draw(cfg, 3, np.random.default_rng(0)).tolist() == [list(range(4))] * 3
        assert draw_cycle_types(cfg, 3, np.random.default_rng(0)) == [(1, 1, 1, 1)] * 3

    def test_reproducible(self):
        cfg = SamplerConfig(n=12, r=5, method="sequential")
        assert np.array_equal(draw(cfg, 10, np.random.default_rng(77)), draw(cfg, 10, np.random.default_rng(77)))


class TestLabelledRows:
    @pytest.mark.parametrize("method", ["sequential", "mcmc"])
    def test_one_int64_row_per_draw(self, method):
        cfg = SamplerConfig(12, 4, method)
        rows = draw(cfg, 7, np.random.default_rng(2))
        assert rows.dtype == np.int64 and rows.shape == (7, 12)
        assert draw(cfg, 0, np.random.default_rng(2)).shape == (0, 12)

    def test_rows_equal_sequential_draws_one_at_a_time(self):
        # a batch calls the generator as successive one-row draws on it do
        cfg = SamplerConfig(40, 6)
        rng = np.random.default_rng(8)
        one_at_a_time = [draw(cfg, 1, rng)[0] for _ in range(6)]
        assert np.array_equal(draw(cfg, 6, np.random.default_rng(8)), one_at_a_time)

    @pytest.mark.parametrize("row", [[0, 0, 2], [0, 1, 3], [0, -1, 2]], ids=["repeat", "too-large", "negative"])
    def test_a_row_that_is_no_bijection_is_rejected(self, row, monkeypatch):
        monkeypatch.setattr(sampling, "_labelled", lambda lengths, rng: np.array(row))
        with pytest.raises(ValueError, match="not a bijection"):
            draw(SamplerConfig(3, 3), 2, np.random.default_rng(0))


class TestCycleType:
    # (40, 2): 21 types and about 23 cycles, so a draw refills its block of uniforms
    @pytest.mark.parametrize("n,r,seed", [(8, 4, 1), (10, 3, 2), (40, 2, 3)], ids=["8-4-1", "10-3-2", "40-2-3"])
    def test_chi_square_against_exact_type_law(self, n, r, seed):
        # P(type) = class_size(type) / (n! nu(n, r))
        draws = draw_cycle_types(SamplerConfig(n, r), 40000, np.random.default_rng(seed))
        assert type_law_pvalue(draws, n, r) >= 1e-3

    def test_sequential_draw_relabels_the_sampled_type(self):
        cfg = SamplerConfig(40, 6)
        for seed in range(5):
            row = draw(cfg, 1, np.random.default_rng(seed))[0]
            assert row.dtype == np.int64 and row.shape == (40,)
            p = Permutation(row.tolist())
            assert [cycle_structure(p).lengths] == draw_cycle_types(cfg, 1, np.random.default_rng(seed))

    def test_deep_tail_double_table(self):
        # u = 50: the stage law still sums to 1, and every type is a partition of n
        table = count_table(1000, 20, "double")
        assert first_element_cycle_length_pmf(1000, table).sum() == pytest.approx(1.0, abs=1e-12)
        for lengths in draw_cycle_types(SamplerConfig(1000, 20), 5, np.random.default_rng(3)):
            assert sum(lengths) == 1000 and max(lengths) <= 20 and list(lengths) == sorted(lengths)

    @pytest.mark.parametrize("labelled", [False, True], ids=["types", "labelled"])
    @pytest.mark.parametrize("method", ["sequential", "mcmc"])
    def test_inconsistent_table_is_rejected_before_any_draw(self, method, labelled, monkeypatch):
        # the once-per-batch check guards every route, before the first uniform is drawn
        logs = np.array(count_table(60, 10, "double").log_view())
        logs[50:60] -= 1.0
        monkeypatch.setattr(sampling, "count_table", lambda n_max, r, mode: WindowTable(0, r, mode, logs))
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="stage law sums to .* table looks inconsistent"):
            (draw if labelled else draw_cycle_types)(SamplerConfig(60, 10, method), 5, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("labelled", [False, True], ids=["types", "labelled"])
    @pytest.mark.parametrize("method", ["sequential", "mcmc"])
    def test_table_below_r_that_is_not_one_is_rejected_before_any_draw(self, method, labelled, monkeypatch):
        # the stages with m <= r accept without reading nu(m, r); the batch check guards that shortcut
        logs = np.array(count_table(60, 10, "double").log_view())
        logs[3] = -0.5
        monkeypatch.setattr(sampling, "count_table", lambda n_max, r, mode: WindowTable(0, r, mode, logs))
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="is not 0 for some m <= 10, table looks inconsistent"):
            (draw if labelled else draw_cycle_types)(SamplerConfig(60, 10, method), 5, rng)
        assert rng.bit_generator.state == state

    def test_corrupt_entries_above_r_raise_in_the_stage_loop(self, monkeypatch):
        # entries 0..r and the stage law at m = n are intact, so only a proposal ratio can catch the rest
        logs = np.array(count_table(60, 10, "double").log_view())
        logs[11:50] = np.nan
        monkeypatch.setattr(sampling, "count_table", lambda n_max, r, mode: WindowTable(0, r, mode, logs))
        with pytest.raises(ValueError, match="nu ratio nan at .* table looks inconsistent"):
            draw_cycle_types(SamplerConfig(60, 10), 1, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "n,r", [(7, 1), (9, 9), (1, 1), (500, 100), (2000, 400), (1000, 20), (3000, 30), (10**5, 10**4)]
    )
    def test_stream_equals_one_rejection_proposal_at_a_time(self, n, r):
        # the stages with m <= r skip the table, yet spend the same uniforms and give the same types
        count = 3 if n == 10**5 else 40
        for seed in range(4):
            rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            types = draw_cycle_types(SamplerConfig(n, r), count, rng)
            assert types == stage_rejection_cycle_types(n, r, count, loop_rng, sampling._UNIFORM_BLOCK)
            assert rng.bit_generator.state == loop_rng.bit_generator.state

    def test_stage_law_is_checked_once_per_batch(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return first_element_cycle_length_pmf(*args)

        monkeypatch.setattr(sampling, "first_element_cycle_length_pmf", counted)
        for method in ("sequential", "mcmc"):
            for run in (draw, draw_cycle_types):
                calls.clear()
                run(SamplerConfig(30, 6, method), 25, np.random.default_rng(1))
                assert len(calls) == 1, (method, run.__name__)

    @pytest.mark.parametrize("corruption", ["nan", "increasing"])
    def test_corrupt_table_raises_instead_of_hanging(self, corruption, src_env):
        # the stage law at m = n is intact; every entry below n - r is corrupt,
        # so the second stage proposes against it and must raise, not loop
        script = f"""
import numpy as np
from shortcycles import sampling
from shortcycles.counting import WindowTable, count_table
logs = np.array(count_table(60, 10, "double").log_view())
logs[:50] = np.nan if {corruption!r} == "nan" else np.arange(50.0)
sampling.count_table = lambda n_max, r, mode: WindowTable(0, r, mode, logs)
for seed in range(20):
    try:
        sampling.draw_cycle_types(sampling.SamplerConfig(60, 10), 1, np.random.default_rng(seed))
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
        assert abs(fixed.mean() - expected_count(1000, 1, count_table(1000, 20, "double"))) <= 4 * stderr


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
            longest_cycle(apply_transposition(Permutation.identity(3), a, b)) <= 2 for a, b in pairs
        ]
        assert accepted_from_id == [True, True, True]
        # from a 2-cycle only the inverse proposal is accepted; the other
        # two proposals would build a 3-cycle and get rejected
        p = Permutation((1, 0, 2))
        accepted = [longest_cycle(apply_transposition(p, a, b)) <= 2 for a, b in pairs]
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
                        assert moved == cycle_structure(apply_transposition(representative, a, b)).lengths
                        counts[(tuple(sorted((Counter(moved) - Counter(lengths)).elements())),
                                tuple(sorted((Counter(lengths) - Counter(moved)).elements())))] += 1
                expected = {key: 2 * pairs for key, pairs in _transposition_effects(lengths, r).items()}
                assert dict(counts) == expected, (lengths, r)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_class_size_law_is_stationary(self, n):
        # detailed balance with the class sizes, which makes them stationary
        for r in range(1, n + 1):
            assert detailed_balance_failures(n, r) == [], (n, r)

    def test_chain_starts_uniform(self):
        # the first output, one step from a stationary start, is uniform
        states = list(permutations_with_bounded_cycles(5, 3))
        samples = [
            Permutation(draw(SamplerConfig(5, 3, "mcmc"), 1, np.random.default_rng(seed))[0].tolist())
            for seed in range(5000)
        ]
        assert chi_square_uniform_pvalue(samples, states) >= 1e-3

    def test_chain_types_match_labelled_draws(self):
        # draw labels the chain's types after the chain has run, so the
        # same seed gives the same types with and without labels
        cfg = SamplerConfig(30, 6, "mcmc", mcmc_burn_in=5, mcmc_thinning=3)
        types = draw_cycle_types(cfg, 20, np.random.default_rng(3))
        rows = draw(cfg, 20, np.random.default_rng(3))
        assert [cycle_structure(Permutation(row)).lengths for row in rows.tolist()] == types
        assert all(max(t) <= 6 and sum(t) == 30 for t in types)


    @pytest.mark.parametrize(
        "block,n,r,burn_in,thinning,count",
        [(None, 40, 8, 4000, 7, 30), (5, 12, 4, 3, 4, 6), (5, 12, 4, 0, 1, 11), (3, 2, 2, 2, 2, 3)],
    )
    def test_chain_equals_a_loop_of_steps(self, block, n, r, burn_in, thinning, count, monkeypatch):
        # pairs drawn in blocks across a block boundary: same chain, same generator state after it
        if block is not None:
            monkeypatch.setattr(sampling, "_PAIR_BLOCK", block)
        assert burn_in + count * thinning > sampling._PAIR_BLOCK
        cfg = SamplerConfig(n, r, "mcmc", mcmc_burn_in=burn_in, mcmc_thinning=thinning)
        rng = np.random.default_rng(17)
        types = draw_cycle_types(cfg, count, rng)
        loop_rng = np.random.default_rng(17)
        state = draw_cycle_types(SamplerConfig(n, r), 1, loop_rng)[0]
        for _ in range(burn_in):
            state = mcmc_step(state, r, loop_rng)
        want = []
        for _ in range(count):
            for _ in range(thinning):
                state = mcmc_step(state, r, loop_rng)
            want.append(state)
        assert types == want
        assert rng.random() == loop_rng.random()

    def test_chain_on_one_element_draws_no_pairs(self):
        cfg = SamplerConfig(1, 1, "mcmc", mcmc_burn_in=5, mcmc_thinning=2)
        rng = np.random.default_rng(4)
        assert draw_cycle_types(cfg, 3, rng) == [(1,)] * 3
        start_only = np.random.default_rng(4)
        draw_cycle_types(SamplerConfig(1, 1), 1, start_only)
        assert rng.random() == start_only.random()


class TestStationarityMatrix:
    # the exact one-step law of the walk on cycle types, P(lambda -> mu)
    def test_n4_r2(self):
        # 12 ordered pairs; class sizes 1, 6 and 3 for (1,1,1,1), (1,1,2), (2,2)
        law = type_walk_law(4, 2)
        assert law == {
            (1, 1, 1, 1): {(1, 1, 2): 1},
            (1, 1, 2): {(1, 1, 1, 1): Fraction(2, 12), (2, 2): Fraction(2, 12), (1, 1, 2): Fraction(8, 12)},
            (2, 2): {(1, 1, 2): Fraction(4, 12), (2, 2): Fraction(8, 12)},
        }
        after = Counter()
        for lengths, row in law.items():
            for moved, p in row.items():
                after[moved] += class_size(lengths) * p
        assert after == {lengths: class_size(lengths) for lengths in law}

    def test_diagonal_only_when_rejections_exist(self):
        # a transposition changes the number of cycles by one, so the type
        # stays put only when a merge is rejected, which needs r < n
        for n in range(2, 8):
            for r in range(1, n + 1):
                stays = [lengths for lengths, row in type_walk_law(n, r).items() if row[lengths]]
                assert (stays != []) == (r < n), (n, r, stays)


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
        samples = [Permutation(row) for row in draw(cfg, 20000, np.random.default_rng(101)).tolist()]
        assert chi_square_uniform_pvalue(samples, states) >= 1e-3

    def test_mcmc_chi_square_s5_r3(self):
        states = list(permutations_with_bounded_cycles(5, 3))
        cfg = SamplerConfig(n=5, r=3, method="mcmc", mcmc_burn_in=500, mcmc_thinning=20)
        samples = [Permutation(row) for row in draw(cfg, 20000, np.random.default_rng(303)).tolist()]
        assert chi_square_uniform_pvalue(samples, states) >= 1e-3
