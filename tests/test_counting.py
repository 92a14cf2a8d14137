import itertools
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from oracles import pmf_csv_by_writer
from shortcycles import cli, counting
from shortcycles.cli import main
from shortcycles.counting import (
    LOG_DOUBLE_MAX,
    SparsePMF,
    WindowTable,
    brute_force_count,
    brute_force_pmf,
    count_ratio_check,
    count_table,
    expected_count,
    factorial_moment,
    first_element_cycle_length_pmf,
    int_str,
    joint_pmf,
    log_fraction,
    nu_ratios,
    restricted_count_table,
    support_size,
    table_mode,
    window_table,
)
from shortcycles.errors import ResourceLimitError
from shortcycles.permutations import CountsVector
from shortcycles.sampling import sample_cycle_type


class TestCountTable:
    def test_trivial_below_r(self):
        t = count_table(6, 6)
        assert all(t.fraction(m) == 1 for m in range(7))

    def test_identity_only(self):
        assert count_table(3, 1).fraction(3) == Fraction(1, 6)

    def test_s4_r2(self):
        assert count_table(4, 2).fraction(4) == Fraction(5, 12)

    def test_table_mode_threshold(self):
        assert [table_mode(n) for n in (1, 200, 201, 10**6)] == ["exact", "exact", "double", "double"]

    @pytest.mark.parametrize("n,r", [(5, 2), (6, 3), (7, 4), (8, 5)])
    def test_against_brute_force(self, n, r):
        t = count_table(n, r)
        assert t.count(n) == brute_force_count(n, r)

    def test_counts_are_integers(self):
        t = count_table(8, 3)
        for m in range(9):
            value = t.fraction(m) * math.factorial(m)
            assert value.denominator == 1

    def test_count_of_a_non_count_raises(self):
        t = WindowTable(1, 2, "exact", [Fraction(1), Fraction(1), Fraction(1, 3)])
        assert t.count(1) == 1
        with pytest.raises(ArithmeticError, match="table entry 2 is not a count"):
            t.count(2)

    def test_double_matches_exact(self):
        exact = count_table(200, 17, "exact")
        double = count_table(200, 17, "double")
        for m in range(0, 201, 10):
            assert double.fraction(m) == pytest.approx(float(exact.fraction(m)), rel=1e-12)

    def test_monotone_in_m_and_r(self):
        tables = {r: count_table(12, r) for r in range(1, 13)}
        for r, t in tables.items():
            for m in range(12):
                assert t.fraction(m) >= t.fraction(m + 1)
        for r in range(1, 12):
            for m in range(13):
                assert tables[r].fraction(m) <= tables[r + 1].fraction(m)

    def test_csv_roundtrip(self, tmp_path):
        t = count_table(5, 2)
        path = tmp_path / "nu.csv"
        assert main(["count", "--n", "5", "--r", "2", "--out", str(path)]) == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "m,nu_exact_num,nu_exact_den"
        assert len(lines) == 7
        m, num, den = lines[-1].split(",")
        assert Fraction(int(num), int(den)) == t.fraction(5)

    def test_validation(self):
        with pytest.raises(ValueError):
            count_table(-1, 2)
        with pytest.raises(ValueError):
            count_table(5, 0)
        with pytest.raises(ValueError):
            count_table(5, 2).fraction(6)


class TestRestrictedTable:
    def test_d_zero_reproduces_full_table(self):
        mu = restricted_count_table(0, 3, 8)
        nu = count_table(8, 3)
        assert all(mu.fraction(m) == nu.fraction(m) for m in range(9))

    def test_zero_below_window(self):
        mu = restricted_count_table(2, 5, 8)
        assert mu.fraction(0) == 1
        assert mu.fraction(1) == 0 and mu.fraction(2) == 0

    def test_three_cycles_only(self):
        # window (2, 3]: exactly the two 3-cycles of S_3
        mu = restricted_count_table(2, 3, 4)
        assert mu.fraction(3) == Fraction(2, 6)

    def test_empty_window(self):
        mu = restricted_count_table(3, 3, 5)
        assert mu.fraction(0) == 1
        assert all(mu.fraction(m) == 0 for m in range(1, 6))

    def test_validation(self):
        with pytest.raises(ValueError):
            restricted_count_table(4, 3, 5)


def assert_logs_close(double, exact, rel=1e-10):
    """log f agrees to ``rel`` relative (0 exactly where log f = 0), and f to ``rel`` relative."""
    got, want = double.log_view(), exact.log_view()[: double.n_max + 1]
    assert got.shape == want.shape
    zero = want == -np.inf
    assert np.array_equal(got == -np.inf, zero)
    error = np.abs(got[~zero] - want[~zero])
    assert np.all(error <= rel * np.abs(want[~zero]))
    assert error.max(initial=0.0) <= rel


@pytest.fixture(scope="module")
def exact_nu_6000_30():
    return count_table(6000, 30, "exact")


class TestWindowTable:
    """The block-scaled double table against the exact rationals, deep in the tail."""

    @pytest.mark.parametrize("n", [3000, 6000])
    def test_nu_deep_tail_r30(self, n, exact_nu_6000_30):
        double = count_table(n, 30, "double")
        assert double.log_view()[n] < math.log(1e-224)  # u = 100: far below 1e-35
        assert_logs_close(double, exact_nu_6000_30)

    def test_nu_deep_tail_r100(self):
        assert_logs_close(count_table(3000, 100, "double"), count_table(3000, 100, "exact"))

    # (1, 30, 3000): chunks of 2 entries at u = 100; (29, 30, 3000): the width-1
    # window, where mu is non-zero only at multiples of 30
    @pytest.mark.parametrize("d,r,n", [(2, 5, 60), (4, 30, 3000), (1, 30, 3000), (29, 30, 3000)])
    def test_mu_deep_tail(self, d, r, n):
        double = restricted_count_table(d, r, n, "double")
        assert_logs_close(double, restricted_count_table(d, r, n, "exact"))
        assert double.fraction(n) > 0

    def test_mu_below_double_range(self):
        # the window [2, 3]: mu(3000) = e^-6910, far below the smallest double (e^-744)
        double = restricted_count_table(1, 3, 3000, "double")
        assert double.log_view()[3000] < -6900
        assert_logs_close(double, restricted_count_table(1, 3, 3000, "exact"))

    def test_every_small_window(self):
        for lo in range(1, 7):
            for hi in range(lo - 1, 9):
                assert_logs_close(window_table(lo, hi, 40, "double"), window_table(lo, hi, 40, "exact"), 1e-12)

    def test_mu_pass_agrees_with_nu_table(self):
        # the mean number of fixed points from the mu pass (through the joint law)
        # against nu(n-1, r)/nu(n, r) from the nu table
        n, r = 10**5, 1000
        pmf = joint_pmf(n, r, 1, mode="double")
        assert pmf.total_mass == pytest.approx(1.0, abs=1e-9)
        want = expected_count(n, r, 1, count_table(n, r, "double"))
        assert pmf.expectation(1) == pytest.approx(want, rel=5e-13)

    def test_wrappers_are_windows(self):
        assert count_table(20, 4).values == window_table(1, 4, 20).values
        assert restricted_count_table(2, 4, 20).values == window_table(3, 4, 20).values
        t = restricted_count_table(2, 4, 20, "double")
        assert (t.lo, t.hi, t.d, t.r, t.n_max) == (3, 4, 2, 4, 20)

    def test_nu_exact_below_r(self):
        t = count_table(500, 300, "double")
        assert np.all(t.log_view()[:301] == 0.0)
        assert t.fraction(300) == 1.0

    def test_window_wider_than_table(self):
        # cycles longer than n_max never occur, so a huge r costs nothing
        t = count_table(5, 10**9, "double")
        assert t.r == 10**9 and np.all(t.log_view() == 0.0)
        assert_logs_close(restricted_count_table(2, 10**9, 40, "double"), restricted_count_table(2, 40, 40, "exact"))

    def test_large_table_matches_dickman_scale(self):
        # nu(10^6, 10^5) ~ rho(10) = 2.77e-11; a block costs one cumsum
        t = count_table(10**6, 10**5, "double")
        assert t.n_max == 10**6
        assert t.fraction(10**6) == pytest.approx(2.7706291833e-11, rel=1e-8)

    def test_csv_double_has_log_column(self, tmp_path, monkeypatch):
        # count picks exact rationals up to n = 200; force the double table at n = 5
        monkeypatch.setattr(cli, "table_mode", lambda n: "double")
        path = tmp_path / "nu.csv"
        assert main(["count", "--n", "5", "--r", "2", "--out", str(path)]) == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "m,nu_double,log_nu_double"
        m, nu, log_nu = lines[-1].split(",")
        assert float(nu) == pytest.approx(26 / 120, rel=1e-14)
        assert float(log_nu) == pytest.approx(math.log(26 / 120), rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            window_table(0, 3, 5)
        with pytest.raises(ValueError):
            window_table(5, 3, 5)
        with pytest.raises(ValueError):
            window_table(1, 3, -1)
        with pytest.raises(ValueError):
            window_table(1, 3, 5, "single")

    def test_log_fraction_below_double_range(self):
        assert log_fraction(Fraction(0)) == -math.inf
        assert log_fraction(Fraction(3, 7)) == pytest.approx(math.log(3 / 7), rel=1e-15)
        assert log_fraction(Fraction(1, 10**400)) == pytest.approx(-400 * math.log(10), rel=1e-15)

    def test_int_str_beyond_digit_limit(self):
        assert int_str(12) == "12"
        assert int_str(10**5000) == "1" + "0" * 5000


class TestFirstElementLaw:
    def test_uniform_when_unrestricted(self):
        n = 9
        pmf = first_element_cycle_length_pmf(n, n, count_table(n, n))
        assert all(p == Fraction(1, n) for p in pmf)

    def test_n4_r2(self):
        t = count_table(4, 2)
        pmf = first_element_cycle_length_pmf(4, 2, t)
        assert pmf[0] == Fraction(2, 5)
        assert pmf[1] == Fraction(3, 5)
        assert sum(pmf) == 1

    @pytest.mark.parametrize("n,r", [(6, 3), (7, 2), (8, 8), (9, 4)])
    def test_sums_to_one_and_positive(self, n, r):
        pmf = first_element_cycle_length_pmf(n, r, count_table(n, r))
        assert sum(pmf) == 1
        assert all(p > 0 for p in pmf)

    def test_validation(self):
        with pytest.raises(ValueError):
            first_element_cycle_length_pmf(4, 5, count_table(5, 5))
        with pytest.raises(ValueError):
            first_element_cycle_length_pmf(9, 3, count_table(5, 3))


class TestNuTableCheck:
    """Every reader of a nu table rejects a table that does not hold nu(m, r) for m <= n.

    A mu table has the right r and length: read as nu, the first-element law
    at (30, 10) summed to 1.09.
    """

    READERS = {  # (30, 12) lies in the regime r >= sqrt(n log n)
        "first_element": lambda t: first_element_cycle_length_pmf(30, 12, t),
        "expected_count": lambda t: expected_count(30, 12, 1, t),
        "expected_count_above_r": lambda t: expected_count(30, 12, 13, t),
        "ratio_check": lambda t: count_ratio_check(30, 12, 1, t),
        "nu_ratios": lambda t: nu_ratios(30, 12, 12, t),
        "factorial_moment": lambda t: factorial_moment(30, 12, (1, 2), t),
        "factorial_moment_zero": lambda t: factorial_moment(30, 12, (0,) * 12 + (1,), t),
        "sample": lambda t: sample_cycle_type(30, 12, np.random.default_rng(0), t),
    }

    @pytest.mark.parametrize("mode", ["exact", "double"])
    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_rejects_tables_that_do_not_cover(self, reader, mode):
        read = self.READERS[reader]
        for table in (restricted_count_table(2, 12, 30, mode), count_table(30, 15, mode), count_table(29, 12, mode)):
            with pytest.raises(ValueError, match="does not cover"):
                read(table)
        read(count_table(30, 12, mode))


class TestJointLaw:
    def test_n4_r2_d1(self):
        pmf = joint_pmf(4, 2, 1)
        assert pmf.entries == {
            CountsVector((0,)): Fraction(3, 10),
            CountsVector((2,)): Fraction(6, 10),
            CountsVector((4,)): Fraction(1, 10),
        }

    def test_n3_full(self):
        pmf = joint_pmf(3, 3, 3)
        assert pmf.probability((3, 0, 0)) == Fraction(1, 6)
        assert pmf.probability((1, 1, 0)) == Fraction(3, 6)
        assert pmf.probability((0, 0, 1)) == Fraction(2, 6)

    @pytest.mark.parametrize("n,r,d", [(5, 3, 2), (6, 4, 3), (7, 3, 3), (6, 6, 6)])
    def test_matches_brute_force(self, n, r, d):
        assert joint_pmf(n, r, d).entries == brute_force_pmf(n, r, d).entries

    def test_total_mass_one(self):
        for n, r, d in [(9, 5, 2), (10, 10, 4)]:
            assert joint_pmf(n, r, d).total_mass == 1

    def test_masses_add_up_to_one(self):
        for n, r, d in [(9, 5, 2), (12, 5, 2), (30, 10, 3)]:
            assert sum(joint_pmf(n, r, d).mass_list()) == 1

    def test_normalization_failure_raises(self, monkeypatch, capsys):
        # the (d+1, r] table in place of mu: the law loses mass
        window = counting.restricted_count_table
        monkeypatch.setattr(
            counting, "restricted_count_table", lambda d, r, n_max, mode="exact": window(d + 1, r, n_max, mode)
        )
        with pytest.raises(ArithmeticError, match="exact joint law failed to normalize"):
            joint_pmf(12, 5, 2)
        assert main(["pmf", "--n", "12", "--r", "5", "--d", "2"]) == 1
        assert "exact joint law failed to normalize" in capsys.readouterr().err

    def test_normalization_check_holds_under_python_O(self, src_env):
        script = """
from shortcycles import counting
window = counting.restricted_count_table
counting.restricted_count_table = lambda d, r, n_max, mode="exact": window(d + 1, r, n_max, mode)
try:
    counting.joint_pmf(12, 5, 2)
except ArithmeticError as exc:
    print(exc)
"""
        result = subprocess.run(
            [sys.executable, "-O", "-c", script], env=src_env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert result.stdout.strip() == "exact joint law failed to normalize"

    def test_support_cap(self, monkeypatch):
        monkeypatch.setenv("SHORTCYCLES_SUPPORT_CAP", "10")
        with pytest.raises(ResourceLimitError, match=r"\d+ vectors"):
            joint_pmf(30, 30, 5)

    def test_support_cap_stops_counting_once_passed(self, monkeypatch):
        # fixed points alone give 31 vectors; the count stops there
        monkeypatch.setenv("SHORTCYCLES_SUPPORT_CAP", "10")
        with pytest.raises(ResourceLimitError, match="has at least 31 vectors, exceeding the cap of 10"):
            joint_pmf(30, 30, 5)
        # passed only by the last part size: the count is exact
        monkeypatch.setenv("SHORTCYCLES_SUPPORT_CAP", str(support_size(30, 5) - 1))
        with pytest.raises(ResourceLimitError, match=f"has {support_size(30, 5)} vectors"):
            joint_pmf(30, 30, 5)

    def test_support_size_matches_enumeration(self):
        pmf = joint_pmf(6, 6, 2)
        grid = {(c1, c2) for c1 in range(7) for c2 in range(4) if c1 + 2 * c2 <= 6}
        assert support_size(6, 2) == len(grid)

    def test_validation(self):
        with pytest.raises(ValueError):
            joint_pmf(4, 2, 3)

    @pytest.mark.parametrize("n,r,d", [(12, 5, 3), (60, 20, 2)])
    def test_double_matches_exact(self, n, r, d):
        exact = joint_pmf(n, r, d)
        double = joint_pmf(n, r, d, mode="double")
        assert set(double.entries) == set(exact.entries)
        for cv, p in exact.entries.items():
            assert double.entries[cv] == pytest.approx(float(p), rel=1e-12)

    def test_double_deep_tail_against_exact(self):
        # u = 50: most masses lie below the double range and underflow; the
        # rest track the exact rationals in log
        n, r, d = 1500, 30, 1
        exact = joint_pmf(n, r, d)
        double = joint_pmf(n, r, d, mode="double")
        assert np.array_equal(double.counts, exact.counts)
        exact_logs = np.array([log_fraction(p) for p in exact.masses])
        normal = double.masses >= sys.float_info.min
        assert 0 < normal.sum() < len(double)
        assert np.abs(np.log(double.masses[normal]) - exact_logs[normal]).max() <= 1e-11
        assert np.array_equal(~normal, exact_logs < math.log(sys.float_info.min))

    @pytest.mark.parametrize("mode", ["exact", "double"])
    def test_rows_are_lexicographic_arrays(self, mode):
        pmf = joint_pmf(20, 6, 3, mode=mode)
        assert pmf.counts.dtype == np.int64
        assert pmf.counts.shape == (len(pmf), 3)
        assert [tuple(c) for c in pmf.counts.tolist()] == sorted(cv.counts for cv in pmf.entries)
        assert isinstance(pmf.masses, list if mode == "exact" else np.ndarray)
        assert pmf.mass_list() == [pmf.entries[cv] for cv in pmf.support()]


class TestBruteForce:
    def test_derangements(self):
        pmf = brute_force_pmf(4, 4, 1)
        assert pmf.probability((0,)) == Fraction(9, 24)

    def test_point_mass_n1(self):
        pmf = brute_force_pmf(1, 1, 1)
        assert pmf.entries == {CountsVector((1,)): Fraction(1)}

    def test_empty_permutation(self):
        # n = 0 has one permutation, the empty one, as the count table says
        assert brute_force_count(0, 1) == count_table(0, 1).count(0) == 1
        assert brute_force_pmf(0, 1, 1).entries == {CountsVector((0,)): Fraction(1)}

    def test_cap(self, monkeypatch):
        monkeypatch.setenv("SHORTCYCLES_BRUTE_FORCE_CAP", "5")
        with pytest.raises(ResourceLimitError):
            brute_force_pmf(6, 3, 1)
        with pytest.raises(ResourceLimitError):
            brute_force_count(6, 3)


class TestFactorialMoment:
    """E[prod_j (c_j)_{a_j}] = prod_j j^{-a_j} * nu(n - s, r)/nu(n, r), s = sum_j j*a_j."""

    @pytest.mark.parametrize("n,r,d", [(8, 4, 3), (9, 5, 3), (7, 7, 3), (9, 3, 3), (6, 2, 2), (3, 3, 3)])
    def test_equals_brute_force_moments(self, n, r, d):
        law = brute_force_pmf(n, r, d)
        table = count_table(n, r)
        for a in itertools.product(range(3), repeat=d):
            want = sum(
                p * math.prod(math.perm(c, aj) for c, aj in zip(counts, a))
                for counts, p in zip(law.counts.tolist(), law.masses)
            )
            got = factorial_moment(n, r, a, table)
            assert type(got) is Fraction and got == want, (n, r, a)

    def test_zero_for_a_cycle_longer_than_r(self):
        assert factorial_moment(6, 2, (0, 0, 1), count_table(6, 2)) == Fraction(0)
        assert repr(factorial_moment(6, 2, (0, 0, 1), count_table(6, 2, "double"))) == "0.0"

    def test_deep_tail_double_matches_exact(self):
        # u = 150: nu(1500, 10) is about e^-817, below the smallest double
        n, r = 1500, 10
        exact, double = count_table(n, r), count_table(n, r, "double")
        assert double.log_view()[n] < math.log(sys.float_info.min)
        want = np.array([float(x) for x in nu_ratios(n, r, r, exact)])
        np.testing.assert_allclose(nu_ratios(n, r, r, double), want, rtol=1e-12, atol=0)
        for a in [(1,), (2,), (0, 1), (1, 1, 1), (0,) * 9 + (3,), (2, 0, 0, 0, 0, 0, 0, 0, 0, 2)]:
            got = factorial_moment(n, r, a, double)
            assert type(got) is float
            assert got == pytest.approx(float(factorial_moment(n, r, a, exact)), rel=1e-12, abs=0), a
        assert factorial_moment(n, r, (0,) * r + (1,), double) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="a_j >= 0"):
            factorial_moment(6, 3, (1, -1), count_table(6, 3))
        with pytest.raises(ValueError, match="top must be in 0..6"):
            nu_ratios(6, 3, 7, count_table(6, 3))


class TestExpectedCount:
    def test_unrestricted_is_reciprocal(self):
        t = count_table(12, 12)
        for k in range(1, 13):
            assert expected_count(12, 12, k, t) == Fraction(1, k)

    def test_n4_r2(self):
        assert expected_count(4, 2, 1) == Fraction(8, 5)
        pmf = joint_pmf(4, 2, 1)
        assert pmf.expectation(1) == Fraction(8, 5)

    @pytest.mark.parametrize("n,r,d", [(6, 3, 3), (7, 4, 2), (8, 5, 4)])
    def test_consistent_with_joint_law(self, n, r, d):
        t = count_table(n, r)
        pmf = joint_pmf(n, r, d)
        for k in range(1, d + 1):
            assert expected_count(n, r, k, t) == pmf.expectation(k)

    def test_zero_above_r(self):
        assert expected_count(6, 3, 5) == 0

    def test_large_n_without_table_reads_a_double_table(self, src_env):
        # an exact table at n = 10^5 would take about an hour
        script = "from shortcycles.counting import expected_count; print(repr(expected_count(10**5, 1000, 1)))"
        result = subprocess.run([sys.executable, "-c", script], env=src_env, capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr[-2000:]
        assert float(result.stdout) == expected_count(10**5, 1000, 1, count_table(10**5, 1000, "double"))

    def test_errors(self):
        with pytest.raises(ValueError):
            expected_count(5, 3, 6)
        with pytest.raises(ValueError):
            expected_count(5, 6, 1)


class TestSparsePMF:
    # the law's CSV file is written by ``pmf --out``
    def test_csv(self, tmp_path):
        pmf = joint_pmf(4, 2, 2)
        path = tmp_path / "pmf.csv"
        assert main(["pmf", "--n", "4", "--r", "2", "--d", "2", "--out", str(path)]) == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "c_1,c_2,probability"
        assert len(lines) == len(pmf.entries) + 1

    @pytest.mark.parametrize("n,r,d,mode", [(80, 20, 4, "double"), (12, 5, 3, "exact")])
    def test_csv_bytes_match_csv_writer(self, n, r, d, mode, tmp_path):
        path = tmp_path / "pmf.csv"
        assert main(["pmf", "--n", str(n), "--r", str(r), "--d", str(d), "--mode", mode, "--out", str(path)]) == 0
        assert path.read_bytes() == pmf_csv_by_writer(d, joint_pmf(n, r, d, mode=mode).entries)

    def test_csv_bytes_of_dict_built_law(self, tmp_path):
        # brute force tallies in enumeration order, not lexicographic order
        path = tmp_path / "pmf.csv"
        assert main(["pmf", "--n", "7", "--r", "4", "--d", "3", "--out", str(path)]) == 0
        assert path.read_bytes() == pmf_csv_by_writer(3, brute_force_pmf(7, 4, 3).entries)

    def test_dict_built_law_matches_joint_law(self):
        law = joint_pmf(7, 4, 3)
        rebuilt = SparsePMF(3, dict(reversed(list(brute_force_pmf(7, 4, 3).entries.items()))), "exact")
        assert np.array_equal(rebuilt.counts, law.counts)
        assert rebuilt.masses == law.masses
        assert rebuilt.total_mass == 1
        assert [rebuilt.expectation(k) for k in (1, 2, 3)] == [law.expectation(k) for k in (1, 2, 3)]

    def test_entries_view(self):
        pmf = joint_pmf(6, 3, 2)
        assert len(pmf.entries) == len(pmf) == 7
        assert pmf.entries == dict(zip(pmf.support(), pmf.masses))
        assert CountsVector((0, 3)) in pmf.entries
        assert pmf.probability((1, 0)) == 0  # 5 elements left, all in 3-cycles: impossible

    def test_from_arrays_rejects_misaligned_masses(self):
        with pytest.raises(ValueError, match="2 masses for 1 count vectors"):
            SparsePMF.from_arrays(1, np.zeros((1, 1), dtype=np.int64), [0.5, 0.5], "double")


class TestRatioCheck:
    def test_unrestricted_gap_is_zero(self):
        report = count_ratio_check(50, 50, 3)
        assert report.exact_ratio == 1.0
        assert report.predicted == 1.0
        assert report.relative_gap == 0.0

    def test_k_zero(self):
        assert count_ratio_check(100, 80, 0).exact_ratio == 1.0

    def test_moderate_case_small_gap(self):
        n, r, k = 10000, 5000, 3
        report = count_ratio_check(n, r, k, count_table(n, r, "double"))
        u = n / r
        assert report.relative_gap <= 5 * u * math.log(u + 1) / r

    @pytest.mark.filterwarnings("ignore:.*lies outside r >= sqrt")
    def test_ratio_beyond_double_range_raises(self):
        # R(200) = 200! at r = 1; nu(20000, 100) is about e^-1213
        with pytest.raises(ValueError, match=r"nu\(0, 1\)/nu\(200, 1\) = exp\(863\.2"):
            count_ratio_check(200, 1, 200)
        n, r = 20000, 100
        table = count_table(n, r, "double")
        with pytest.raises(ValueError, match=r"nu\(0, 100\)/nu\(20000, 100\) = exp\(1213\.2"):
            count_ratio_check(n, r, n, table)
        with pytest.raises(ValueError, match="beyond the double range"):
            nu_ratios(n, r, n, table)
        logs = table.log_view()
        top = max(m for m in range(n + 1) if logs[n - m] - logs[n] <= LOG_DOUBLE_MAX)
        assert np.isfinite(nu_ratios(n, r, top, table)).all()
        with pytest.raises(ValueError, match="beyond the double range"):
            nu_ratios(n, r, top + 1, table)

    def test_warns_outside_regime(self):
        with pytest.warns(UserWarning):
            count_ratio_check(100, 5, 1, count_table(100, 5, "double"))
