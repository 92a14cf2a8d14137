import csv
import hashlib
import itertools
import json
import math
import re
import shlex
import subprocess
import sys

import warnings
from pathlib import Path

import numpy as np
import pytest

from oracles import csv_by_writer, nu_table_rows, pmf_csv_by_writer, pmf_printed_by_dict, rho_grid_rows
from shortcycles import cli, counting, numtext
from shortcycles.cli import main
from shortcycles.counting import joint_pmf
from shortcycles.distances import tv_cycle_counts
from shortcycles.permutations import Permutation, cycle_structure
from shortcycles.sampling import SamplerConfig, draw, draw_cycle_types


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def printed(out, name):
    """The value after ``name = `` on the line that starts with it."""
    return next(line for line in out.splitlines() if line.startswith(name + " = ")).split(" = ")[-1]


class TestCount:
    def test_example(self, capsys):
        code, out, _ = run(["count", "--n", "4", "--r", "2", "--exact"], capsys)
        assert code == 0
        assert "10" in out
        assert "5/12" in out

    def test_double_mode_prints_plain_float(self, capsys):
        for n, r in [(300, 30), (1000, 200)]:
            code, out, _ = run(["count", "--n", str(n), "--r", str(r)], capsys)
            assert code == 0
            assert "np.float64" not in out
            assert 0 < float(printed(out, "nu")) < 1

    def test_deep_tail(self, capsys):
        code, out, _ = run(["count", "--n", "3000", "--r", "30"], capsys)
        assert code == 0
        assert float(printed(out, "nu")) == pytest.approx(3.108010735518831e-225, rel=1e-9)
        assert math.exp(float(printed(out, "log_nu"))) == pytest.approx(3.108010735518831e-225, rel=1e-9)

    def test_below_double_range_prints_scientific(self, capsys):
        code, out, _ = run(["count", "--n", "100000", "--r", "300"], capsys)
        assert code == 0
        mantissa, exponent = printed(out, "nu").split("e")
        log_nu = float(printed(out, "log_nu"))
        assert 1 <= float(mantissa) < 10
        assert int(exponent) == math.floor(log_nu / math.log(10)) < -308
        assert math.log10(float(mantissa)) + int(exponent) == pytest.approx(log_nu / math.log(10), rel=1e-13)

    def test_exact_beyond_int_digit_limit(self, capsys):
        code, out, _ = run(["count", "--n", "3000", "--r", "30", "--exact"], capsys)
        assert code == 0
        count = printed(out, "|restricted set|")
        assert count.isdigit() and len(count) > 4300
        assert float(printed(out, "nu")) == 3.108010735518831e-225

    def test_csv_out(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        code, _, _ = run(["count", "--n", "6", "--r", "3", "--out", str(path)], capsys)
        assert code == 0
        assert path.read_text().startswith("m,nu_exact_num,nu_exact_den")

    def test_nu_column_is_math_exp_of_each_log(self, tmp_path, capsys):
        # numpy's exp differs from math.exp in the last bit on 11 of these 301 entries
        path = tmp_path / "table.csv"
        assert run(["count", "--n", "300", "--r", "40", "--out", str(path)], capsys)[0] == 0
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        logs = np.array([float(log_nu) for _, _, log_nu in rows])
        assert [float(nu) for _, nu, _ in rows] == list(map(math.exp, logs))
        assert not np.array_equal(np.exp(logs), list(map(math.exp, logs)))


class TestPmf:
    def test_exact_stdout(self, capsys):
        code, out, err = run(["pmf", "--n", "12", "--r", "5", "--d", "3"], capsys)
        assert code == 0
        assert out == pmf_printed_by_dict(joint_pmf(12, 5, 3).entries)
        assert err == ""

    def test_double_stdout(self, capsys):
        code, out, _ = run(["pmf", "--n", "30", "--r", "7", "--d", "2", "--mode", "double"], capsys)
        assert code == 0
        assert out == pmf_printed_by_dict(joint_pmf(30, 7, 2, mode="double").entries)

    def test_double_csv_without_underflow_is_quiet(self, tmp_path, capsys):
        path = tmp_path / "pmf.csv"
        code, out, err = run(["pmf", "--n", "80", "--r", "20", "--d", "4", "--mode", "double", "--out", str(path)], capsys)
        assert code == 0
        assert out == f"pmf written to {path} (76993 support points)\n"
        assert err == ""

    def test_double_underflow_is_reported(self, tmp_path, capsys):
        # u = 50: 1316 masses underflow to 0.0 and 7 are subnormal
        path = tmp_path / "pmf.csv"
        code, out, err = run(["pmf", "--n", "1500", "--r", "30", "--d", "1", "--mode", "double", "--out", str(path)], capsys)
        assert code == 0
        assert out == f"pmf written to {path} (1500 support points)\n"
        assert err.count("\n") == 1
        assert "1323 of 1500 masses lie below the smallest normal double" in err
        assert "--mode exact" in err
        assert path.read_bytes() == pmf_csv_by_writer(1, joint_pmf(1500, 30, 1, mode="double").entries)
        code, out, err_stdout = run(["pmf", "--n", "1500", "--r", "30", "--d", "1", "--mode", "double"], capsys)
        assert err_stdout == err
        assert out.count(" 0.0\n") == 1316


class TestDickman:
    def test_rho_flat_region(self, capsys):
        code, out, _ = run(["dickman", "rho", "--t", "0.5"], capsys)
        assert code == 0
        assert out.strip() == "1.0"

    def test_xi(self, capsys):
        code, out, _ = run(["dickman", "xi", "--t", "2.0"], capsys)
        assert code == 0
        assert float(out) == pytest.approx(1.2564312086261697, rel=1e-10)

    def test_xi_large_t(self, capsys):
        code, out, err = run(["dickman", "xi", "--t", "1e200"], capsys)
        assert code == 0, err
        assert float(out) == pytest.approx(466.6626251653469, rel=1e-14)

    def test_grid_csv(self, tmp_path, capsys):
        path = tmp_path / "rho.csv"
        code, _, _ = run(
            ["dickman", "rho", "--grid", "0", "5", "11", "--out", str(path)], capsys
        )
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,rho,log_rho"
        assert len(lines) == 12

    def test_missing_argument(self, capsys):
        code, _, _ = run(["dickman", "rho"], capsys)
        assert code == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--t", "2", "--out", "rho.csv"], "error: --out needs --grid"),
            (["--t", "2", "--grid", "0", "5", "11"], "error: argument --grid: not allowed with argument --t"),
            (["--log", "--grid", "0", "5", "11"], "error: --log needs --t"),
        ],
    )
    def test_ignored_option_combinations_are_validation_errors(self, argv, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(["dickman", "rho", *argv], capsys)
        assert code == 1
        assert out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and message in errors[0], err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["rho", "--grid", "1", "5", "inf"], "got inf"),
            (["rho", "--grid", "1", "5", "nan"], "got nan"),
            (["rho", "--t", "nan"], "t=nan"),
            (["rho", "--t", "inf"], "t=inf"),
            (["rho", "--t", "nan", "--log"], "t=nan"),
            (["xi", "--t", "nan"], "t=nan"),
            (["xi", "--t", "inf"], "t=inf"),
            (["xi", "--t", "-inf"], "t=-inf"),
            (["rho", "--t", "inf", "--log"], "t=inf"),
            (["rho", "--grid", "0", "inf", "3"], "got 0.0 and inf"),
            # negative values in scientific or inf notation reach the domain checks
            (["rho", "--t", "-1e3"], "t=-1000.0"),
            (["rho", "--grid", "-1e3", "5", "3"], "t=-1000.0"),
            (["rho", "--grid", "-inf", "5", "3"], "got -inf and 5.0"),
            (["rho", "--t", "-inf"], "t=-inf"),
        ],
    )
    @pytest.mark.filterwarnings("error")  # a numpy warning on the way is a failure
    def test_non_finite_values_are_validation_errors(self, argv, message, capsys):
        code, out, err = run(["dickman", *argv], capsys)
        assert code == 1
        assert out == ""
        assert message in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("num", ["2.7", "0", "-3", "nan"])
    def test_grid_count_must_be_a_positive_integer(self, num, tmp_path, capsys):
        path = tmp_path / "rho.csv"
        code, _, err = run(["dickman", "rho", "--grid", "1", "5", num, "--out", str(path)], capsys)
        assert code == 1
        assert "--grid NUM must be a positive integer" in err
        assert not path.exists()

    def test_panel_cap_is_a_resource_error(self, capsys):
        code, out, err = run(["dickman", "rho", "--t", "20000.5"], capsys)
        assert code == 2
        assert out == ""
        assert "20001 Dickman panels, exceeding the cap of 10000" in err

    def test_panel_cap_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SHORTCYCLES_DICKMAN_PANEL_CAP", "30")
        assert run(["dickman", "rho", "--t", "30", "--log"], capsys)[0] == 0
        code, _, err = run(["dickman", "rho", "--t", "30.5"], capsys)
        assert code == 2
        assert "SHORTCYCLES_DICKMAN_PANEL_CAP" in err
        path = tmp_path / "rho.csv"
        assert run(["dickman", "rho", "--grid", "1", "40", "4", "--out", str(path)], capsys)[0] == 2
        assert not path.exists()

    @pytest.mark.parametrize(
        "t, out",
        [
            ("2.5", "0.13031956183225074\n"),
            ("127", "2.042361859043638e-307\n"),
            # below the normal double range the value is printed from log rho, as count prints nu
            ("128", "2.35722692950821e-310\n"),
            ("268", "3.60166582193533e-751\n"),
        ],
    )
    def test_rho_below_the_double_range_is_printed_from_its_log(self, t, out, capsys):
        assert run(["dickman", "rho", "--t", t], capsys) == (0, out, "")

    def test_rho_deep_in_the_tail_agrees_with_log_rho(self, capsys):
        code, out, _ = run(["dickman", "rho", "--t", "300"], capsys)
        assert code == 0
        mantissa, exponent = out.split("e")
        code, log_out, _ = run(["dickman", "rho", "--t", "300", "--log"], capsys)
        assert code == 0
        assert math.log(float(mantissa)) + int(exponent) * math.log(10) == pytest.approx(float(log_out), rel=1e-14)

    @pytest.mark.parametrize(
        "argv, t", [(["rho", "--t", "1e308"], "1e+308"), (["rho", "--t", "1e300", "--log"], "1e+300")]
    )
    def test_panel_cap_names_t_not_its_digits(self, argv, t, capsys):
        # ceil(t) panels, printed as t is: not the hundreds of digits of floor(t) + 1
        message = f"rho at t={t} needs {t} Dickman panels, exceeding the cap of 10000 (SHORTCYCLES_DICKMAN_PANEL_CAP)"
        assert run(["dickman", *argv], capsys) == (2, "", f"resource cap: {message}\n")

    def test_t_max_option_is_gone(self, capsys):
        # rho(300) lies below the smallest double and is printed from its log
        assert run(["dickman", "rho", "--t", "300"], capsys) == (0, "4.7783809616497e-858\n", "")
        code, _, err = run(["dickman", "rho", "--t", "5", "--t-max", "1e9"], capsys)
        assert code == 1
        assert "--t-max" in err

    def test_tolerance_option_is_gone(self, capsys):
        code, _, err = run(["dickman", "rho", "--t", "2.5", "--tolerance", "1e-9"], capsys)
        assert code == 1
        assert "--tolerance" in err

    @pytest.mark.parametrize("argv", [["ratio", "--t", "20", "--v", "1"], ["gamma-check", "--t", "30"]])
    def test_self_check_commands_are_gone(self, argv, capsys):
        # the ratio and Gamma-bound checks of the evaluator are tests of log_rho now
        code, out, err = run(["dickman", *argv], capsys)
        assert (code, out) == (1, "")
        assert f"error: argument dickman_command: invalid choice: '{argv[0]}'" in err


class TestBound:
    def test_example_value(self, capsys):
        import math

        code, out, _ = run(
            ["bound", "--n", "1000", "--r", "1000", "--d", "1", "--C", "1", "--which", "refined"],
            capsys,
        )
        assert code == 0
        value = float(out.splitlines()[0].split("=")[1])
        assert value == pytest.approx(10 / 999 + 2 * math.log(2) / 1e6, rel=1e-12)

    def test_both(self, capsys):
        code, out, _ = run(["bound", "--n", "100", "--r", "50", "--d", "2"], capsys)
        assert code == 0
        assert "refined" in out and "macroscopic" in out

    @pytest.mark.parametrize("which", ["refined", "macroscopic", "both"])
    @pytest.mark.parametrize("constant", ["-1", "0", "nan", "inf"])
    def test_constant_must_be_finite_and_positive(self, capsys, constant, which):
        argv = ["bound", "--n", "10", "--r", "5", "--d", "1", "--C", constant, "--which", which]
        code, out, err = run(argv, capsys)
        assert code == 1
        assert out == ""
        assert "C=" in err and constant in err


class TestSample:
    def test_deterministic_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sample", "--n", "8", "--r", "4", "--count", "100", "--seed", "5"]
        assert run(args + ["--out", str(a)], capsys)[0] == 0
        assert run(args + ["--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_deep_tail(self, tmp_path, capsys):
        path = tmp_path / "types.csv"
        code, _, err = run(["sample", "--n", "1000", "--r", "20", "--count", "4", "--out", str(path)], capsys)
        assert code == 0, err
        rows = path.read_text().strip().splitlines()[1:]
        assert len(rows) == 4
        for row in rows:
            lengths = [int(x) for x in row.split(",")[1].split()]
            assert sum(lengths) == 1000 and max(lengths) <= 20 and lengths == sorted(lengths)

    def test_full_rows_are_bijections_with_short_cycles(self, tmp_path, capsys):
        path = tmp_path / "perms.csv"
        code, _, _ = run(["sample", "--n", "300", "--r", "7", "--count", "5", "--full", "--out", str(path)], capsys)
        assert code == 0
        for row in path.read_text().strip().splitlines()[1:]:
            p = Permutation([int(x) for x in row.split(",")[1].split()])
            assert max(cycle_structure(p).lengths) <= 7

    def test_full_mapping_output(self, tmp_path, capsys):
        path = tmp_path / "perm.csv"
        code, _, _ = run(
            ["sample", "--n", "5", "--r", "5", "--count", "3", "--full", "--out", str(path)],
            capsys,
        )
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "index,mapping"
        first = lines[1].split(",")[1].split()
        assert sorted(int(x) for x in first) == [0, 1, 2, 3, 4]

    def test_mcmc_method(self, tmp_path, capsys):
        path = tmp_path / "chain.csv"
        code, _, _ = run(
            [
                "sample", "--n", "6", "--r", "3", "--method", "mcmc", "--count", "10",
                "--burn-in", "50", "--thinning", "5", "--out", str(path),
            ],
            capsys,
        )
        assert code == 0
        assert len(path.read_text().strip().splitlines()) == 11

    def test_rejection_method_is_gone(self, capsys):
        code, out, err = run(["sample", "--n", "6", "--r", "3", "--method", "rejection", "--count", "2"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("usage: shortcycles sample")
        assert "invalid choice: 'rejection'" in err

    def test_mcmc_single_element(self, src_env):
        # no transposition exists, so the walk keeps the fixed point; run in
        # a subprocess with a timeout in case the step loops on its draw
        result = subprocess.run(
            [sys.executable, "-m", "shortcycles", "sample", "--method", "mcmc", "--n", "1", "--r", "1", "--count", "2"],
            env=src_env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == ["0 1", "1 1"]

    def test_mcmc_starts_stationary(self, capsys):
        # an identity start would print about 1998 fixed points per row
        code, out, _ = run(
            ["sample", "--n", "2000", "--r", "400", "--method", "mcmc", "--count", "16", "--seed", "1"], capsys
        )
        assert code == 0
        rows = [[int(x) for x in line.split()[1:]] for line in out.splitlines()]
        assert len(rows) == 16
        for row in rows:
            assert sum(row) == 2000 and max(row) <= 400 and row == sorted(row)
        assert sum(row.count(1) for row in rows) / len(rows) <= 10

    def test_mcmc_full_rows_label_the_chain_types(self, capsys):
        argv = ["sample", "--n", "12", "--r", "4", "--method", "mcmc", "--count", "8", "--seed", "2",
                "--burn-in", "3", "--thinning", "2"]
        code, out, _ = run(argv, capsys)
        assert code == 0
        types = [tuple(int(x) for x in line.split()[1:]) for line in out.splitlines()]
        code, out, _ = run([*argv, "--full"], capsys)
        assert code == 0
        perms = [Permutation(tuple(int(x) for x in line.split()[1:])) for line in out.splitlines()]
        assert [cycle_structure(p).lengths for p in perms] == types

    @pytest.mark.parametrize("full", [False, True], ids=["types", "full"])
    @pytest.mark.parametrize("method", ["sequential", "mcmc"])
    def test_rows_equal_the_library(self, method, full, capsys):
        # the CLI builds no table and makes no method choice of its own
        argv = ["sample", "--n", "30", "--r", "6", "--method", method, "--count", "20", "--seed", "5",
                "--burn-in", "3", "--thinning", "2"]
        code, out, err = run([*argv, "--full"] if full else argv, capsys)
        assert code == 0, err
        cfg = SamplerConfig(30, 6, method, mcmc_burn_in=3, mcmc_thinning=2)
        if full:
            rows = draw(cfg, 20, np.random.default_rng(5)).tolist()
        else:
            rows = draw_cycle_types(cfg, 20, np.random.default_rng(5))
        assert out.splitlines() == [" ".join(map(str, [i, *row])) for i, row in enumerate(rows)]

    @pytest.mark.parametrize(
        "n,r,count",
        [(1, 1, 3), (6, 3, 0), (10001, 100, 2), (50, 10, 12000)],
        # a 5-digit entry crosses a 4-cell word; the index passes 9999 over several blocks
        ids=["n1", "count0", "n10001", "n50-count12000"],
    )
    @pytest.mark.parametrize("method", ["sequential", "mcmc"])
    def test_full_bytes_equal_rows_built_one_draw_at_a_time(self, method, n, r, count, tmp_path, capsys):
        argv = ["sample", "--n", str(n), "--r", str(r), "--method", method, "--count", str(count), "--seed", "7",
                "--burn-in", "2", "--thinning", "3", "--full"]
        cfg = SamplerConfig(n, r, method, mcmc_burn_in=2, mcmc_thinning=3)
        rows = [(i, " ".join(str(x) for x in row)) for i, row in enumerate(draw(cfg, count, np.random.default_rng(7)))]
        path = tmp_path / "full.csv"
        assert run([*argv, "--out", str(path)], capsys) == (0, f"{count} samples written to {path}\n", "")
        assert path.read_bytes() == csv_by_writer(["index", "mapping"], rows)
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert out == "".join(f"{i} {line}\n" for i, line in rows)

    def test_zero_thinning_is_a_validation_error(self, tmp_path, capsys):
        path = tmp_path / "never.csv"
        code, _, err = run(
            [
                "sample", "--n", "6", "--r", "3", "--method", "mcmc", "--count", "2",
                "--thinning", "0", "--out", str(path),
            ],
            capsys,
        )
        assert code == 1
        assert "need 1 <= mcmc_thinning, got mcmc_thinning=0" in err
        assert not path.exists()

    def test_negative_count_is_a_validation_error(self, tmp_path, capsys):
        for extra in ([], ["--full"]):
            path = tmp_path / "never.csv"
            code, _, err = run(
                ["sample", "--n", "8", "--r", "4", "--count", "-1", "--out", str(path), *extra], capsys
            )
            assert code == 1
            assert "need 0 <= count, got count=-1" in err
            assert not path.exists()


class TestTv:
    def test_exact_json(self, tmp_path, capsys):
        path = tmp_path / "tv.json"
        code, _, _ = run(
            ["tv", "--n", "6", "--r", "3", "--d", "2", "--out", str(path)], capsys
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == 1
        assert 0 <= payload["tv"] <= 1

    def test_exact_matches_identity(self, capsys):
        code, out, _ = run(["tv", "--n", "30", "--r", "10", "--d", "3"], capsys)
        assert code == 0
        assert json.loads(out)["tv"] == tv_cycle_counts(30, 10, 3)

    def test_exact_beyond_joint_law_support_cap(self, tmp_path, capsys):
        # the joint law of (400, 100, 6) has more than 10^7 support points
        path = tmp_path / "tv.json"
        code, _, err = run(["tv", "--n", "400", "--r", "100", "--d", "6", "--out", str(path)], capsys)
        assert code == 0, err
        assert 0 <= json.loads(path.read_text())["tv"] <= 1

    def test_mc_mode(self, capsys):
        code, out, _ = run(
            ["tv", "--n", "8", "--r", "4", "--d", "2", "--mode", "mc", "--samples", "2000"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert "stderr" in payload

    def test_exact_below_double_range_is_an_error(self, tmp_path, capsys):
        # the distance at (300, 300, 1) is 2.2e-527; it used to be printed and written as 0.0
        path = tmp_path / "sweep.csv"
        for argv in (
            ["tv", "--n", "300", "--r", "300", "--d", "1"],
            ["sweep", "--n", "300", "--r", "300", "--d", "1", "--out", str(path)],
        ):
            code, out, err = run(argv, capsys)
            assert code == 1
            assert out == ""
            below = "below the smallest normal double 2.2250738585072014e-308"
            assert err == f"error: tv at n=300, r=300, d=1 is 2.1967e-527, {below}\n"
        assert not path.exists()

    @pytest.mark.parametrize("n,r,d", [(10, 3, 5), (10, 3, 0), (10, 12, 2), (5, 0, 1)])
    def test_mc_and_exact_share_one_domain(self, n, r, d, capsys):
        # mc answers only where exact does, with the same message
        argv = ["tv", "--n", str(n), "--r", str(r), "--d", str(d)]
        expected = (1, "", f"error: need 1 <= d <= r <= n, got d={d}, r={r}, n={n}\n")
        assert run(argv, capsys) == expected
        assert run(argv + ["--mode", "mc", "--samples", "10"], capsys) == expected

    def test_mc_needs_two_samples(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        for argv in (
            ["tv", "--n", "8", "--r", "4", "--d", "2", "--mode", "mc", "--samples", "1"],
            ["sweep", "--n", "8", "--r", "4", "--d", "2", "--tv-mode", "mc", "--samples", "1", "--out", str(path)],
        ):
            code, out, err = run(argv, capsys)
            assert code == 1
            assert out == ""
            assert "need at least 2 samples for a standard error, got 1" in err
        assert not path.exists()


PINNED_STEIN_MC = """\
{
  "d": 4,
  "mode": "mc",
  "n": 2000,
  "r": 400,
  "samples": 50,
  "schema_version": 1,
  "seed": 7,
  "terms": [
    {
      "creation_se": 0.00023396675200046188,
      "creation_term": 0.002021010505252627,
      "destruction_se": 0.005694817405898963,
      "destruction_term": 0.009684842421210607,
      "k": 1
    },
    {
      "creation_se": 0.00011140182425584146,
      "creation_term": 0.0010505252626313159,
      "destruction_se": 0.014546802279339265,
      "destruction_term": 0.021030515257628814,
      "k": 2
    },
    {
      "creation_se": 6.469789350535999e-05,
      "creation_term": 0.0004902451225612805,
      "destruction_se": 0.006825824359694846,
      "destruction_term": 0.012526263131565782,
      "k": 3
    },
    {
      "creation_se": 4.7269193723014895e-05,
      "creation_term": 0.0003251625812906452,
      "destruction_se": 0.0040153215365205846,
      "destruction_term": 0.0041070535267633814,
      "k": 4
    }
  ],
  "total_bound": 0.025617808904452227
}
"""


class TestSteinVerify:
    def test_exhaustive_report(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code, _, _ = run(
            ["stein-verify", "--n", "5", "--r", "4", "--d", "3", "--exhaustive", "--out", str(path)],
            capsys,
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["mismatch_counts"]["creation"] == 0
        for m in payload["mismatches"]:
            assert len(m["witness_permutation"]) == 5

    def test_exhaustive_one_record_per_cycle_type(self, tmp_path, capsys):
        # 408211 permutations miss the rearranged variant, in 240 (type, d, k) records
        path = tmp_path / "report.json"
        code, _, _ = run(
            ["stein-verify", "--n", "8", "--r", "8", "--d", "7", "--exhaustive", "--out", str(path)],
            capsys,
        )
        assert code == 0
        payload = json.loads(path.read_text())
        mismatches = payload["mismatches"]
        assert len(mismatches) == 240
        assert payload["mismatch_counts"] == {
            "creation": 0, "destruction": 0, "destruction_rearranged": 408211,
        }
        assert sum(m["class_size"] for m in mismatches) == 408211
        keys = {(tuple(m["witness_permutation"]), m["d"], m["k"], m["which"]) for m in mismatches}
        assert len(keys) == 240

    @pytest.mark.parametrize("d", ["0", "-3"])
    @pytest.mark.parametrize(
        "mode,rule",
        [(["--exhaustive"], "need 1 <= d, got d={d}"), (["--samples", "10"], "need 1 <= d < r <= n, got d={d}, r=4, n=6")],
        ids=["exhaustive", "samples"],
    )
    def test_d_below_one_names_d(self, mode, rule, d, capsys):
        # both modes name the --d the user typed, not a library parameter
        argv = ["stein-verify", "--n", "6", "--r", "4", "--d", d, *mode]
        assert run(argv, capsys) == (1, "", f"error: {rule.format(d=d)}\n")

    def test_r_above_n_names_the_given_values(self, capsys):
        code, _, err = run(["stein-verify", "--n", "5", "--r", "6", "--d", "2", "--exhaustive"], capsys)
        assert code == 1
        assert "got r=6, n=5" in err
        assert "d=1" not in err

    def test_mc_report(self, capsys):
        code, out, _ = run(
            ["stein-verify", "--n", "30", "--r", "15", "--d", "2", "--samples", "200"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["terms"]) == 2

    def test_mc_report_bytes_are_pinned(self, capsys):
        # the report of stein-verify --n 2000 --r 400 --d 4 --samples 50 --seed 7, byte for byte
        code, out, err = run(
            ["stein-verify", "--n", "2000", "--r", "400", "--d", "4", "--samples", "50", "--seed", "7"], capsys
        )
        assert code == 0
        assert err == ""
        assert out == PINNED_STEIN_MC

    @pytest.mark.parametrize(
        "argv,sha256",
        [
            # SHA-256 of the report as the tally-fallback version printed it, which added a stderr note
            (["--n", "7", "--r", "5", "--d", "4", "--exhaustive"],
             "7b9c1e42a7a9c2b6fb13116595ed22d2a85724fd51b3cf366f1d6acf51e39c0e"),
            (["--n", "12", "--r", "3", "--d", "2", "--samples", "5"], None),
            (["--n", "12", "--r", "3", "--d", "4", "--exhaustive"], None),  # d >= r: no terms
            (["--n", "40", "--r", "4", "--d", "3", "--samples", "5"],
             "eeb08803cb3a7d7e0b2f5a6c9e8ea97e4b6ab2a219779b0adf4579cb6f1d3602"),
            (["--n", "12", "--r", "6", "--d", "5", "--exhaustive"],
             "24874aaebdcf1c79c4f0493f3d164c50453e5ff7d6903319dbbdbd227a525bc8"),
        ],
        ids=["7-5-4-exhaustive", "12-3-2-samples", "12-3-4-exhaustive", "40-4-3-samples", "12-6-5-exhaustive"],
    )
    def test_report_bytes_kept_and_stderr_empty(self, argv, sha256, tmp_path, capsys):
        # where a digest is given, r <= 2k-2 for some k: the terms read the display cut at the budget
        path = tmp_path / "report.json"
        code, out, err = run(["stein-verify", *argv], capsys)
        assert code == 0
        assert err == ""
        assert run(["stein-verify", *argv, "--out", str(path)], capsys)[2] == ""
        assert path.read_text() == out
        if sha256 is not None:
            assert hashlib.sha256(out.encode()).hexdigest() == sha256

    def test_mc_needs_two_samples(self, capsys):
        code, out, err = run(["stein-verify", "--n", "30", "--r", "15", "--d", "2", "--samples", "1"], capsys)
        assert code == 1
        assert out == ""
        assert "need at least 2 samples for a standard error, got 1" in err


class TestSweepAndCheck:
    def test_sweep_and_check_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        code, _, _ = run(
            ["sweep", "--n", "8", "10", "--r", "4", "--d", "1", "2", "--out", str(path)], capsys
        )
        assert code == 0
        header = path.read_text().splitlines()[0]
        assert header == "n,r,d,u,tv,refined_C1,macroscopic_C1"
        assert run(["check", str(path)], capsys)[0] == 0

    @pytest.mark.parametrize(
        "grid,bad",
        [
            (["--n", "5", "--r", "0", "--d", "1"], "--r >= 1, got 0"),
            (["--n", "5", "0", "--r", "2", "--d", "1"], "--n >= 1, got 0"),
            (["--n", "5", "--r", "2", "--d", "1", "-3"], "--d >= 1, got -3"),
        ],
    )
    def test_sweep_rejects_grid_values_below_one(self, grid, bad, tmp_path, capsys):
        # a value below 1 is named, not dropped from the grid
        path = tmp_path / "sweep.csv"
        code, out, err = run(["sweep", *grid, "--out", str(path)], capsys)
        assert (code, out, err) == (1, "", f"error: need every {bad}\n")
        assert not path.exists()

    def test_sweep_still_skips_r_above_n_and_d_above_r(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        code, out, _ = run(["sweep", "--n", "6", "--r", "3", "8", "--d", "2", "4", "--out", str(path)], capsys)
        assert (code, out) == (0, f"1 rows written to {path}\n")

    def test_exact_sweep_ignores_support_cap(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SHORTCYCLES_SUPPORT_CAP", "3")
        path = tmp_path / "sweep.csv"
        code, _, _ = run(["sweep", "--n", "40", "--r", "10", "--d", "2", "--out", str(path)], capsys)
        assert code == 0
        row = path.read_text().splitlines()[1].split(",")
        assert float(row[4]) == tv_cycle_counts(40, 10, 2)

    def test_every_output_format_reparses(self, tmp_path, capsys):
        outputs = []
        for args, name in [
            (["count", "--n", "5", "--r", "2"], "count.csv"),
            (["pmf", "--n", "5", "--r", "3", "--d", "2"], "pmf.csv"),
            (["sample", "--n", "6", "--r", "3", "--count", "20", "--seed", "1"], "sample.csv"),
            (["dickman", "rho", "--grid", "0", "3", "7"], "rho.csv"),
            (["tv", "--n", "5", "--r", "3", "--d", "2"], "tv.json"),
            (["stein-verify", "--n", "5", "--r", "3", "--d", "2", "--exhaustive"], "sv.json"),
        ]:
            path = tmp_path / name
            assert run(args + ["--out", str(path)], capsys)[0] == 0
            outputs.append(path)
        for path in outputs:
            assert run(["check", str(path)], capsys)[0] == 0, path

    def test_check_json(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        path.write_text('{"schema_version": 1}\n')
        assert run(["check", str(path)], capsys)[0] == 0
        path.write_text('{"no_version": true}\n')
        assert run(["check", str(path)], capsys)[0] == 1

    def test_check_missing_file(self, capsys):
        assert run(["check", "/nonexistent/file.json"], capsys)[0] == 1

    def test_check_reads_a_full_row_past_the_csv_field_limit(self, tmp_path, capsys):
        # one --full row at n = 30000 is a field of about 169 kB; the csv
        # module's default limit is 128 kB, and check restores it afterwards
        path = tmp_path / "f.csv"
        argv = ["sample", "--n", "30000", "--r", "30000", "--count", "1", "--full", "--out", str(path)]
        assert run(argv, capsys)[0] == 0
        assert path.stat().st_size > csv.field_size_limit()
        limit = csv.field_size_limit()
        code, out, err = run(["check", str(path)], capsys)
        assert (code, out, err) == (0, "ok\n", "")
        assert csv.field_size_limit() == limit

    def test_check_reports_a_csv_error(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "x.csv"
        path.write_text("a,b\r\n1,2\r\n")

        def broken_reader(fh):
            raise csv.Error("field larger than field limit (4)")

        monkeypatch.setattr(csv, "reader", broken_reader)
        code, out, err = run(["check", str(path)], capsys)
        assert (code, out) == (1, "")
        assert err == "unreadable: field larger than field limit (4)\n"


class TestCsvWriter:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--n", "60", "--r", "10", "--count", "5", "--seed", "3"],
            ["sample", "--n", "60", "--r", "10", "--count", "5", "--seed", "3", "--full"],
            ["sweep", "--n", "10", "12", "--r", "4", "6", "--d", "1", "2"],
            ["sweep", "--n", "10", "12", "--r", "4", "6", "--d", "1", "2", "--tv-mode", "skip"],
            ["dickman", "rho", "--grid", "1", "5", "9"],
            ["count", "--n", "12", "--r", "4", "--exact"],
            ["count", "--n", "300", "--r", "40"],
        ],
    )
    def test_bytes_match_csv_writer(self, argv, tmp_path, capsys, monkeypatch):
        # string rows go through _write_csv, number columns through numtext.write_csv
        calls = []
        write_rows, write_columns = cli._write_csv, numtext.write_csv

        def recording_rows(path, header, rows):
            rows = list(rows)
            calls.append((header, rows))
            write_rows(path, header, rows)

        def recording_columns(path, header, columns):
            # a 2-D column is one field per row: its entries joined by spaces
            fields = [
                [" ".join(map(str, row)) for row in column.tolist()] if np.ndim(column) == 2 else np.asarray(column).tolist()
                for column in columns
            ]
            calls.append((header, list(zip(*fields))))
            write_columns(path, header, columns)

        monkeypatch.setattr(cli, "_write_csv", recording_rows)
        monkeypatch.setattr(numtext, "write_csv", recording_columns)
        path = tmp_path / "out.csv"
        assert run(argv + ["--out", str(path)], capsys)[0] == 0
        [(header, rows)] = calls
        assert path.read_bytes() == csv_by_writer(header, rows)

    @pytest.mark.parametrize(
        "argv,header,rows",
        [
            (["count", "--n", "300", "--r", "40"], ["m", "nu_double", "log_nu_double"], lambda: nu_table_rows(300, 40)),
            # nu(m, 100) is subnormal for 544 m and 0.0 from m = 13340 on
            (["count", "--n", "100000", "--r", "100"], ["m", "nu_double", "log_nu_double"], lambda: nu_table_rows(10**5, 100)),
            (["dickman", "rho", "--grid", "0", "5", "9"], ["t", "rho", "log_rho"], lambda: rho_grid_rows(0, 5, 9)),
            (["dickman", "rho", "--grid", "1", "120", "596"], ["t", "rho", "log_rho"], lambda: rho_grid_rows(1, 120, 596)),
        ],
        ids=["count-300", "count-1e5-underflow", "rho-grid-9", "rho-grid-596"],
    )
    def test_number_columns_match_rows_built_one_at_a_time(self, argv, header, rows, tmp_path, capsys):
        path = tmp_path / "out.csv"
        assert run(argv + ["--out", str(path)], capsys)[0] == 0
        assert path.read_bytes() == csv_by_writer(header, rows())

    def test_rows_are_written_as_they_come(self, monkeypatch):
        # row i is made only after the header and rows 0..i-1 are written
        written = []

        class Recorder:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def write(self, text):
                written.append(text)

        monkeypatch.setattr(cli, "open", lambda *args, **kwargs: Recorder(), raising=False)

        def rows():
            for i in range(3):
                assert written == ["index,value\r\n"] + [f"{j},{j * j}\r\n" for j in range(i)]
                yield i, i * i

        cli._write_csv("unused.csv", ["index", "value"], rows())
        assert len(written) == 4

    @pytest.mark.parametrize("field", ["a,b", 'say "x"', "a\rb", "a\nb"])
    def test_field_needing_quotes_is_written_quoted_and_read_back(self, field, tmp_path, capsys):
        rows = [(0, "1"), (1, field)]
        path = tmp_path / "x.csv"
        cli._write_csv(path, ["index", "value"], rows)
        assert path.read_bytes() == csv_by_writer(["index", "value"], rows)
        assert run(["check", str(path)], capsys) == (0, "ok\n", "")
        with open(path, newline="") as fh:
            assert list(csv.reader(fh)) == [["index", "value"]] + [[str(i), field] for i, field in rows]


class TestParser:
    def test_built_once_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_leaves_no_state_between_calls(self, capsys, src_env):
        # options of an earlier call in the same process do not leak into a later one's defaults
        plain = ["sample", "--n", "30", "--r", "6", "--count", "6", "--seed", "4"]
        assert run(["sample", "--n", "30", "--r", "6", "--method", "mcmc", "--burn-in", "5", "--thinning", "3",
                    "--count", "6", "--seed", "9", "--full"], capsys)[0] == 0
        code, out, _ = run(plain, capsys)
        fresh = subprocess.run([sys.executable, "-m", "shortcycles", *plain], env=src_env, capture_output=True,
                               text=True, timeout=60)
        assert code == fresh.returncode == 0
        assert out == fresh.stdout


COMPUTE_MODULES = ("numpy", *(f"shortcycles.{name}" for name in (
    "closedforms", "counting", "dickman", "distances", "permutations", "sampling", "stein", "numtext")))


def loaded_modules(src_env, code: str, among=COMPUTE_MODULES) -> list[str]:
    """The modules of ``among`` (by default the compute modules and numpy) in
    ``sys.modules`` after ``code`` ran in a fresh interpreter."""
    script = f"import sys\n{code}\nprint('loaded:', *sorted(set(sys.modules).intersection({among!r})))"
    result = subprocess.run([sys.executable, "-c", script], env=src_env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1].split()[1:]


class TestImport:
    def test_leaves_out_dataclasses_and_csv(self, src_env):
        # the result records are NamedTuples and only check reads CSV; json, decimal and fractions
        # load where a command uses them, numbers where a size is not an int, and no annotation
        # needs __future__
        lazy = ("dataclasses", "csv", "json", "decimal", "fractions", "numbers", "__future__")
        assert loaded_modules(src_env, "import shortcycles.cli", among=lazy) == []

    @pytest.mark.parametrize("module", ["shortcycles", "shortcycles.cli"])
    def test_start_up_loads_no_compute_module(self, module, src_env):
        assert loaded_modules(src_env, f"import {module}") == []

    @pytest.mark.parametrize(
        "argv, code, modules",
        [
            (["dickman", "xi", "--t", "5"], 0, ["shortcycles.dickman"]),
            (["dickman", "rho", "--t", "5"], 0, ["shortcycles.dickman"]),
            (["dickman", "rho", "--t", "5", "--log"], 0, ["shortcycles.dickman"]),
            (["bound", "--n", "1000000", "--r", "10000", "--d", "5"], 0, ["shortcycles.closedforms"]),
            (["--version"], 0, []),
            (["count", "--n", "4"], 1, []),
            (["check", "{json}"], 0, ["json"]),
        ],
        ids=["xi", "rho-t", "rho-t-log", "bound", "version", "usage-error", "check"],
    )
    def test_command_loads_no_numpy(self, argv, code, modules, src_env, tmp_path):
        path = tmp_path / "report.json"
        path.write_text('{"schema_version": 1}\n')
        argv = [str(path) if a == "{json}" else a for a in argv]
        script = f"from shortcycles.cli import main\nassert main({argv!r}) == {code}"
        # json, decimal and fractions load only with a command that uses them
        assert loaded_modules(src_env, script, among=(*COMPUTE_MODULES, "json", "decimal", "fractions")) == modules

    def test_count_loads_only_what_it_uses(self, src_env):
        script = "from shortcycles.cli import main\nassert main(['count', '--n', '1000', '--r', '100']) == 0"
        loaded = loaded_modules(src_env, script)
        assert "shortcycles.counting" in loaded
        unused = {"shortcycles.stein", "shortcycles.sampling", "shortcycles.distances", "shortcycles.dickman"}
        assert not unused & set(loaded), loaded


class TestExitCodes:
    def test_validation_error_is_one(self, capsys):
        assert run(["count", "--n", "4", "--r", "0"], capsys)[0] == 1

    def test_usage_error_is_one(self, capsys):
        assert run(["count", "--n", "4"], capsys)[0] == 1
        assert run(["frobnicate"], capsys)[0] == 1

    def test_resource_cap_is_two(self, capsys, monkeypatch):
        monkeypatch.setenv("SHORTCYCLES_SUPPORT_CAP", "3")
        assert run(["pmf", "--n", "10", "--r", "5", "--d", "2"], capsys)[0] == 2

    @pytest.mark.parametrize("value", ["abc", "1.5", "-1", "0"])
    @pytest.mark.parametrize(
        "variable,argv",
        [
            ("SHORTCYCLES_SUPPORT_CAP", ["pmf", "--n", "8", "--r", "4", "--d", "2"]),
            ("SHORTCYCLES_DICKMAN_PANEL_CAP", ["dickman", "rho", "--t", "5"]),
        ],
        ids=["support", "panel"],
    )
    def test_cap_that_is_not_a_positive_integer_is_one(self, variable, argv, value, capsys, monkeypatch):
        # no command enumerates by brute force, so SHORTCYCLES_BRUTE_FORCE_CAP is checked in test_api
        monkeypatch.setenv(variable, value)
        assert run(argv, capsys) == (1, "", f"error: {variable} must be a positive integer, got {value!r}\n")

    @pytest.mark.parametrize(
        "argv",
        [["count", "--n", "1000000000000000", "--r", "5"], ["dickman", "rho", "--grid", "0", "1", "1e15"]],
        ids=["count", "dickman-grid"],
    )
    def test_refused_allocation_is_two(self, argv, capsys):
        # 10^15 doubles are 8 PB, beyond any user address space, so the allocation fails at once
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("resource: Unable to allocate") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "argv",
        [
            ["pmf", "--n", "1000000", "--r", "10000", "--d", "5000", "--mode", "double"],
            ["stein-verify", "--n", "1000000", "--r", "10000", "--d", "3", "--exhaustive"],
        ],
        ids=["pmf", "stein-verify"],
    )
    def test_resource_cap_exits_without_the_full_count(self, argv, src_env):
        # the count behind the cap is a lower bound as soon as it passes the cap;
        # counting every part size would take hours here
        result = subprocess.run(
            [sys.executable, "-m", "shortcycles", *argv], env=src_env, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 2, result.stderr
        assert "at least" in result.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--n", "10", "--r", "3"],
            ["pmf", "--n", "6", "--r", "3", "--d", "2"],
            ["sample", "--n", "10", "--r", "3", "--count", "2"],
            ["sample", "--n", "10", "--r", "3", "--count", "2", "--full"],
            ["dickman", "rho", "--grid", "1", "3", "5"],
            ["stein-verify", "--n", "6", "--r", "4", "--d", "2", "--exhaustive"],
            ["tv", "--n", "10", "--r", "3", "--d", "1"],
            ["sweep", "--n", "10", "--r", "3", "--d", "1"],
        ],
        ids=["count", "pmf", "sample", "sample-full", "dickman-grid", "stein-verify", "tv", "sweep"],
    )
    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    def test_unwritable_out_is_one(self, argv, target, tmp_path, src_env):
        out = tmp_path / "missing" / "out" if target == "missing-directory" else tmp_path
        result = subprocess.run(
            [sys.executable, "-m", "shortcycles", *argv, "--out", str(out)],
            env=src_env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 1, result.stderr
        assert "Traceback" not in result.stderr
        errors = [line for line in result.stderr.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1 and str(out) in errors[0], result.stderr

    def test_console_entry_point(self, src_env):
        result = subprocess.run(
            [sys.executable, "-m", "shortcycles.cli", "count", "--n", "4", "--r", "2"],
            env=src_env,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "5/12" in result.stdout


class TestWarnings:
    PMF = ["pmf", "--n", "200", "--r", "200", "--d", "1", "--mode", "double", "--out", "pmf.csv"]
    NOTE = (
        "warning: 29 of 200 masses lie below the smallest normal double and are written as 0.0 or subnormal; "
        "--mode exact gives their true values\n"
    )

    def test_library_warning_is_one_stderr_line(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(self.PMF, capsys) == (0, "pmf written to pmf.csv (200 support points)\n", self.NOTE)

    def test_warnings_as_errors_still_print_the_line(self, src_env, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        result = subprocess.run(
            [sys.executable, "-m", "shortcycles", *self.PMF],
            env={**src_env, "PYTHONWARNINGS": "error"}, capture_output=True, text=True, timeout=60,
        )
        assert (result.returncode, result.stderr) == (0, self.NOTE)
        assert result.stdout == run(self.PMF, capsys)[1]

    def test_warning_before_a_failure_is_printed_too(self, tmp_path, monkeypatch, capsys):
        def warn_then_fail(n, r, d, mode):
            warnings.warn("first this")
            raise ValueError("then this")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(counting, "joint_pmf", warn_then_fail)
        assert run(self.PMF, capsys) == (1, "", "warning: first this\nerror: then this\n")


GRID_VALUES = ("-1", "0", "1", "3", "7", "nan")
GRID_COMMANDS = {  # fixed argv, then the grid options the command takes
    "count": (["count"], ("--n", "--r")),
    "count-exact": (["count", "--exact"], ("--n", "--r")),
    "pmf-exact": (["pmf"], ("--n", "--r", "--d")),
    "pmf-double": (["pmf", "--mode", "double"], ("--n", "--r", "--d")),
    "sample-types": (["sample"], ("--n", "--r", "--count")),
    "sample-full": (["sample", "--full"], ("--n", "--r", "--count")),
    "sample-mcmc": (["sample", "--method", "mcmc"], ("--n", "--r", "--count")),
    "tv-exact": (["tv"], ("--n", "--r", "--d")),
    "tv-mc": (["tv", "--mode", "mc"], ("--n", "--r", "--d", "--samples")),
    "stein-verify-exhaustive": (["stein-verify", "--exhaustive"], ("--n", "--r", "--d")),
    "stein-verify-samples": (["stein-verify"], ("--n", "--r", "--d", "--samples")),
    "bound": (["bound"], ("--n", "--r", "--d")),
    "sweep": (["sweep"], ("--n", "--r", "--d")),
    "dickman-rho": (["dickman", "rho"], ("--t",)),
    "dickman-xi": (["dickman", "xi"], ("--t",)),
}
STDERR_PREFIXES = ("error:", "resource cap:", "resource:", "warning:", "usage:", "shortcycles")


@pytest.mark.parametrize("command", sorted(GRID_COMMANDS))
def test_argv_grid_never_escapes_main(command, tmp_path, capsys):
    # every value of the grid in every option: an answer, or exit 1 or 2 with a one-line reason,
    # and no exception or warning leaves main; indented lines continue argparse's usage text
    fixed, options = GRID_COMMANDS[command]
    if command == "sweep":
        fixed = [*fixed, "--out", str(tmp_path / "sweep.csv")]
    escaped = []
    for values in itertools.product(GRID_VALUES, repeat=len(options)):
        argv = [*fixed, *itertools.chain.from_iterable(zip(options, values))]
        with warnings.catch_warnings(record=True) as leaked:
            warnings.simplefilter("always")
            try:
                code, _, err = run(argv, capsys)
            except (Exception, SystemExit) as exc:
                escaped.append((argv, repr(exc)))
                continue
        if leaked:
            escaped.append((argv, [str(caught.message) for caught in leaked]))
        stray = [line for line in err.splitlines() if not line.startswith((*STDERR_PREFIXES, " "))]
        if code not in (0, 1, 2) or stray:
            escaped.append((argv, code, stray))
    assert escaped == []


def readme_examples() -> list[list[str]]:
    """The argv of each ``shortcycles ...`` line of README's "Command line" block."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"^## Command line\n.*?^```\n(.*?)^```", readme, re.M | re.S).group(1)
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("shortcycles ")]


def test_readme_examples_run_and_write_files_check_accepts(tmp_path, monkeypatch, capsys):
    # a README that drifts from the code fails here: every example exits 0, in order, in one directory
    monkeypatch.chdir(tmp_path)
    examples = readme_examples()
    assert len(examples) == 15
    for argv in examples:
        code, _, err = run(argv, capsys)
        assert code == 0, (argv, err)
    named = {argv[argv.index("--out") + 1] for argv in examples if "--out" in argv}
    assert {path.name for path in tmp_path.iterdir()} == named
    for name in sorted(named):
        assert run(["check", name], capsys) == (0, "ok\n", ""), name
