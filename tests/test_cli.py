import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from oracles import csv_by_writer, nu_table_rows, pmf_csv_by_writer, pmf_printed_by_dict, rho_grid_rows
from shortcycles import cli, numtext
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

    def test_gamma_check(self, capsys):
        code, out, _ = run(["dickman", "gamma-check", "--t", "2.0"], capsys)
        assert code == 0
        assert "holds = True" in out

    def test_missing_argument(self, capsys):
        code, _, _ = run(["dickman", "rho"], capsys)
        assert code == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["rho", "--grid", "1", "5", "inf"], "got inf"),
            (["rho", "--grid", "1", "5", "nan"], "got nan"),
            (["rho", "--t", "nan"], "t=nan"),
            (["rho", "--t", "inf"], "t=inf"),
            (["gamma-check", "--t", "nan"], "t=nan"),
            (["xi", "--t", "nan"], "t=nan"),
            (["xi", "--t", "inf"], "t=inf"),
            (["ratio", "--t", "5", "--v", "nan"], "v=nan"),
            (["ratio", "--t", "inf", "--v", "1"], "t=inf"),
        ],
    )
    def test_non_finite_values_are_validation_errors(self, argv, message, capsys):
        code, out, err = run(["dickman", *argv], capsys)
        assert code == 1
        assert out == ""
        assert message in err

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

    def test_t_max_option_is_gone(self, capsys):
        code, out, _ = run(["dickman", "rho", "--t", "300"], capsys)
        assert code == 0
        assert float(out) == 0.0  # rho(300) lies below the smallest double
        code, _, err = run(["dickman", "rho", "--t", "5", "--t-max", "1e9"], capsys)
        assert code == 1
        assert "--t-max" in err

    def test_tolerance_option_is_gone(self, capsys):
        code, _, err = run(["dickman", "rho", "--t", "2.5", "--tolerance", "1e-9"], capsys)
        assert code == 1
        assert "--tolerance" in err


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
    @pytest.mark.parametrize("method", ["sequential", "rejection", "mcmc"])
    def test_rows_equal_the_library(self, method, full, capsys):
        # the CLI builds no table and makes no method choice of its own
        argv = ["sample", "--n", "30", "--r", "6", "--method", method, "--count", "20", "--seed", "5",
                "--burn-in", "3", "--thinning", "2"]
        code, out, err = run([*argv, "--full"] if full else argv, capsys)
        assert code == 0, err
        cfg = SamplerConfig(30, 6, method, mcmc_burn_in=3, mcmc_thinning=2)
        if full:
            rows = [p.mapping for p in draw(cfg, 20, np.random.default_rng(5))]
        else:
            rows = draw_cycle_types(cfg, 20, np.random.default_rng(5))
        assert out.splitlines() == [" ".join(map(str, [i, *row])) for i, row in enumerate(rows)]

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
        assert "thinning must be >= 1, got 0" in err
        assert not path.exists()

    def test_negative_count_is_a_validation_error(self, tmp_path, capsys):
        for extra in ([], ["--full"]):
            path = tmp_path / "never.csv"
            code, _, err = run(
                ["sample", "--n", "8", "--r", "4", "--count", "-1", "--out", str(path), *extra], capsys
            )
            assert code == 1
            assert "count must be >= 0" in err
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
            calls.append((header, list(zip(*(np.asarray(column).tolist() for column in columns)))))
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
    def test_field_needing_quotes_is_rejected(self, field, tmp_path):
        with pytest.raises(ValueError, match="would need quoting"):
            cli._write_csv(tmp_path / "x.csv", ["index", "value"], [(0, "1"), (1, field)])


class TestExitCodes:
    def test_validation_error_is_one(self, capsys):
        assert run(["count", "--n", "4", "--r", "0"], capsys)[0] == 1

    def test_usage_error_is_one(self, capsys):
        assert run(["count", "--n", "4"], capsys)[0] == 1
        assert run(["frobnicate"], capsys)[0] == 1

    def test_resource_cap_is_two(self, capsys, monkeypatch):
        monkeypatch.setenv("SHORTCYCLES_SUPPORT_CAP", "3")
        assert run(["pmf", "--n", "10", "--r", "5", "--d", "2"], capsys)[0] == 2

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

    def test_console_entry_point(self, src_env):
        result = subprocess.run(
            [sys.executable, "-m", "shortcycles.cli", "count", "--n", "4", "--r", "2"],
            env=src_env,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "5/12" in result.stdout
