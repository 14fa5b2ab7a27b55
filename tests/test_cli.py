"""CLI contract: JSON records, exit codes, sweeps, determinism."""

import argparse
import csv
import dataclasses
import importlib
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from berezin import bergman_space, oscillator, verify
from berezin.cli import RunRecord, build_parser, main, parse_grid, parse_point
from berezin.gaussian_calculus import GaussianSymbol, QuantParams, taylor_remainder
from berezin.quadrature import NumericContractError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def record_of(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    assert len(lines) == 1, f"expected one JSON line, got {lines!r}"
    return json.loads(lines[0])


def imported_by(*argv):
    """(exit code, set of modules) of a fresh `python -X importtime` process."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv], capture_output=True, text=True)
    lines = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    return proc.returncode, {line.rsplit("|", 1)[1].strip() for line in lines[1:]}


class TestStartup:
    def test_import_berezin_loads_no_layer(self):
        code, modules = imported_by("-c", "import berezin")
        assert code == 0
        assert not {"numpy", "scipy"} & modules
        assert not [m for m in modules if m.startswith("berezin.")]
        # a layer module and an exported name still resolve on first access
        probe = (
            "import sys, berezin\n"
            "assert berezin.quadrature.gauss_hermite(4).nodes.shape == (4,)\n"
            "assert berezin.GaussianSymbol(1, 1.0, 1.0).dim == 1\n"
            "assert 'berezin.semiclassics' not in sys.modules\n"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["--version"], 0),
            (["--help"], 0),
            (["transform", "--lambda", "1"], 2),
            (["transform", "--lambda", "2", "--alpha", "3"], 0),
            (["sweep", "--quantity", "lambda_prime", "--alphas", "1,2", "--out", os.devnull], 0),
        ],
    )
    def test_closed_commands_load_no_numpy(self, argv, expected):
        code, modules = imported_by("-m", "berezin", *argv)
        assert code == expected
        assert "berezin.cli" in modules
        assert "numpy" not in modules

    def test_namespace_is_the_home_modules(self):
        import berezin

        for module, names in berezin._EXPORTS.items():
            home = importlib.import_module(f"berezin.{module}")
            for name in names:
                assert name in home.__all__
                assert getattr(berezin, name) is getattr(home, name), name
        assert len(berezin.__all__) == sum(map(len, berezin._EXPORTS.values()))  # each name listed once
        assert set(berezin.__all__) <= set(dir(berezin))
        with pytest.raises(AttributeError, match="'no_such_name'"):
            berezin.no_such_name
        removed = (
            "kernel", "weight", "reproducing_residual", "transform_compose", "eigenstate_residual",
            "ground_state_residual", "ladder_identity_residual", "commutator_residual",
        )
        for name in removed:
            with pytest.raises(AttributeError, match=f"'{name}'"):
                getattr(berezin, name)

    def test_layer_module_resolves_on_first_access(self):
        import berezin

        assert berezin.__getattr__("oscillator") is oscillator
        probe = (
            "import sys, berezin\n"
            "assert 'oscillator' not in vars(berezin) and 'berezin.oscillator' not in sys.modules\n"
            "assert berezin.oscillator is sys.modules['berezin.oscillator']\n"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_bergman_space_loads_no_semiclassics(self):
        code, modules = imported_by("-c", "import berezin.bergman_space")
        assert code == 0
        assert "berezin.bergman_space" in modules
        assert "berezin.semiclassics" not in modules

    def test_suite_choices_are_the_verify_suites(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        suite = next(a for a in sub.choices["verify"]._actions if a.dest == "suite")
        assert tuple(suite.choices) == tuple(verify.SUITES) + ("all",)

    def test_import_loads_no_scipy(self):
        # the package runs on numpy alone: neither the import nor a spectrum solve loads scipy
        probe = (
            "import sys, numpy as np, berezin.cli\n"
            "assert 'scipy' not in sys.modules, 'import berezin.cli loaded scipy'\n"
            "from berezin import GridSpec, OscillatorSpec, spectrum\n"
            "values = spectrum(OscillatorSpec(dim=1, h=1.0), GridSpec(half_width=10.0, points=2000), levels=4)\n"
            "assert np.abs(values - (2.0 * np.arange(4) + 1.0)).max() < 1e-3, values\n"
            "assert 'scipy' not in sys.modules, 'spectrum loaded scipy'\n"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_verify_runs_with_scipy_blocked(self):
        # with scipy unimportable, every suite still runs and passes
        probe = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "sys.argv = ['berezin', 'verify', '--suite', 'all']\n"
            "import berezin.cli\n"
            "berezin.cli.entry()\n"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "all suites passed" in proc.stderr


class TestParsers:
    def test_parse_point(self):
        point = parse_point("0.4,0.1;-1,2.5")
        assert point.coords == (0.4 + 0.1j, -1 + 2.5j)

    def test_parse_point_rejects_malformed(self):
        with pytest.raises(ValueError, match="re,im"):
            parse_point("1;2,3,4")

    def test_parse_grid_list(self):
        assert parse_grid("1,2,5") == [1.0, 2.0, 5.0]

    def test_parse_grid_logspace(self):
        values = parse_grid("logspace:0:6:13")
        assert len(values) == 13
        assert values[0] == pytest.approx(1.0)
        assert values[-1] == pytest.approx(1e6)


class TestTransformCommand:
    def test_reference_case(self, capsys):
        code, out, _ = run_cli(capsys, "transform", "--n", "1", "--lambda", "1", "--alpha", "1")
        assert code == 0
        record = record_of(out)
        assert record["results"]["lambda_prime"] == 0.5
        assert record["results"]["amplitude_prime"] == pytest.approx(0.7071067811865476, rel=1e-15)
        assert record["command"] == "transform"
        assert "timestamp" in record

    def test_zero_compression_unchanged(self, capsys):
        code, out, _ = run_cli(capsys, "transform", "--n", "1", "--lambda", "0", "--alpha", "5")
        assert code == 0
        record = record_of(out)
        assert record["results"]["lambda_prime"] == 0.0
        assert record["results"]["amplitude_prime"] == 1.0

    def test_numeric_cross_check(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "transform", "--n", "1", "--lambda", "2", "--alpha", "3",
            "--numeric", "80", "--at", "0.4,0.1",
        )
        assert code == 0
        record = record_of(out)
        assert record["results"]["deviation"] < 1e-9
        assert record["results"]["numeric_value"]["re"] == pytest.approx(0.6392799514357761, rel=1e-9)

    def test_three_dim_numeric(self, capsys):
        # a Gaussian symbol is summed separably, so the numeric check runs at n = 3
        code, out, _ = run_cli(
            capsys,
            "transform", "--n", "3", "--lambda", "1", "--alpha", "2",
            "--numeric", "80", "--at", "0.3,0.1;-0.2,0;0.5,0.5",
        )
        assert code == 0
        assert record_of(out)["results"]["relative_deviation"] <= 1e-12

    def test_far_tail_deviation_is_relative(self, capsys):
        # the closed value there is 4.8e-171: an absolute bound would accept 0.0
        code, out, _ = run_cli(
            capsys,
            "transform", "--n", "1", "--lambda", "1", "--alpha", "50",
            "--numeric", "80", "--at", "20,0",
        )
        assert code == 0
        results = record_of(out)["results"]
        assert results["relative_deviation"] <= 1e-12
        assert results["numeric_value"]["re"] > 0.0

    def test_coarse_rule_far_out_fails_contract(self, capsys):
        # an order-4 rule misses a 1e-87 value by all of it
        code, out, _ = run_cli(
            capsys,
            "transform", "--n", "1", "--lambda", "1", "--alpha", "1",
            "--numeric", "4", "--at", "20,0",
        )
        assert code == 3
        results = record_of(out)["results"]
        assert results["relative_deviation"] > 1e-6
        assert results["deviation"] < 1e-6

    def test_underflowed_closed_value_gates_on_absolute_deviation(self, capsys):
        # exp(-800) underflows to 0.0 on both routes; there is no relative figure
        code, out, _ = run_cli(
            capsys,
            "transform", "--n", "1", "--lambda", "1", "--alpha", "1",
            "--numeric", "80", "--at", "40,0",
        )
        assert code == 0
        results = record_of(out)["results"]
        assert results["closed_value_at_point"] == 0.0
        assert results["relative_deviation"] == results["deviation"] == 0.0

    def test_order_40_miss_fails_contract(self, capsys):
        # at lambda/alpha = 4 an order-40 rule misses the closed form by 1.5e-7 relative
        code, out, err = run_cli(
            capsys,
            "transform", "--n", "1", "--lambda", "2", "--alpha", "0.5", "--numeric", "40",
        )
        assert code == 3
        assert record_of(out)["results"]["relative_deviation"] > 1e-9
        assert "quadrature-match lam=2.0 alpha=0.5" in err

    def test_relative_deviation_is_the_verify_check(self, capsys):
        at = "0.3,-0.2;1.1,0.4"
        code, out, _ = run_cli(
            capsys,
            "transform", "--n", "2", "--lambda", "1.5", "--alpha", "0.7", "--numeric", "60", "--at", at,
        )
        assert code == 0
        results = record_of(out)["results"]
        symbol = GaussianSymbol(dim=2, amplitude=1.0, compression=1.5)
        point = parse_point(at)
        numeric, reference, deviation, check = verify.transform_check(symbol, point, QuantParams(0.7), order=60)
        assert results["relative_deviation"] == check.value
        assert results["deviation"] == deviation == abs(numeric - reference)
        assert results["numeric_value"] == {"re": numeric.real, "im": numeric.imag}
        assert results["closed_value_at_point"] == reference
        assert check.bound == 1e-9

    def test_overflowing_rule_nodes_are_zero_terms(self, capsys):
        # at alpha=1e-310 the squared rule nodes overflow: at lambda = 0 each term
        # is exp(-0) = 1 and the constant is recovered, not 0 * inf = NaN
        code, out, err = run_cli(
            capsys,
            "transform", "--n", "1", "--lambda", "0", "--alpha", "1e-310", "--numeric", "80",
        )
        assert code == 0, err
        assert record_of(out)["results"]["relative_deviation"] <= 1e-15

    def test_overflowing_exponent_warns_nothing(self):
        # at lambda = 1 the overflowing exponents are zero terms, so the order-80
        # rule misses the symbol altogether and the check fails (exit 3), but no
        # numpy warning is raised on the way, even when warnings are errors
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "berezin",
             "transform", "--lambda", "1", "--alpha", "1e-310", "--numeric", "80"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 3, proc.stderr
        assert "Warning" not in proc.stderr
        assert "theorem1 check 'quadrature-match lam=1.0 alpha=1e-310' failed" in proc.stderr

    def test_underflowing_transformed_amplitude_is_contract_error(self, capsys):
        # alpha/(alpha + lambda) = 1e-600 is 0 as a double
        code, out, err = run_cli(
            capsys, "transform", "--lambda", "1e300", "--alpha", "1e-300", "--amplitude", "1e-300",
        )
        assert code == 3
        assert out == ""
        assert "transformed amplitude underflows to 0" in err

    def test_order_beyond_rule_cap_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys,
            "transform", "--n", "1", "--lambda", "1", "--alpha", "1", "--numeric", "361",
        )
        assert code == 2
        assert out == ""
        assert "order" in err

    def test_bad_flags_exit_two(self, capsys):
        code, out, err = run_cli(capsys, "transform", "--n", "1", "--lambda", "-1", "--alpha", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: lambda must be non-negative and finite")

    def test_json_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "transform", "--n", "2", "--lambda", "0.5", "--alpha", "2")
        data = record_of(out)
        record = RunRecord(**data)
        assert json.loads(record.to_json()) == data

    def test_non_finite_record_is_contract_error(self):
        record = RunRecord(command="transform", parameters={}, results={"deviation": float("nan")})
        with pytest.raises(NumericContractError, match="not finite"):
            record.to_json()

    def test_non_finite_record_names_the_field(self, capsys):
        # the closed value is 8.2e-218 and the order-1 rule misses by 1.7e106, so the ratio overflows
        code, out, err = run_cli(
            capsys,
            "transform", "--n", "2", "--lambda", "4.75740249720965e+170", "--alpha", "2.1043392406823821e-153",
            "--amplitude", "1.6691860095976671e+106", "--numeric", "1",
        )
        assert code == 3
        assert out == ""
        assert "run record is not finite: relative_deviation = inf" in err

    def test_results_field_reproducible(self, capsys):
        argv = ("transform", "--n", "1", "--lambda", "1.5", "--alpha", "2.5", "--numeric", "40")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert json.dumps(record_of(first)["results"]) == json.dumps(record_of(second)["results"])


class TestTraceCommand:
    def test_reference_half(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--n", "1", "--lambda", "1", "--alpha", "1")
        assert code == 0
        record = record_of(out)
        assert record["results"]["normalized_trace"] == 0.5
        assert record["results"]["deviation"] < 1e-9

    def test_three_dim(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--n", "3", "--lambda", "1", "--alpha", "1")
        assert code == 0
        assert record_of(out)["results"]["normalized_trace"] == 0.125

    def test_classical_limit(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--n", "1", "--lambda", "1", "--alpha", "1e6")
        assert code == 0
        results = record_of(out)["results"]
        assert results["normalized_trace"] == pytest.approx(0.999998500003375, rel=1e-12)
        assert results["relative_deviation"] <= 1e-12

    def test_records_relative_deviation(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--n", "2", "--lambda", "0.5", "--alpha", "2")
        assert code == 0
        results = record_of(out)["results"]
        _, numeric, deviation, check = verify.trace_check(0.5, QuantParams(2.0), 2)
        assert results["relative_deviation"] == check.value <= 1e-12
        assert results["normalized_trace_numeric"] == numeric
        assert results["deviation"] == deviation == abs(numeric - results["normalized_trace"])

    def test_zero_numeric_trace_fails_contract(self, capsys, monkeypatch):
        # the normalized trace is 6.1e-15 here: an absolute bound would pass a numeric 0
        monkeypatch.setattr(bergman_space, "purity_raw_numeric", lambda *args, **kwargs: 0.0)
        code, out, err = run_cli(capsys, "trace", "--n", "3", "--lambda", "1e3", "--alpha", "1e-6")
        assert code == 3
        results = record_of(out)["results"]
        assert results["normalized_trace_numeric"] == 0.0
        assert results["relative_deviation"] == 1.0
        assert "trace check" in err

    def test_underflowing_squared_amplitude_is_contract_error(self, capsys):
        # the transformed amplitude is 1e-300 and its square 1e-600
        code, out, err = run_cli(capsys, "trace", "--n", "3", "--lambda", "1", "--alpha", "1e-200")
        assert code == 3
        assert out == ""
        assert "squared transformed amplitude underflows to 0" in err

    @pytest.mark.parametrize(
        "n,lam,alpha,name",
        [
            ("1", "1.5e303", "1e-20", "normalized trace"),
            ("1", "1e308", "1e-15", "normalized trace"),
            ("2", "3.180676881644171e-76", "6.310039627625464e-238", "raw trace"),
            ("3", "1.6618174485480565e+28", "3.0305445838481446e-80", "raw trace"),
        ],
    )
    def test_underflowing_trace_is_contract_error(self, capsys, n, lam, alpha, name):
        code, out, err = run_cli(capsys, "trace", "--n", n, "--lambda", lam, "--alpha", alpha)
        assert code == 3
        assert out == ""
        assert f"{name} underflows to 0 at lambda={float(lam)!r}, alpha={float(alpha)!r}, n={n}" in err

    def test_sub_normal_trace_is_contract_error(self, capsys):
        # the raw trace 5.2993e-319 was checked against quadrature and read a 9.3e-6 deviation
        code, out, err = run_cli(capsys, "trace", "--n", "2", "--lambda", "3.05884e-54", "--alpha", "3.8568e-213")
        assert code == 3
        assert out == ""
        assert "raw trace = 5.2993e-319 is sub-normal at lambda=3.05884e-54, alpha=3.8568e-213, n=2" in err


class TestUncertaintyCommand:
    def test_unit_compression(self, capsys):
        code, out, _ = run_cli(capsys, "uncertainty", "--lambda", "1")
        assert code == 0
        results = record_of(out)["results"]
        assert results["ratio"] == 1.0
        assert results["rhs"] == pytest.approx(1.5707963267948966, rel=1e-14)

    def test_amplitude_invariance(self, capsys):
        code, out, _ = run_cli(capsys, "uncertainty", "--lambda", "0.1", "--K", "2")
        assert code == 0
        assert abs(record_of(out)["results"]["ratio"] - 1.0) <= 1e-12

    def test_quadrature_ratio_gates_exit(self, capsys, monkeypatch):
        closed = oscillator.uncertainty_report(1.0, 1.0)
        wrong = dataclasses.replace(closed, ratio=0.5)
        monkeypatch.setattr(oscillator, "uncertainty_quadrature", lambda *args, **kwargs: wrong)
        code, out, err = run_cli(capsys, "uncertainty", "--lambda", "1")
        assert code == 3
        results = record_of(out)["results"]
        assert results["ratio"] == 1.0
        assert results["ratio_quadrature"] == 0.5
        assert "quadrature-moment ratio equals 1" in err

    def test_moment_beyond_double_range_is_contract_error(self, capsys):
        # r = (1 + lambda)/lambda = 1e300, so var_x ~ r^(3/2) is beyond the double range
        code, out, err = run_cli(capsys, "uncertainty", "--lambda", "1e-300")
        assert code == 3
        assert out == ""
        assert "var_x = inf" in err and "lambda=1e-300" in err

    @pytest.mark.parametrize("lam", ["1e-160", "1e-162", "5e-180", "1e-204"])
    def test_tiny_compression_passes_the_quadrature_check(self, capsys, lam):
        code, out, _ = run_cli(capsys, "uncertainty", "--lambda", lam)
        assert code == 0
        assert abs(record_of(out)["results"]["ratio_quadrature"] - 1.0) <= 1e-15

    def test_sub_normal_moment_is_contract_error(self, capsys):
        # K^4 = 1e-320 keeps a few significant bits, so rhs cannot divide the ratio
        code, out, err = run_cli(capsys, "uncertainty", "--lambda", "1", "--K", "1e-80")
        assert code == 3
        assert out == ""
        assert "rhs = 1.5706e-320" in err and "K=1e-80" in err

    def test_tiny_amplitude_and_compression_keep_a_normal_rhs(self, capsys):
        # rhs = K^4 pi r / 4 = 7.9e-201, where K^4 = 1e-400 underflowed to 0 before r = 1e200 came in
        code, out, _ = run_cli(capsys, "uncertainty", "--lambda", "1e-200", "--K", "1e-100")
        assert code == 0
        results = record_of(out)["results"]
        assert results["rhs"] == pytest.approx(7.853981633974483e-201, rel=1e-15, abs=0.0)
        assert abs(results["ratio"] - 1.0) <= 1e-15
        assert abs(results["ratio_quadrature"] - 1.0) <= 1e-15

    def test_product_of_variances_beyond_the_range_passes(self, capsys):
        # var_x * var_p overflowed before the division by rhs = 1.8e308 (exit 2, naming no flag)
        argv = ["uncertainty", "--lambda", "2.016698894383496", "--K", "1.1122020562173477e+77"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        results = record_of(out)["results"]
        assert abs(results["ratio"] - 1.0) <= 1e-15
        assert abs(results["ratio_quadrature"] - 1.0) <= 1e-15

    def test_squared_norm_near_the_top_of_the_range_passes(self, capsys):
        # (K^2 * mass)**2 = 6.9e308 raised OverflowError (exit 4); rhs = (K^2 * mass / 2)**2 is 1.7e308
        argv = ["uncertainty", "--lambda", "1.681362160722755e+36", "--K", "1.2171859718419323e+77"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        results = record_of(out)["results"]
        assert abs(results["ratio"] - 1.0) <= 1e-15
        assert results["ratio_quadrature"] == 1.0

    def test_negative_compression_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "uncertainty", "--lambda", "-1")
        assert code == 2
        assert out == ""
        assert "lambda" in err


class TestSweepCommand:
    def test_normalized_trace_sweep(self, capsys, tmp_path):
        out_path = tmp_path / "trace.csv"
        code, out, _ = run_cli(
            capsys,
            "sweep", "--quantity", "normalized_trace",
            "--alphas", "logspace:0:6:13", "--lambda", "1", "--out", str(out_path),
        )
        assert code == 0
        record = record_of(out)
        assert record["results"]["rows"] == 13
        with open(out_path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["lambda", "alpha", "n", "normalized_trace"]
        assert len(rows) == 14
        assert float(rows[-1][3]) == pytest.approx(1.0, abs=2e-6)

    def test_zero_lambda_column(self, capsys, tmp_path):
        out_path = tmp_path / "width.csv"
        code, out, _ = run_cli(
            capsys,
            "sweep", "--quantity", "lambda_prime",
            "--lambdas", "0", "--alphas", "1,2,4", "--out", str(out_path),
        )
        assert code == 0
        with open(out_path, newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        assert [float(r[3]) for r in rows] == [0.0, 0.0, 0.0]

    def test_expansion_sweep_records_slope(self, capsys, tmp_path):
        out_path = tmp_path / "expansion.csv"
        code, out, _ = run_cli(
            capsys,
            "sweep", "--quantity", "expansion_residual",
            "--alphas", "10,100,1000", "--lambdas", "1", "--out", str(out_path),
        )
        assert code == 0
        record = record_of(out)
        assert record["results"]["slope_lambda_1.0"] == pytest.approx(-1.0, abs=0.1)

    @pytest.mark.parametrize("n", [2, 3])
    def test_point_quantities_at_higher_dimension(self, capsys, tmp_path, n):
        # the sample point has n coordinates, each 0.3 (or 0, 0.3, 0.7 for the expansion)
        out_path = tmp_path / "taylor.csv"
        code, out, _ = run_cli(
            capsys,
            "sweep", "--quantity", "taylor_remainder", "--n", str(n),
            "--lambdas", "1", "--alphas", "10,100", "--out", str(out_path),
        )
        assert code == 0
        with open(out_path, newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        symbol = GaussianSymbol(dim=n, amplitude=1.0, compression=1.0)
        expected = [taylor_remainder(symbol, QuantParams(a), (0.3 + 0j,) * n) for a in (10.0, 100.0)]
        assert [float(r[3]) for r in rows] == expected
        code, out, _ = run_cli(
            capsys,
            "sweep", "--quantity", "expansion_residual", "--n", str(n),
            "--lambdas", "1", "--alphas", "10,100,1000", "--out", str(tmp_path / "expansion.csv"),
        )
        assert code == 0
        assert record_of(out)["results"]["slope_lambda_1.0"] == pytest.approx(-1.0, abs=0.1)

    @pytest.mark.parametrize(
        "argv",
        [
            ("--quantity", "normalized_trace", "--lambdas", "1,0"),
            ("--quantity", "lambda_prime", "--lambdas", "1,-1"),
            ("--quantity", "amplitude_prime", "--alphas", "1,0"),
            ("--quantity", "expansion_residual", "--alphas", "10,100"),
        ],
    )
    def test_bad_grid_exits_two_without_file(self, capsys, tmp_path, argv):
        out_path = tmp_path / "bad.csv"
        code, out, err = run_cli(capsys, "sweep", *argv, "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert not out_path.exists()

    def test_empty_grid_exits_two_without_file(self, capsys, tmp_path):
        out_path = tmp_path / "empty.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--quantity", "normalized_trace", "--alphas", "logspace:0:1:0", "--out", str(out_path)
        )
        assert (code, out) == (2, "")
        assert "grid needs at least one value" in err
        assert not out_path.exists()

    def test_underflowing_trace_exits_three(self, capsys, tmp_path):
        out_path = tmp_path / "trace.csv"
        code, out, err = run_cli(
            capsys,
            "sweep", "--quantity", "normalized_trace",
            "--lambda", "1e308", "--alphas", "1e-15", "--out", str(out_path),
        )
        assert code == 3
        assert out == ""
        assert "normalized trace underflows to 0 at lambda=1e+308, alpha=1e-15, n=1" in err

    def test_single_flag_takes_a_grid(self, capsys, tmp_path):
        path = tmp_path / "width.csv"
        code, out, _ = run_cli(capsys, "sweep", "--quantity", "lambda_prime",
                               "--lambda", "0.5,2", "--out", str(path))
        assert code == 0
        assert record_of(out)["parameters"]["lambdas"] == "0.5,2"
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        assert [(float(r[0]), float(r[1])) for r in rows] == [(0.5, 1.0), (2.0, 1.0)]

    def test_both_spellings_are_one_option(self, capsys, tmp_path):
        tables = []
        for flag in ("--alphas", "--alpha"):
            path = tmp_path / f"{flag.strip('-')}.csv"
            code, out, _ = run_cli(capsys, "sweep", "--quantity", "amplitude_prime", flag, "3", "--out", str(path))
            assert code == 0
            assert record_of(out)["parameters"]["alphas"] == "3"
            tables.append(path.read_bytes())
        assert tables[0] == tables[1]

    def test_byte_identical_reruns(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            run_cli(capsys, "sweep", "--quantity", "amplitude_prime",
                    "--lambdas", "0.5,1", "--alphas", "1,10", "--out", str(path))
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestVerifyCommand:
    def test_single_suite_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "star", "--seed", "7")
        assert code == 0
        record = record_of(out)
        assert record["results"]["all_passed"] is True
        assert record["seed"] == 7
        assert "timestamp" not in record
        assert "pass" in err

    def test_failure_reported_once(self, capsys, monkeypatch):
        failing = verify.CheckResult("star", "forced failure", 1.0, 0.0)
        monkeypatch.setattr(verify, "run_suites", lambda *args, **kwargs: [failing])
        code, out, err = run_cli(capsys, "verify", "--suite", "star")
        assert code == 3
        assert record_of(out)["results"]["failed"] == 1
        assert err.count("forced failure") == 1
        assert "FAIL" in err and "error:" not in err

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "--suite", "expansion", "--seed", "3")
        _, second, _ = run_cli(capsys, "verify", "--suite", "expansion", "--seed", "3")
        assert first == second

    def test_all_suites_byte_identical_across_processes(self):
        # each process solves the spectrum afresh, so no memo carries a result across
        argv = [sys.executable, "-m", "berezin", "verify", "--suite", "all", "--seed", "7"]
        first, second = (subprocess.run(argv, capture_output=True) for _ in range(2))
        assert first.returncode == 0, first.stderr
        assert first.stdout == second.stdout

    def test_expansion_check_compares_the_quadrature_oracle_with_the_first_order(self, monkeypatch):
        from berezin import gaussian_calculus, quadrature

        [check] = verify.run_suites("expansion")
        assert "quadrature" in check.name and check.passed
        assert check.value == pytest.approx(1.713e-2, abs=5e-6)
        # a first order off by O(1/alpha), or an oracle that does not smooth,
        # leaves alpha times the gap O(1): slope 0, and the check fails
        with monkeypatch.context() as patch:
            wrong = lambda g, q, point: gaussian_calculus._first_order(g, q, point) * (1.0 + 1.0 / q.alpha)
            patch.setattr(verify, "_first_order", wrong)
            assert not verify.run_suites("expansion")[0].passed
        monkeypatch.setattr(quadrature, "berezin_transform_numeric", lambda g, z, q: gaussian_calculus.evaluate(g, z))
        assert not verify.run_suites("expansion")[0].passed

    def test_seed_defaults_to_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "star")
        assert code == 0
        assert record_of(out)["seed"] == 0

    def test_negative_seed_is_refused_by_name(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "star", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert "seed must be a non-negative integer, got -1" in err

    @pytest.mark.parametrize("suite", ["nope", "heat"])  # heat was folded into expansion
    def test_unknown_suite_exits_two(self, suite):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", suite])
        assert exc.value.code == 2


# -- every command over its declared argument domain ---------------------------

# text for a float flag: 10^U(-300, 300), or a value at or beyond the edge of a domain
REAL_TEXT = st.one_of(
    st.floats(-300.0, 300.0).map(lambda e: repr(10.0**e)),
    st.sampled_from(["0", "-1", "nan", "inf"]),
)
# text for an int flag: dimensions and rule orders, in range and out of it
INTEGER_TEXT = st.integers(-1, 400).map(str)
# what a refusal or a failed check names: a parameter, a moment or a reported quantity
NAMED = re.compile(
    r"\b(dim|order|alpha|amplitude|lambda|K|var_x|var_p|rhs|norm_sq|ratio|relative_deviation)\b"
)
# a refusal names the parameter it refused (and may quote its value); the flag that sets it
REFUSED = re.compile(r"^error: (\w+)(?: \S+)? must be ")
FLAG_OF = {
    "dim": "--n",
    "order": "--numeric",
    "alpha": "--alpha",
    "amplitude": "--amplitude",
    "lambda": "--lambda",
    "K": "--K",
    "quantity": "--quantity",
}


def _command_argv(command: str, out: str):
    """A strategy of argv for one subcommand, read off its argparse actions:
    each float, int or choice flag, and each sweep grid, is drawn (an
    optional one may be left at its default), `--out` is a file, and other
    text flags keep their default."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = []
    for action in sub.choices[command]._actions:
        if action.choices:
            values = st.sampled_from(list(action.choices))
        elif action.type in (float, int):
            values = REAL_TEXT if action.type is float else INTEGER_TEXT
        elif action.dest in ("lambdas", "alphas"):  # one real is a one-point grid
            values = REAL_TEXT
        elif action.dest == "out":
            values = st.just(out)
        else:
            continue
        flags.append(st.tuples(st.just(action.option_strings[0]), values if action.required else st.none() | values))
    return st.tuples(*flags).map(lambda pairs: [command] + [t for flag, v in pairs if v is not None for t in (flag, v)])


class TestDeclaredDomain:
    @pytest.mark.parametrize("command", ["transform", "trace", "uncertainty", "sweep"])
    @settings(
        max_examples=100, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.data())
    def test_exit_code_classifies_every_input(self, command, data, capsys, tmp_path):
        argv = data.draw(_command_argv(command, str(tmp_path / "sweep.csv")))
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refused the text
            code = exc.code
        out, err = capsys.readouterr()
        assert code in (0, 2, 3), (argv, err)
        if code == 0:
            # a NaN or infinity would parse as a constant
            record = json.loads(out, parse_constant=lambda c: pytest.fail(f"{argv}: non-finite {c} in the record"))
            assert record["command"] == command
        else:  # a failed check (exit 3) still writes its record
            assert out == "" or code == 3
            assert NAMED.search(err), (argv, err)
        if code == 2:  # the parser refused the text, or the library a parameter given in argv
            refused = REFUSED.match(err)
            assert err.startswith("usage:") or (refused and FLAG_OF.get(refused.group(1)) in argv), (argv, err)
