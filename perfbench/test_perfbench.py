"""Self-tests of the benchmark: one rotation per workload.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import berezin  # noqa: E402
from cliload import CliWorkload  # noqa: E402
from harness import measure  # noqa: E402
from reference import (  # noqa: E402
    amplitude_factor,
    hermite_moment,
    lambda_prime,
    monomial_star,
    normalized_trace,
    trace_value,
    transform_value,
)
from workloads import Oracles, StarAlgebra  # noqa: E402

ONE_ROTATION = {"seconds": 0.0, "min_ops": 1}


# -- the benchmark's references on hand-worked cases ----------------------------


def test_star_of_coordinates():
    z, zbar = ((1,), (0,), 1.0), ((0,), (1,), 1.0)
    assert monomial_star([z], [zbar], 4.0) == {((1,), (1,)): 1.0, ((0,), (0,)): 0.25}
    assert monomial_star([zbar], [z], 4.0) == {((1,), (1,)): 1.0}


def test_star_of_squares():
    # z^2 * zbar^2 = z^2 zbar^2 + 4/alpha z zbar + 2/alpha^2
    got = monomial_star([((2,), (0,), 1.0)], [((0,), (2,), 1.0)], 2.0)
    assert got == {((2,), (2,)): 1.0, ((1,), (1,)): 2.0, ((0,), (0,)): 0.5}


def test_star_factorizes_over_coordinates():
    # z1 z2 * zbar1 zbar2 = z1 z2 zbar1 zbar2 + (z1 zbar1 + z2 zbar2)/alpha + 1/alpha^2
    got = monomial_star([((1, 1), (0, 0), 1.0)], [((0, 0), (1, 1), 1.0)], 2.0)
    assert got == {((1, 1), (1, 1)): 1.0, ((0, 1), (0, 1)): 0.5, ((1, 0), (1, 0)): 0.5, ((0, 0), (0, 0)): 0.25}


def test_transform_and_trace_references():
    assert lambda_prime(1.0, 1.0) == 0.5
    assert amplitude_factor(2, 1.0, 1.0) == 0.5
    assert transform_value(1, 1.0, 1.0, 1.0, [0j]) == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert transform_value(1, 2.0, 1.0, 1.0, [1 + 5j]) == pytest.approx(2 * math.sqrt(0.5) * math.exp(-0.5), rel=1e-15)
    assert trace_value(2, 3.0, 1.0, 1.0) == 1.5
    assert normalized_trace(2, 1.0, 1.0) == 0.25
    assert hermite_moment(0) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    assert hermite_moment(2) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-15)


# -- each workload passes one rotation and counts a wrong value as failed ----------


def test_oracles_rotation(monkeypatch):
    m = measure(Oracles(1).rotation, **ONE_ROTATION)
    assert (m.attempted, m.failed, m.unexpected) == (13, 1, 0), m.failures
    assert m.failures[0]["kind"] == "transform-off-centre"

    numeric = berezin.quadrature.berezin_transform_numeric
    monkeypatch.setattr(berezin.quadrature, "berezin_transform_numeric", lambda *a, **k: numeric(*a, **k) * (1 + 1e-7))
    m = measure(Oracles(1).rotation, **ONE_ROTATION)
    assert (m.failed, m.unexpected) == (3, 2)


def test_star_algebra_rotation(monkeypatch):
    m = measure(StarAlgebra(1).rotation, **ONE_ROTATION)
    assert (m.attempted, m.failed) == (13, 0), m.failures

    star = berezin.semiclassics.wick_star
    monkeypatch.setattr(berezin.semiclassics, "wick_star", lambda f, g, q: star(f, g, q) + 1e-9)
    m = measure(StarAlgebra(1).rotation, **ONE_ROTATION)
    assert m.unexpected >= 3
    assert {f["kind"] for f in m.failures} >= {"wick-star-1d", "wick-star-2d", "wick-star-3d"}


def test_cli_rotation(monkeypatch, tmp_path):
    workload = CliWorkload(1, ROOT, tmp_path)
    m = measure(workload.rotation, **ONE_ROTATION)
    assert (m.attempted, m.failed) == (10, 0), m.failures

    invoke = workload.invoke

    def tampered(args):
        proc = invoke(args)
        record = json.loads(proc.stdout)
        if "lambda_prime" in record["results"]:
            record["results"]["lambda_prime"] *= 1 + 1e-9
        proc.stdout = json.dumps(record) + "\n"
        return proc

    monkeypatch.setattr(workload, "invoke", tampered)
    m = measure(workload.rotation, **ONE_ROTATION, first=1)
    failed = sorted(f["kind"] for f in m.failures)
    # the verify record no longer matches the first verify run byte for byte
    assert failed == ["transform-closed", "transform-n1-m80"] + ["transform-n2-m80"] * 3 + ["verify"]


# -- the run record carries every metric BENCHMARK.json names ---------------------


@pytest.mark.parametrize("trace", [0, 1])
def test_run_record_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "star-algebra", "--seed", "3", "--seconds", "0",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 40
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())

