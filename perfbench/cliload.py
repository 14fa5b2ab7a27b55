"""The `cli` workload: fresh `python -m berezin ...` processes, one at a time.

A rotation runs ten commands in a fixed order; rotation r draws its
parameters from numpy.random.default_rng([seed, r]) and passes them as
shortest round-trip decimals, so the benchmark's references see the same
doubles the program parses.  The traced form runs each command through
`traced_cli.py`, which wraps the layers inside the child and writes its
spans to a trace file.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from harness import Op, random_point
from reference import amplitude_factor, lambda_prime, normalized_trace, rel_err, transform_value
from tracer import merge

CHILD_TIMEOUT_S = 120
SWEEP_ROWS = 13
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env(root: Path) -> dict:
    """The caller's environment with `src` on the path, BLAS/OpenMP pinned to
    one thread, no `BEREZIN_SEED`, and bytecode caching on whatever the
    caller set, so a cold process reads compiled modules as an installed
    package would."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({name: "1" for name in PINNED_THREADS})
    env.pop("BEREZIN_SEED", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv: list, root: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        argv, cwd=root, env=child_env(root), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )


def _fmt(x: float) -> str:
    return repr(float(x))


def _point_arg(z: list) -> str:
    return ";".join(f"{_fmt(c.real)},{_fmt(c.imag)}" for c in z)


def _record(proc) -> tuple[list, dict | None]:
    """Exit-code and one-JSON-line checks, plus the parsed record."""
    lines = proc.stdout.splitlines()
    checks = [("exit_code", float(proc.returncode != 0), 0.0), ("json_lines", abs(len(lines) - 1), 0)]
    if proc.returncode != 0 or len(lines) != 1:
        return checks, None
    return checks, json.loads(lines[0])


class CliWorkload:
    """Ten CLI processes per rotation; `trace_dir` selects the traced form."""

    def __init__(self, seed: int, root: Path, out_dir: Path, trace_dir: Path | None = None):
        self.seed = seed
        self.root = root
        self.out_dir = out_dir
        self.trace_dir = trace_dir
        self.spans: dict = {}
        self.verify_stdout: str | None = None
        self._children = 0

    def invoke(self, args: list) -> subprocess.CompletedProcess:
        if self.trace_dir is None:
            return run_child([sys.executable, "-m", "berezin", *args], self.root)
        self._children += 1
        trace_file = self.trace_dir / f"child-{self._children}.json"
        proc = run_child([sys.executable, str(Path(__file__).with_name("traced_cli.py")), str(trace_file), *args], self.root)
        merge(self.spans, json.loads(trace_file.read_text()))
        return proc

    def _op(self, kind: str, args: list, check) -> Op:
        def checked(proc):
            checks, record = _record(proc)
            return checks + (check(proc, record["results"]) if record is not None else [])

        return Op(kind, lambda: self.invoke(args), checked)

    def _verify_check(self, proc, results) -> list:
        if self.verify_stdout is None:
            self.verify_stdout = proc.stdout
        return [
            ("verify.all_passed", float(results["all_passed"] is not True), 0.0),
            ("verify.byte_identical", float(proc.stdout != self.verify_stdout), 0.0),
        ]

    def rotation(self, r: int) -> list:
        rng = np.random.default_rng([self.seed, r])

        def draw():
            return float(rng.uniform(0.5, 5.0)), float(rng.uniform(0.5, 2.0))

        ops = [self._op("verify", ["verify", "--suite", "all", "--seed", str(self.seed)], self._verify_check)]

        # Three n=2 quadrature transforms, the heaviest command after verify,
        # make up the slowest operations below verify, so p75 falls among them.
        transforms = (("transform-closed", 1, None), ("transform-n1-m80", 1, 80)) + (("transform-n2-m80", 2, 80),) * 3
        for kind, n, order in transforms:
            alpha, lam = draw()
            z = random_point(rng, n)
            args = ["transform", "--n", str(n), "--lambda", _fmt(lam), "--alpha", _fmt(alpha)]
            if order is not None:
                # one token: a point starting with '-' would read as an option
                args += ["--numeric", str(order), f"--at={_point_arg(z)}"]
            ops.append(self._op(kind, args, self._transform_check(n, lam, alpha, z if order else None)))
        for n in (1, 3):
            alpha, lam = draw()
            args = ["trace", "--n", str(n), "--lambda", _fmt(lam), "--alpha", _fmt(alpha)]
            ops.append(self._op(f"trace-n{n}", args, self._trace_check(n, lam, alpha)))
        lam, amp = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))
        ops.append(self._op(
            "uncertainty",
            ["uncertainty", "--lambda", _fmt(lam), "--K", _fmt(amp)],
            lambda proc, res: [
                ("uncertainty.ratio", abs(res["ratio"] - 1.0), 1e-9),
                ("uncertainty.ratio_quadrature", abs(res["ratio_quadrature"] - 1.0), 1e-8),
            ],
        ))
        lam = float(rng.uniform(0.5, 2.0))
        start, stop = float(rng.uniform(-1.0, 0.0)), float(rng.uniform(2.0, 4.0))
        out = self.out_dir / "sweep.csv"
        args = [
            "sweep", "--quantity", "normalized_trace", "--lambda", _fmt(lam),
            "--alphas", f"logspace:{_fmt(start)}:{_fmt(stop)}:{SWEEP_ROWS}", "--out", str(out),
        ]
        ops.append(self._op("sweep", args, lambda proc, res: self._sweep_check(res, out, lam, start, stop)))
        return ops

    @staticmethod
    def _transform_check(n, lam, alpha, z):
        def check(proc, res):
            checks = [
                ("lambda_prime", rel_err(res["lambda_prime"], lambda_prime(lam, alpha)), 1e-12),
                ("amplitude_prime", rel_err(res["amplitude_prime"], amplitude_factor(n, lam, alpha)), 1e-12),
            ]
            if z is not None:
                want = transform_value(n, 1.0, lam, alpha, z)
                value = res["numeric_value"]
                checks += [
                    ("quadrature.transform.rel_err", rel_err(value["re"], want), 1e-9),
                    ("transform.imag", abs(value["im"]) / want, 1e-9),
                ]
            return checks

        return check

    @staticmethod
    def _trace_check(n, lam, alpha):
        want = normalized_trace(n, lam, alpha)
        return lambda proc, res: [
            ("normalized_trace", rel_err(res["normalized_trace"], want), 1e-12),
            ("bergman_space.trace.rel_err", rel_err(res["normalized_trace_numeric"], want), 1e-9),
        ]

    @staticmethod
    def _sweep_check(res, out: Path, lam, start, stop) -> list:
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        alphas = [10.0 ** (start + i * (stop - start) / (SWEEP_ROWS - 1)) for i in range(SWEEP_ROWS)]
        worst_alpha = max(rel_err(float(row[1]), a) for row, a in zip(rows, alphas))
        worst_value = max(rel_err(float(row[3]), normalized_trace(1, lam, float(row[1]))) for row in rows)
        return [
            ("sweep.rows", float(len(rows) != SWEEP_ROWS or res["rows"] != SWEEP_ROWS), 0.0),
            ("sweep.alpha", worst_alpha, 1e-12),
            ("sweep.normalized_trace", worst_value, 1e-12),
        ]
