"""Golden run records: what fixed `berezin` commands print and write.

Each command runs in process through `cli.main`, in an empty working
directory, so a sweep's relative `--out` path is the same in every run.  A
record holds the command's stdout (its run record with the timestamp
removed), its stderr, its exit code and the files it wrote.  The bytes
depend on numpy and its LAPACK, through the Gauss-Hermite and collocation
eigenproblems, so the numpy version is kept next to them.

`tests/test_golden_records.py` compares every command with the committed
records.  A change that is meant to move a printed value regenerates them
from the repository root with

    PYTHONPATH=src python tests/golden_records.py

and lists each moved value, old -> new.
"""

import contextlib
import io
import json
import os
import pathlib
import re
import sys
import tempfile

import numpy as np

from berezin import cli

RECORDS = pathlib.Path(__file__).parent / "data" / "golden_records.json"

_SWEEP = ["sweep", "--out", "sweep.csv", "--quantity"]

COMMANDS = {
    "verify-all-seed-7": ["verify", "--suite", "all", "--seed", "7"],
    "verify-star-seed-3": ["verify", "--suite", "star", "--seed", "3"],
    "verify-spectrum": ["verify", "--suite", "spectrum"],
    "transform-closed": ["transform", "--n", "2", "--lambda", "0.7", "--alpha", "3.0", "--amplitude", "1.5"],
    "transform-numeric": ["transform", "--n", "2", "--lambda", "0.7", "--alpha", "3.0", "--numeric", "60",
                          "--at", "0.3,0.1;-0.2,0.4"],
    "transform-refused": ["transform", "--lambda", "-1", "--alpha", "1"],
    "trace": ["trace", "--n", "2", "--lambda", "0.5", "--alpha", "2.0"],
    "uncertainty": ["uncertainty", "--lambda", "0.5", "--K", "2.0"],
    "sweep-normalized-trace": _SWEEP + ["normalized_trace", "--n", "2", "--lambdas", "0.5,1,2",
                                        "--alphas", "logspace:0:2:3"],
    "sweep-lambda-prime": _SWEEP + ["lambda_prime", "--lambdas", "logspace:-1:1:4", "--alphas", "1,10"],
    "sweep-amplitude-prime": _SWEEP + ["amplitude_prime", "--n", "3", "--lambdas", "0.5,2", "--alphas", "0.5,5"],
    "sweep-taylor-remainder": _SWEEP + ["taylor_remainder", "--lambdas", "1", "--alphas", "logspace:1:3:5"],
    "sweep-expansion-residual": _SWEEP + ["expansion_residual", "--lambdas", "0.5,1", "--alphas", "logspace:1:3:5"],
    "sweep-empty-grid": _SWEEP + ["lambda_prime", "--alphas", "logspace:0:1:0"],
    "version": ["--version"],
}

_TIMESTAMP = re.compile(r',"timestamp":"[^"]*"')
FIELDS = ("exit_code", "stdout", "stderr", "files")


def run(argv: list) -> dict:
    """Run one command in the current directory, which must be empty, and return its record."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse exits after printing --version
            code = exc.code
    files = {}
    for name in sorted(os.listdir()):
        with open(name, newline="") as handle:
            files[name] = handle.read()
    return {
        "argv": argv,
        "exit_code": code,
        "stdout": _TIMESTAMP.sub("", stdout.getvalue()),
        "stderr": stderr.getvalue(),
        "files": files,
    }


def _at(values, i):
    """values[i], or None past the end."""
    return values[i] if i < len(values) else None


def first_difference(expected, actual, path="$"):
    """(JSON path, old value, new value) of the first value that differs, or None."""
    if type(expected) is not type(actual):
        return path, expected, actual
    if isinstance(expected, dict):
        unshared = sorted(expected.keys() ^ actual.keys())
        if unshared:
            return f"{path}.{unshared[0]}", expected.get(unshared[0]), actual.get(unshared[0])
        for key in expected:
            found = first_difference(expected[key], actual[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(expected, list):
        for i, (e, a) in enumerate(zip(expected, actual)):
            found = first_difference(e, a, f"{path}[{i}]")
            if found:
                return found
        i = min(len(expected), len(actual))
        return None if len(expected) == len(actual) else (f"{path}[{i}]", _at(expected, i), _at(actual, i))
    return None if expected == actual else (path, expected, actual)


def first_line(expected: str, actual: str) -> str:
    """The first line that differs, by number, old -> new."""
    old, new = expected.splitlines(), actual.splitlines()
    i = next((i for i, (e, a) in enumerate(zip(old, new)) if e != a), min(len(old), len(new)))
    return f"line {i + 1}: {_at(old, i)!r} -> {_at(new, i)!r}"


def describe(field, expected, actual):
    """Where a field first differs, old -> new: the JSON path in a run record, else a line."""
    if field == "exit_code":
        return f"exit code {expected!r} -> {actual!r}"
    if field == "files":
        name = min(n for n in expected.keys() | actual.keys() if expected.get(n) != actual.get(n))
        if name not in expected or name not in actual:
            return f"file {name} is {'new' if name in actual else 'missing'}"
        return f"file {name} {first_line(expected[name], actual[name])}"
    if field == "stdout":
        try:
            found = first_difference(json.loads(expected), json.loads(actual))
        except ValueError:  # not a run record: --version, or nothing
            found = None
        if found:
            path, old, new = found
            return f"stdout {path}: {old!r} -> {new!r}"
    return f"{field} {first_line(expected, actual)}"


def regenerate() -> None:
    records = {}
    start = os.getcwd()
    for name, argv in COMMANDS.items():
        with tempfile.TemporaryDirectory() as scratch:
            os.chdir(scratch)
            try:
                records[name] = run(argv)
            finally:
                os.chdir(start)
    old = json.loads(RECORDS.read_text())["records"] if RECORDS.exists() else {}
    for name, record in records.items():
        for field in FIELDS:
            if name in old and old[name][field] != record[field]:
                sys.stdout.write(f"{name}: {describe(field, old[name][field], record[field])}\n")
    RECORDS.parent.mkdir(exist_ok=True)
    with open(RECORDS, "w") as handle:
        json.dump({"numpy": np.__version__, "records": records}, handle, indent=1)
        handle.write("\n")
    sys.stdout.write(f"wrote {len(records)} records to {RECORDS}\n")


if __name__ == "__main__":
    regenerate()
