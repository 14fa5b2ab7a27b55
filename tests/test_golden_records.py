"""Every printed byte of fixed commands, against the committed golden records.

`golden_records.py` says what a record holds and how to regenerate them.
"""

import json

import numpy as np
import pytest

from golden_records import COMMANDS, RECORDS, run

GOLDEN = json.loads(RECORDS.read_text())


def first_difference(expected, actual, path="$"):
    """The JSON path of the first value that differs, or None."""
    if type(expected) is not type(actual):
        return path
    if isinstance(expected, dict):
        unshared = sorted(expected.keys() ^ actual.keys())
        if unshared:
            return f"{path}.{unshared[0]}"
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
        return None if len(expected) == len(actual) else f"{path}[{min(len(expected), len(actual))}]"
    return None if expected == actual else path


def first_line(expected: str, actual: str) -> int:
    """The number of the first line that differs."""
    old, new = expected.splitlines(), actual.splitlines()
    return next((i for i, (e, a) in enumerate(zip(old, new), 1) if e != a), min(len(old), len(new)) + 1)


def describe(field, expected, actual):
    """Where a field first differs: the JSON path in a run record, else a line."""
    if field == "exit_code":
        return f"exit code {actual}, recorded {expected}"
    if field == "files":
        name = min(n for n in expected.keys() | actual.keys() if expected.get(n) != actual.get(n))
        if name not in expected or name not in actual:
            return f"file {name} is {'new' if name in actual else 'missing'}"
        return f"file {name} differs at line {first_line(expected[name], actual[name])}"
    if field == "stdout":
        try:
            path = first_difference(json.loads(expected), json.loads(actual))
        except ValueError:  # not a run record: --version, or nothing
            path = None
        if path:
            return f"stdout differs at {path}"
    return f"{field} differs at line {first_line(expected, actual)}"


def test_commands_are_the_recorded_ones():
    assert {name: record["argv"] for name, record in GOLDEN["records"].items()} == COMMANDS


@pytest.mark.parametrize("name", COMMANDS)
def test_record_is_unchanged(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    expected, actual = GOLDEN["records"][name], run(COMMANDS[name])
    note = f" (records made with numpy {GOLDEN['numpy']}, running {np.__version__})"
    for field in ("exit_code", "stdout", "stderr", "files"):
        if actual[field] != expected[field]:
            pytest.fail(f"{name} ({' '.join(COMMANDS[name])}): {describe(field, expected[field], actual[field])}{note}")
