"""Every printed byte of fixed commands, against the committed golden records.

`golden_records.py` says what a record holds and how to regenerate them.
"""

import json

import numpy as np
import pytest

from golden_records import COMMANDS, FIELDS, RECORDS, describe, run

GOLDEN = json.loads(RECORDS.read_text())


def test_commands_are_the_recorded_ones():
    assert {name: record["argv"] for name, record in GOLDEN["records"].items()} == COMMANDS


@pytest.mark.parametrize("name", COMMANDS)
def test_record_is_unchanged(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    expected, actual = GOLDEN["records"][name], run(COMMANDS[name])
    note = f" (records made with numpy {GOLDEN['numpy']}, running {np.__version__})"
    for field in FIELDS:
        if actual[field] != expected[field]:
            pytest.fail(f"{name} ({' '.join(COMMANDS[name])}): {describe(field, expected[field], actual[field])}{note}")


@pytest.mark.parametrize(
    "field, expected, actual, said",
    [
        ("exit_code", 2, 3, "exit code 2 -> 3"),
        ("stdout", '{"results": {"levels": [1.0, 3.0]}}', '{"results": {"levels": [1.0, 3.5]}}',
         "stdout $.results.levels[1]: 3.0 -> 3.5"),
        ("stdout", '{"results": {}}', '{"results": {"ratio": 1.0}}', "stdout $.results.ratio: None -> 1.0"),
        ("stdout", "berezin 0.1.0\n", "berezin 0.2.0\n", "stdout line 1: 'berezin 0.1.0' -> 'berezin 0.2.0'"),
        ("stderr", "error: a\n", "error: a\nerror: b\n", "stderr line 2: None -> 'error: b'"),
        ("files", {"sweep.csv": "x,y\n1,2\n"}, {"sweep.csv": "x,y\n1,3\n"}, "file sweep.csv line 2: '1,2' -> '1,3'"),
        ("files", {"sweep.csv": "x\n"}, {}, "file sweep.csv is missing"),
    ],
)
def test_describe_names_the_moved_value_old_to_new(field, expected, actual, said):
    assert describe(field, expected, actual) == said
