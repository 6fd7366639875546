"""Golden `--json` outputs: each CLI run's stdout must keep its recorded sha256.

The inputs live in tests/golden/ and every run uses paths relative to that
directory, so the `inputs.path` fields of the reports are stable.  After an
intended change of output, re-record the map with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from toric_surface_lab import cli

GOLDEN = Path(__file__).parent / "golden"
DIGESTS = GOLDEN / "digests.json"

FAN_COMMANDS = ("validate", "aut", "minimalize", "classify", "k0-verify", "basis",
                "collection", "decompose", "report")
GROUPLESS = {"validate", "aut", "k0-verify"}


def golden_runs() -> list[list[str]]:
    runs = []
    for key in ("p2", "f2", "dp6", "dp6-12", "f1e5", "f2e40"):
        for command in FAN_COMMANDS:
            argv = [command, "--fan", f"{key}.json"]
            if key.startswith("dp6") and command not in GROUPLESS:
                argv += ["--group", "d12.json"]
            runs.append(argv + ["--json"])
    runs.append(["report", "--fan", "dp6.json", "--group", "d12.json", "--bound", "1", "--json"])
    runs.append(["collection", "--fan", "dp6.json", "--group", "d12.json",
                 "--order", "reversed", "--json"])
    runs.append(["classify-group", "--group", "d12.json", "--json"])
    runs.append(["validate", "--fan", "invalid.json", "--json"])
    return runs


def stdout_digest(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(argv)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("argv", golden_runs(), ids=" ".join)
def test_json_stdout_matches_golden_digest(argv, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    expected = json.loads(DIGESTS.read_text())
    assert stdout_digest(argv) == expected[" ".join(argv)]


def test_golden_map_covers_exactly_the_runs():
    expected = json.loads(DIGESTS.read_text())
    assert sorted(expected) == sorted(" ".join(argv) for argv in golden_runs())


if __name__ == "__main__":
    os.chdir(GOLDEN)
    digests = {" ".join(argv): stdout_digest(argv) for argv in golden_runs()}
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {DIGESTS}")
