"""Golden CLI outputs: each run's stdout must keep its recorded sha256.

`digests.json` maps every `--json` run to its stdout digest, and
`plain_digests.json` maps the same runs without `--json` to
[exit code, stdout digest], so the human-readable lines are pinned too.
The inputs live in tests/golden/ and every run uses paths relative to that
directory, so the `inputs.path` fields of the reports are stable.  After an
intended change of output, re-record both maps with

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
PLAIN_DIGESTS = GOLDEN / "plain_digests.json"

FAN_COMMANDS = ("validate", "aut", "minimalize", "classify", "k0-verify", "basis",
                "collection", "decompose", "report")
GROUPLESS = {"validate", "aut", "k0-verify"}
# Inputs run with a group file; the rest use the full automorphism group.
# p1p1-8 with d8 reaches P1xP1/D8, a row whose group swaps the rulings.
GROUPS = {"dp6": "d12.json", "dp6-12": "d12.json", "p1p1-8": "d8.json"}


def golden_runs() -> list[list[str]]:
    runs = []
    for key in ("p2", "f2", "dp6", "dp6-12", "f1e5", "f2e40", "p1p1-8"):
        for command in FAN_COMMANDS:
            argv = [command, "--fan", f"{key}.json"]
            if key in GROUPS and command not in GROUPLESS:
                argv += ["--group", GROUPS[key]]
            runs.append(argv + ["--json"])
    runs.append(["report", "--fan", "dp6.json", "--group", "d12.json", "--bound", "1", "--json"])
    runs.append(["collection", "--fan", "dp6.json", "--group", "d12.json",
                 "--order", "reversed", "--json"])
    runs.append(["classify-group", "--group", "d12.json", "--json"])
    runs.append(["validate", "--fan", "invalid.json", "--json"])
    return runs


def plain_runs() -> list[list[str]]:
    return [[a for a in argv if a != "--json"] for argv in golden_runs()]


def run_digest(argv: list[str]) -> tuple[int, str]:
    """The exit code and the sha256 of the stdout of one CLI run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, hashlib.sha256(buf.getvalue().encode()).hexdigest()


def stdout_digest(argv: list[str]) -> str:
    return run_digest(argv)[1]


@pytest.mark.parametrize("argv", golden_runs(), ids=" ".join)
def test_json_stdout_matches_golden_digest(argv, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    expected = json.loads(DIGESTS.read_text())
    assert stdout_digest(argv) == expected[" ".join(argv)]


@pytest.mark.parametrize("argv", plain_runs(), ids=" ".join)
def test_plain_stdout_and_exit_code_match_golden(argv, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    expected = json.loads(PLAIN_DIGESTS.read_text())
    assert list(run_digest(argv)) == expected[" ".join(argv)]


def test_golden_map_covers_exactly_the_runs():
    expected = json.loads(DIGESTS.read_text())
    assert sorted(expected) == sorted(" ".join(argv) for argv in golden_runs())
    plain = json.loads(PLAIN_DIGESTS.read_text())
    assert sorted(plain) == sorted(" ".join(argv) for argv in plain_runs())


if __name__ == "__main__":
    os.chdir(GOLDEN)
    digests = {" ".join(argv): stdout_digest(argv) for argv in golden_runs()}
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    plain = {" ".join(argv): list(run_digest(argv)) for argv in plain_runs()}
    PLAIN_DIGESTS.write_text(json.dumps(plain, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {DIGESTS} "
          f"and {len(plain)} in {PLAIN_DIGESTS}")
