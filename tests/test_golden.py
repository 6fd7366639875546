"""Golden CLI outputs: every pinned run must keep its recorded stdout sha256.

`golden/digests.json` is the one record of every pinned CLI output, one key
per line:

- each command on the golden inputs of tests/golden/, with and without
  `--json`, is keyed by its argv and maps to [exit code, stdout sha256].
  Every run uses paths relative to that directory, so the `inputs.path`
  fields of the reports are stable;
- each row of `pinned_runs.ROWS` that pins its stdout is keyed by its name
  and maps to the sha256; the row itself holds its exit code, time limit
  and field check.  CI runs every row as a fresh process (`python
  tests/pinned_runs.py`), and this module runs the rows that are not `slow`
  in-process;
- "corpus" maps to [runs, sha256] over the CLI output of the whole corpus:
  each pair of `standard_corpus(max_rays=16)` runs `classify`, `basis`,
  `collection`, `decompose` and `report --seed 3`, with and without
  `--json`, in its own lattice basis and in one drawn from
  `random.Random(7)`, and every run's (pair, basis, command, flag, exit
  code, stdout) goes into the one sha256.

After an intended change of output, re-record with

    PYTHONPATH=src python tests/test_golden.py

It runs everything afresh, prints each key whose value changed and rewrites
the file, or says that nothing changed.  A row that fails its exit code, its
time limit or its field check is not recorded and keeps its old value.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import tempfile
from pathlib import Path

import pytest

from toric_surface_lab import cli
from toric_surface_lab.corpus import standard_corpus
from toric_surface_lab.intlinalg import mat_inv, mat_mul
from toric_surface_lab.lattice_fan import apply_matrix

import pinned_runs
from oracles import random_unimodular
from pinned_runs import DIGESTS, GOLDEN, RECORDED

FAN_COMMANDS = ("validate", "aut", "minimalize", "classify", "k0-verify", "basis",
                "collection", "decompose", "report")
GROUPLESS = {"validate", "aut", "k0-verify"}
# Inputs run with a group file; the rest use the full automorphism group.
# p1p1-8 with d8 reaches P1xP1/D8, a row whose group swaps the rulings.
GROUPS = {"dp6": "d12.json", "dp6-12": "d12.json", "p1p1-8": "d8.json"}
CORPUS = "corpus"
CORPUS_COMMANDS = (["classify"], ["basis"], ["collection"], ["decompose"],
                   ["report", "--seed", "3"])


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


def run_in_process(argv: list[str]) -> tuple[int, bytes]:
    """The exit code and the stdout of one CLI run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, buf.getvalue().encode()


def run_digest(argv: list[str]) -> list:
    """[exit code, sha256 of the stdout] of one CLI run."""
    code, out = run_in_process(argv)
    return [code, hashlib.sha256(out).hexdigest()]


def corpus_digest() -> list:
    """[runs, sha256 over every run] of the corpus, its inputs written to the
    current directory under fixed names."""
    rng = random.Random(7)
    digest = hashlib.sha256()
    runs = 0
    for index, entry in enumerate(standard_corpus(max_rays=16)):
        m = random_unimodular(rng)
        minv = mat_inv(m)
        for basis, rays, generators in (
                ("own", entry.fan.rays, entry.group.generators),
                ("random", apply_matrix(m, entry.fan).rays,
                 [mat_mul(m, mat_mul(g, minv)) for g in entry.group.generators])):
            Path("fan.json").write_text(json.dumps({"rays": [list(v) for v in rays]}))
            Path("group.json").write_text(json.dumps(
                {"generators": [[list(r) for r in g] for g in generators]}))
            for command, flag in itertools.product(CORPUS_COMMANDS, ([], ["--json"])):
                argv = [command[0], "--fan", "fan.json", "--group", "group.json",
                        *command[1:], *flag]
                code, out = run_in_process(argv)
                record = [index, basis, " ".join(command), bool(flag), code, out.decode()]
                digest.update(json.dumps(record).encode() + b"\n")
                runs += 1
    return [runs, digest.hexdigest()]


@pytest.mark.parametrize("argv", golden_runs(), ids=" ".join)
def test_json_stdout_matches_golden_digest(argv, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    assert run_digest(argv) == RECORDED[" ".join(argv)]


@pytest.mark.parametrize("argv", plain_runs(), ids=" ".join)
def test_plain_stdout_and_exit_code_match_golden(argv, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    assert run_digest(argv) == RECORDED[" ".join(argv)]


def test_corpus_output_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert corpus_digest() == RECORDED[CORPUS]


def test_golden_map_covers_exactly_the_runs():
    names = [row.name for row in pinned_runs.ROWS]
    assert len(set(names)) == len(names)
    keys = ([" ".join(argv) for argv in golden_runs() + plain_runs()]
            + [row.name for row in pinned_runs.ROWS if row.pinned] + [CORPUS])
    assert len(set(keys)) == len(keys)
    assert sorted(RECORDED) == sorted(keys)


FAST_ROWS = [row for row in pinned_runs.ROWS if not row.slow]


@pytest.fixture(scope="module")
def pinned_inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("pinned")
    pinned_runs.write_inputs(directory, FAST_ROWS)
    return directory


@pytest.mark.parametrize("row", FAST_ROWS, ids=lambda row: row.name)
def test_pinned_row_in_process(row, pinned_inputs, monkeypatch):
    monkeypatch.chdir(row.cwd or pinned_inputs)
    assert row.argv[:len(pinned_runs.CLI)] == pinned_runs.CLI
    code, out = run_in_process(list(row.argv[len(pinned_runs.CLI):]))
    assert pinned_runs.mismatch(row, code, out) is None


def record() -> dict:
    """A fresh value for every key, from runs in this process and, for the
    pinned rows, in fresh processes."""
    fresh = {}
    os.chdir(GOLDEN)
    for argv in golden_runs() + plain_runs():
        fresh[" ".join(argv)] = run_digest(argv)
    rows = [row for row in pinned_runs.ROWS if row.pinned]
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        fresh[CORPUS] = corpus_digest()
        pinned_runs.write_inputs(Path(scratch), rows)
        for row in rows:
            _, problem, out = pinned_runs.run(row._replace(pinned=False), Path(scratch))
            if problem is None:
                fresh[row.name] = hashlib.sha256(out).hexdigest()
            else:
                print(f"not recorded: {row.name}: {problem}")
                if row.name in RECORDED:
                    fresh[row.name] = RECORDED[row.name]
    return fresh


if __name__ == "__main__":
    fresh = record()
    changed = sorted(key for key in fresh.keys() | RECORDED.keys()
                     if fresh.get(key) != RECORDED.get(key))
    for key in changed:
        print(f"changed: {key}: {RECORDED.get(key)} -> {fresh.get(key)}")
    if changed:
        DIGESTS.write_text("{\n" + ",\n".join(f"  {json.dumps(key)}: {json.dumps(fresh[key])}"
                                              for key in sorted(fresh)) + "\n}\n")
        print(f"rewrote {DIGESTS}: {len(changed)} of {len(fresh)} keys changed")
    else:
        print(f"nothing rewritten: all {len(fresh)} keys of {DIGESTS} are unchanged")
