"""Corpus output digest: one sha256 over the CLI output of the whole corpus.

Each pair of `standard_corpus(max_rays=16)` runs `classify`, `basis`,
`collection`, `decompose` and `report --seed 3`, with and without `--json`,
in its own lattice basis and in one drawn from `random.Random(7)`.  Every
run's (pair, basis, command, flag, exit code, stdout) goes into one sha256,
kept in tests/golden/corpus_digest.json.  The inputs are written to one
scratch directory under fixed names and passed by relative path, so the
`inputs.path` fields do not depend on where the directory lies.

    PYTHONPATH=src python tests/corpus_digest.py            # check
    PYTHONPATH=src python tests/corpus_digest.py --record   # re-record

The check exits 1 when the digest differs.  Re-record only after an
intended change of output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import sys
import tempfile
from pathlib import Path

from toric_surface_lab import cli
from toric_surface_lab.corpus import standard_corpus
from toric_surface_lab.intlinalg import mat_inv, mat_mul
from toric_surface_lab.lattice_fan import apply_matrix

DIGEST = Path(__file__).parent / "golden" / "corpus_digest.json"
COMMANDS = (["classify"], ["basis"], ["collection"], ["decompose"],
            ["report", "--seed", "3"])


def _random_unimodular(rng: random.Random):
    while True:
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        if abs(a * d - b * c) == 1:
            return ((a, b), (c, d))


def _bases(entry, rng: random.Random):
    """(name, rays, generators) of the pair in its own and a random basis."""
    yield "own", entry.fan.rays, entry.group.generators
    m = _random_unimodular(rng)
    minv = mat_inv(m)
    yield ("random", apply_matrix(m, entry.fan).rays,
           [mat_mul(m, mat_mul(g, minv)) for g in entry.group.generators])


def _run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def corpus_digest() -> tuple[str, int]:
    """The sha256 over every run, and the number of runs."""
    rng = random.Random(7)
    digest = hashlib.sha256()
    runs = 0
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            for index, entry in enumerate(standard_corpus(max_rays=16)):
                for basis, rays, generators in _bases(entry, rng):
                    Path("fan.json").write_text(json.dumps({"rays": [list(v) for v in rays]}))
                    Path("group.json").write_text(json.dumps(
                        {"generators": [[list(r) for r in g] for g in generators]}))
                    for command, flag in itertools.product(COMMANDS, ([], ["--json"])):
                        argv = [command[0], "--fan", "fan.json", "--group", "group.json",
                                *command[1:], *flag]
                        code, stdout = _run(argv)
                        record = [index, basis, " ".join(command), bool(flag), code, stdout]
                        digest.update(json.dumps(record).encode() + b"\n")
                        runs += 1
        finally:
            os.chdir(home)
    return digest.hexdigest(), runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help="rewrite the recorded digest instead of checking it")
    args = parser.parse_args(argv)
    digest, runs = corpus_digest()
    if args.record:
        DIGEST.write_text(json.dumps({"runs": runs, "sha256": digest}, indent=2) + "\n")
        print(f"recorded the digest of {runs} runs in {DIGEST}")
        return 0
    expected = json.loads(DIGEST.read_text())
    if (runs, digest) != (expected["runs"], expected["sha256"]):
        print(f"corpus digest {digest} over {runs} runs differs from the recorded "
              f"{expected['sha256']} over {expected['runs']} runs", file=sys.stderr)
        return 1
    print(f"corpus digest matches over {runs} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
