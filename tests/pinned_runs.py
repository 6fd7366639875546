"""Pinned CLI runs at scale: one table row per run, one runner.

Each row is a command line run by a fresh interpreter, in a directory that
holds the row's input files (written byte for byte by `INPUTS`) or in
tests/golden/, with a time limit.  A row passes when the exit code is the
expected one, the stdout has the sha256 recorded under the row's name in
golden/digests.json (where the row is `pinned`) and the row's field check
(where it has one) accepts the stdout.  Paths are relative to the run's
directory, so the `inputs.path` fields of the reports are the same on every
machine.

    PYTHONPATH=src python tests/pinned_runs.py

runs every row as its own process, prints one line per row with its wall
time and its limit, and exits 1 at any mismatch.  Tier-1 runs the rows that
are not `slow` in-process with the same checks
(`test_golden.py::test_pinned_row_in_process`).  After an intended change
of output, `python tests/test_golden.py` re-records these digests together
with the rest of the record; it leaves a row that fails any other check
unrecorded.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, NamedTuple

import toric_surface_lab

GOLDEN = Path(__file__).parent / "golden"
# The one record of every pinned CLI output; test_golden.py lists its keys.
DIGESTS = GOLDEN / "digests.json"
RECORDED: dict[str, list | str] = json.loads(DIGESTS.read_text())
CLI = ("-m", "toric_surface_lab.cli")


def _rays_json(fan) -> bytes:
    return json.dumps({"rays": [list(v) for v in fan.rays]}).encode()


def _dp6_192() -> bytes:
    """dP6 blown up at every cone five times: 192 rays, D12-symmetric."""
    from toric_surface_lab.lattice_fan import blow_up, dp6_fan

    f = dp6_fan()
    for _ in range(5):
        f = blow_up(f, range(f.n))
    return _rays_json(f)


def _ci_fan(n: int) -> Callable[[], bytes]:
    def write() -> bytes:
        from oracles import ci_fan

        return _rays_json(ci_fan(n))
    return write


# The bytes of every input file a row may name.
INPUTS: dict[str, Callable[[], bytes]] = {
    "p2.json": lambda: b'{"rays": [[1,0],[0,1],[-1,-1]]}',
    # Two reflections generating an infinite group.
    "infinite.json": lambda: b'{"generators": [[[1,0],[0,-1]], [[1,1],[0,-1]]]}',
    # <A^2, -C> conjugated by ((1000003, 1000002), (1000002, 1000001)).
    "d6prime.json": lambda: (
        b'{"generators": [[[-3000012000012, 3000015000019], [-3000009000007, 3000012000011]], '
        b'[[-2000004, 2000005], [-2000003, 2000004]]]}'),
    "d12.json": lambda: b'{"generators": [[[1,-1],[1,0]], [[0,1],[1,0]]]}',
    "six.json": lambda: b'{"rays": [[1,0],[1,1],[0,1],[-1,3],[-1,2],[0,-1]]}',
    "dp6-192.json": _dp6_192,
    **{f"fan{n}.json": _ci_fan(n) for n in (128, 256, 512, 1024, 2048)},
}

# Contracts the 2048-ray fan and writes its pullback's rays and exceptional classes.
PULLBACK = """import json, sys
from toric_surface_lab.lattice_fan import validate_fan
from toric_surface_lab.minimal_model import minimalize, pullback
from toric_surface_lab.symmetry import trivial_group
fan = validate_fan([tuple(v) for v in json.load(open(sys.argv[1]))["rays"]])
pulled = pullback(minimalize(fan, trivial_group(fan)))
sys.stdout.write(json.dumps([pulled.rays, pulled.exceptional]))"""


def fields(out: bytes, section: str, *keys: str) -> tuple:
    """The values at `keys` of one section of a --json report's result."""
    part = json.loads(out)["result"][section]
    return tuple(part[key] for key in keys)


def _contracts_to_p2(out: bytes) -> bool:
    r = json.loads(out)["result"]
    return (len(r["trace"]["steps"]), len(r["trace"]["terminal_fan"]["rays"]),
            r["minimal_model"]["kind"]) == (2045, 3, "P2")


def _unimodular_128(out: bytes) -> bool:
    determinant, sizes = fields(out, "basis", "determinant", "orbit_sizes")
    return determinant in (1, -1) and sum(sizes) == 128


def _canonical(out: bytes) -> bool:
    return out == (json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n").encode()


class Row(NamedTuple):
    name: str
    argv: tuple[str, ...]  # after the interpreter
    inputs: tuple[str, ...]  # names in INPUTS, written into the run's directory
    timeout: float  # seconds
    cwd: Path | None = None  # None: a scratch directory that holds `inputs`
    code: int = 0
    pinned: bool = False  # its stdout sha256 is RECORDED under its name
    check: Callable[[bytes], bool] | None = None
    slow: bool = False  # over 0.5 s as a fresh process: Tier-1 leaves it out


ROWS = (
    Row("validate P2", (*CLI, "validate", "--fan", "p2.json", "--json"), ("p2.json",), 5),
    Row("two reflections generating an infinite group exit 2",
        (*CLI, "classify-group", "--group", "infinite.json", "--json"), ("infinite.json",), 5,
        code=2),
    Row("D6' conjugated by a matrix with entries near 10^6 is labelled D6'",
        (*CLI, "classify-group", "--group", "d6prime.json", "--json"), ("d6prime.json",), 5,
        check=lambda out: fields(out, "group", "label") == ("D6'",)),
    Row("aut of the 192-ray D12 blow-up of dP6 is D12",
        (*CLI, "aut", "--fan", "dp6-192.json", "--json"), ("dp6-192.json",), 5,
        check=lambda out: fields(out, "automorphisms", "order", "label") == (12, "D12")),
    Row("the 192-ray D12 blow-up of dP6 contracts to dP6/D12",
        (*CLI, "classify", "--fan", "dp6-192.json", "--group", "d12.json", "--json"),
        ("dp6-192.json", "d12.json"), 5,
        check=lambda out: fields(out, "minimal_model", "kind", "group_label") == ("dP6", "D12")),
    Row("report on the 192-ray D12 blow-up of dP6",
        (*CLI, "report", "--fan", "dp6-192.json", "--group", "d12.json", "--json"),
        ("dp6-192.json", "d12.json"), 10, pinned=True),
    Row("basis search on a trivial-group 6-ray fan at bound 1",
        (*CLI, "basis", "--fan", "six.json", "--bound", "1", "--json"), ("six.json",), 5,
        pinned=True),
    Row("basis search on the 12-ray D12 blow-up of dP6 at bound 1",
        (*CLI, "basis", "--fan", "dp6-12.json", "--group", "d12.json", "--bound", "1", "--json"),
        (), 30, cwd=GOLDEN, pinned=True, slow=True),
    Row("contraction of a 2048-ray fan to P2 in 2045 steps",
        (*CLI, "classify", "--fan", "fan2048.json", "--json"), ("fan2048.json",), 3,
        check=_contracts_to_p2),
    Row("pullback of the 2048-ray contraction", ("-c", PULLBACK, "fan2048.json"),
        ("fan2048.json",), 5, pinned=True, slow=True),
    Row("K0 certificate on a 256-ray fan", (*CLI, "k0-verify", "--fan", "fan256.json", "--json"),
        ("fan256.json",), 5, pinned=True,
        check=lambda out: fields(out, "k0", "rank", "orbit_closure_pairs") == (256, 130561)),
    Row("collection certificate on a 128-ray fan",
        (*CLI, "collection", "--fan", "fan128.json", "--json"), ("fan128.json",), 10, pinned=True,
        check=lambda out: fields(out, "collection", "verified", "pairs_checked") == (True, 8256)),
    Row("collection certificate on a 256-ray fan",
        (*CLI, "collection", "--fan", "fan256.json", "--json"), ("fan256.json",), 5, pinned=True,
        check=lambda out: fields(out, "collection", "verified", "pairs_checked") == (True, 32896)),
    Row("reversed collection on a 128-ray fan exits 1",
        (*CLI, "collection", "--fan", "fan128.json", "--order", "reversed", "--json"),
        ("fan128.json",), 10, code=1, pinned=True),
    Row("basis certificate on a 128-ray fan", (*CLI, "basis", "--fan", "fan128.json", "--json"),
        ("fan128.json",), 10, pinned=True, check=_unimodular_128),
    Row("decomposition on a 128-ray fan", (*CLI, "decompose", "--fan", "fan128.json", "--json"),
        ("fan128.json",), 10, pinned=True,
        check=lambda out: json.loads(out)["status"] == "ok"),
    Row("report on a 128-ray fan, its stdout json.dumps(sort_keys=True, indent=2) byte for byte",
        (*CLI, "report", "--fan", "fan128.json", "--json"), ("fan128.json",), 10, pinned=True,
        check=_canonical),
    Row("report on a 512-ray fan", (*CLI, "report", "--fan", "fan512.json", "--json"),
        ("fan512.json",), 10, pinned=True, slow=True),
    Row("report on a 1024-ray fan", (*CLI, "report", "--fan", "fan1024.json", "--json"),
        ("fan1024.json",), 30, pinned=True, slow=True),
)


def write_inputs(directory: Path, rows) -> None:
    for name in sorted({name for row in rows for name in row.inputs}):
        (directory / name).write_bytes(INPUTS[name]())


def mismatch(row: Row, code: int, out: bytes) -> str | None:
    """Why one run of `row` fails, or None when it passes."""
    if code != row.code:
        return f"exit code {code}, expected {row.code}"
    digest = hashlib.sha256(out).hexdigest()
    if row.pinned and digest != RECORDED[row.name]:
        return f"stdout sha256 {digest}, recorded {RECORDED[row.name]}"
    if row.check is not None and not row.check(out):
        return "the field check rejects the stdout"
    return None


def run(row: Row, scratch: Path) -> tuple[float, str | None, bytes]:
    """One fresh process of `row`: its wall time, its mismatch and its stdout."""
    # The child imports the package this interpreter imported, from any directory.
    package_root = str(Path(toric_surface_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH")))))
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *row.argv], cwd=row.cwd or scratch, env=env,
                              capture_output=True, timeout=row.timeout)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, f"over its {row.timeout:g} s limit", b""
    wall = time.perf_counter() - start
    problem = mismatch(row, proc.returncode, proc.stdout)
    if problem is not None and proc.stderr:
        problem += "\n" + proc.stderr.decode(errors="replace")
    return wall, problem, proc.stdout


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as scratch:
        write_inputs(Path(scratch), ROWS)
        for row in ROWS:
            wall, problem, _ = run(row, Path(scratch))
            failed += problem is not None
            print(f"{'FAIL' if problem else 'ok':4} {wall:6.2f} s of {row.timeout:4g} s  {row.name}"
                  + (f": {problem}" if problem else ""), flush=True)
    print(f"{len(ROWS) - failed} of {len(ROWS)} pinned runs pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
