"""Pinned CLI runs at scale: one table row per run, one runner.

Each row is a command line run by a fresh interpreter, in a directory that
holds the row's input files (written byte for byte by `INPUTS`) or in
tests/golden/, with a time limit.  A row passes when the exit code is the
expected one, the stdout has the pinned sha256 (where one is pinned) and
the row's field check (where it has one) accepts the stdout.  Paths are
relative to the run's directory, so the `inputs.path` fields of the reports
are the same on every machine.

    PYTHONPATH=src python tests/pinned_runs.py

runs every row as its own process, prints one line per row with its wall
time and its limit, and exits 1 at any mismatch.  Tier-1 runs the rows that
are not `slow` in-process with the same checks
(`test_golden.py::test_pinned_row_in_process`).  After an intended change
of output, `python tests/test_golden.py` re-records these digests together
with the golden maps.
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
    sha256: str | None = None
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
        ("dp6-192.json", "d12.json"), 10,
        sha256="ad903b2a88a7b48352f3a97b1efd9165df6141c03f2cd8cbb5fdc50940de939d"),
    Row("basis search on a trivial-group 6-ray fan at bound 1",
        (*CLI, "basis", "--fan", "six.json", "--bound", "1", "--json"), ("six.json",), 5,
        sha256="c8f7a99d951b811bbe196ef0317c8d1526eb2b91b8ca24e94344dc64c61a0d06"),
    Row("basis search on the 12-ray D12 blow-up of dP6 at bound 1",
        (*CLI, "basis", "--fan", "dp6-12.json", "--group", "d12.json", "--bound", "1", "--json"),
        (), 30, cwd=GOLDEN,
        sha256="f9a0ad5c2adef70892654b9ee3ddb87ef2ab0b82c8e527ed272ae9aa10a4df00", slow=True),
    Row("contraction of a 2048-ray fan to P2 in 2045 steps",
        (*CLI, "classify", "--fan", "fan2048.json", "--json"), ("fan2048.json",), 3,
        check=_contracts_to_p2),
    Row("pullback of the 2048-ray contraction", ("-c", PULLBACK, "fan2048.json"),
        ("fan2048.json",), 5,
        sha256="b3ac4313ec18abeb7f3ac45ec92ca74f924ca6dd88678fb8bc38c281a5365d24", slow=True),
    Row("K0 certificate on a 256-ray fan", (*CLI, "k0-verify", "--fan", "fan256.json", "--json"),
        ("fan256.json",), 5,
        sha256="5b1ff863f958f1ee256bb6383947a213b37faca257f861ed1a68ba4217f19905",
        check=lambda out: fields(out, "k0", "rank", "orbit_closure_pairs") == (256, 130561)),
    Row("collection certificate on a 128-ray fan",
        (*CLI, "collection", "--fan", "fan128.json", "--json"), ("fan128.json",), 10,
        sha256="5a036cb5671a768384a10bcb815b41e54b05ebcb2d2afd32011d1a08944795f0",
        check=lambda out: fields(out, "collection", "verified", "pairs_checked") == (True, 8256)),
    Row("collection certificate on a 256-ray fan",
        (*CLI, "collection", "--fan", "fan256.json", "--json"), ("fan256.json",), 5,
        sha256="7bc45d9cdb8db92fd105fc50984693122c9c5ea0ac971c9fb9bc267cc6843c8a",
        check=lambda out: fields(out, "collection", "verified", "pairs_checked") == (True, 32896)),
    Row("reversed collection on a 128-ray fan exits 1",
        (*CLI, "collection", "--fan", "fan128.json", "--order", "reversed", "--json"),
        ("fan128.json",), 10, code=1,
        sha256="d8fe68b5404884581614d909f97e70ed7e4a12bfc45127253e5731ab90fbd928"),
    Row("basis certificate on a 128-ray fan", (*CLI, "basis", "--fan", "fan128.json", "--json"),
        ("fan128.json",), 10,
        sha256="9c455d361c96c5b3c99d2a7a1a8d69f71b8409e79a9108ee8ff9a96d857f1b81",
        check=_unimodular_128),
    Row("decomposition on a 128-ray fan", (*CLI, "decompose", "--fan", "fan128.json", "--json"),
        ("fan128.json",), 10,
        sha256="27b36ae7c0d6187e9ba472c9b05f9a581aa16f7161264fdf36130e49975606c9",
        check=lambda out: json.loads(out)["status"] == "ok"),
    Row("report on a 128-ray fan, its stdout json.dumps(sort_keys=True, indent=2) byte for byte",
        (*CLI, "report", "--fan", "fan128.json", "--json"), ("fan128.json",), 10,
        sha256="4ee3a4bd0b49baf81cbf8b4fc1cc0cc43fc600b2f5792c8cc525b0afd695ee62",
        check=_canonical),
    Row("report on a 512-ray fan", (*CLI, "report", "--fan", "fan512.json", "--json"),
        ("fan512.json",), 10,
        sha256="da3c9a712c9f63ab245fbddc495a90d4b73c62529e555b3f57e5637fb16764cd", slow=True),
    Row("report on a 1024-ray fan", (*CLI, "report", "--fan", "fan1024.json", "--json"),
        ("fan1024.json",), 30,
        sha256="a6b7ecbb79deb76a782fd0acd6dfbd1209fb031d5c1be403e87c45b62ad38cce", slow=True),
)


def write_inputs(directory: Path, rows) -> None:
    for name in sorted({name for row in rows for name in row.inputs}):
        (directory / name).write_bytes(INPUTS[name]())


def mismatch(row: Row, code: int, out: bytes) -> str | None:
    """Why one run of `row` fails, or None when it passes."""
    if code != row.code:
        return f"exit code {code}, expected {row.code}"
    digest = hashlib.sha256(out).hexdigest()
    if row.sha256 is not None and digest != row.sha256:
        return f"stdout sha256 {digest}, pinned {row.sha256}"
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


def record() -> int:
    """Rewrite each pinned digest of this file that a fresh run no longer
    matches, where the run passes every other check of its row."""
    source = Path(__file__)
    text = source.read_text()
    changed = 0
    with tempfile.TemporaryDirectory() as scratch:
        write_inputs(Path(scratch), ROWS)
        for row in ROWS:
            if row.sha256 is None:
                continue
            _, problem, out = run(row._replace(sha256=None), Path(scratch))
            digest = hashlib.sha256(out).hexdigest()
            if problem is not None:
                print(f"not re-recorded: {row.name}: {problem}")
            elif digest != row.sha256:
                text = text.replace(row.sha256, digest)
                changed += 1
    source.write_text(text)
    return changed


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
