"""The exit-code contract under every output failure: one fresh CLI process
per cell of a matrix.

A cell is a command (`validate`, or `collection --order reversed`, a failed
certificate), plain or `--json`, an input (a valid P2, a missing file, or an
internal error planted by making `cli.run_command` raise), a stdout (writable,
`/dev/full`, or a pipe whose reader is closed before the child starts) and a
stderr (writable or `/dev/full`).  Its expected exit code is 3 when stdout
cannot take what the run writes there, and otherwise the run's own code: 0
verified, 1 a failed certificate, 2 invalid input, 3 an internal error.  A
stderr that cannot be written changes no exit code.

    PYTHONPATH=src python tests/exit_matrix.py    # all 72 cells; exit 1 on a mismatch

Tier-1 runs a fixed slice of the cells (`test_cli.py::TestExitMatrix`).
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = (("validate",), ("collection", "--order", "reversed"))
FLAGS = ((), ("--json",))
INPUTS = ("valid", "missing", "internal")
STDOUTS = ("ok", "full", "closed")
STDERRS = ("ok", "full")
CELLS = tuple(itertools.product(COMMANDS, FLAGS, INPUTS, STDOUTS, STDERRS))

# Runs the CLI, with `cli.run_command` raising when the first argument is "internal".
PROBE = """
import sys
from toric_surface_lab import cli
if sys.argv[1] == "internal":
    def run_command(args, raw):
        raise RuntimeError("planted")
    cli.run_command = run_command
sys.exit(cli.main(sys.argv[2:]))
"""
P2 = '{"rays": [[1, 0], [0, 1], [-1, -1]]}'


def expected_code(command, flags, case: str, stdout: str, stderr: str) -> int:
    """The contract's exit code of one cell."""
    own = {"valid": 0 if command[0] == "validate" else 1, "missing": 2, "internal": 3}[case]
    # A plain run that fails writes its message to stderr and nothing to stdout.
    writes_stdout = bool(flags) or case == "valid"
    return 3 if stdout != "ok" and writes_stdout else own


def run_cell(command, flags, case: str, stdout: str, stderr: str) -> int:
    """The exit code of one cell, run as a fresh process."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    extra = os.environ.get("PYTHONPATH")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src + (os.pathsep + extra if extra else "")
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "p2.json").write_text(P2)
        fan = "nosuch.json" if case == "missing" else "p2.json"
        argv = [sys.executable, "-c", PROBE, case, *command, "--fan", fan, *flags]
        read_end = write_end = None
        with open(os.devnull, "wb") as null, open("/dev/full", "wb") as full:
            if stdout == "closed":
                read_end, write_end = os.pipe()
                os.close(read_end)
            out = {"ok": null, "full": full, "closed": write_end}[stdout]
            err = {"ok": null, "full": full}[stderr]
            try:
                return subprocess.run(argv, stdout=out, stderr=err, env=env, cwd=tmp).returncode
            finally:
                if write_end is not None:
                    os.close(write_end)


def main() -> int:
    failed = 0
    for cell in CELLS:
        code, want = run_cell(*cell), expected_code(*cell)
        if code != want:
            failed += 1
            print(f"exit {code}, expected {want}: {cell}")
    print(f"{len(CELLS) - failed} of {len(CELLS)} cells keep the exit-code contract")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
