"""The table-driven checks: a table of rows, one runner.

A row draws its inputs once per seed, and each of its checks compares the
library with an independent oracle, or with a recorded count, on the draw.
`validate` draws the ray lists of `oracles.validate_fan_inputs` (seeds 0-99);
`chains` draws a 17-24-ray chain in a random lattice basis and two families
of 20 divisors (seeds 0-999), then a near-ample tail (seed 1000); `pairs`
runs the classification theorem's `sweep(*SIZES[seed])`, (10, 4) at seed 0
and (12, 5) at seed 1; `exit` runs `CELLS[seed]` as a fresh process;
`search` draws `search_pairs()[seed]`.

    PYTHONPATH=src:tests python tests/sweeps.py

prints one line per check with its count, wall time and rate, and exits 1 at
the first mismatch, naming the row, the seed and the check.  Tier-1 runs
every row at seed 0 (`test_derived.py`), the cohomology and collection
checks on 100 more chains, and 20 of the 72 exit cells (`test_cli.py`).
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
import tempfile
import time
from collections import Counter
from functools import lru_cache, partial
from pathlib import Path
from typing import Callable, NamedTuple

import oracles

from toric_surface_lab import grothendieck
from toric_surface_lab.cohomology import _ample_weights, line_bundle_cohomology
from toric_surface_lab.corpus import standard_corpus
from toric_surface_lab.derived import build_collection, verify_collection
from toric_surface_lab.grothendieck import picard, verify_klyachko, verify_permutation_basis
from toric_surface_lab.intlinalg import bareiss_det
from toric_surface_lab.lattice_fan import Fan, dp6_fan, fans_isomorphic, p2_fan, validate_fan
from toric_surface_lab.minimal_model import (
    TABLE, MinimalLabel, classify_pair, is_g_minimal, pullback,
)
from toric_surface_lab.symmetry import (
    SymmetryGroup, classify_subgroup, compute_aut, enumerate_subgroups,
)

TAIL = 1000  # the chains row's seed of the near-ample tail, after the chains


class Chain(NamedTuple):
    fan: Fan
    group: SymmetryGroup | None  # None on the tail
    small: tuple[tuple[int, ...], ...]
    large: tuple[tuple[int, ...], ...]


def chain(seed: int) -> Chain:
    """The chain, and each divisor family from its own copy of the generator
    after the basis: |c| <= 6, or c_e in [-B/8, B] with B = 10^3, 10^6 or
    10^9 in turn and every other divisor negated."""
    rng = random.Random(seed)
    entry = oracles.chain_of_17_to_24_rays(rng)
    fan, group = oracles.random_basis(rng, entry.fan, entry.group)
    state = rng.getstate()
    small = tuple(tuple(rng.randint(-6, 6) for _ in range(fan.n)) for _ in range(20))
    rng.setstate(state)
    large = []
    for j in range(20):
        bound = 10 ** (3 + 3 * (j % 3))
        d = tuple(rng.randint(-bound // 8, bound) for _ in range(fan.n))
        large.append(d if j % 2 == 0 else tuple(-c for c in d))
    return Chain(fan, group, small, tuple(large))


def chain_draw(seed: int) -> Chain:
    """`chain(seed)`, or at TAIL 20 divisors t H + r on `ci_fan(256)` (every
    other one K minus it), H ample with coefficients h, t <= 10^9/max|h| and
    |r_e| <= t: not nef, so their walks lower too.  Positive draws there are
    left out: one walk takes 8 s at |c| <= 10^6, 84 s at 10^9 (2 cores)."""
    if seed != TAIL:
        return chain(seed)
    fan, rng = oracles.ci_fan(256), random.Random(seed)
    x = y = 0
    h = []  # walk the polygon of H, edge e along (v_y, -v_x)
    for (vx, vy), length in zip(fan.rays, _ample_weights(fan)[1]):
        h.append(-(x * vx + y * vy))
        x, y = x + length * vy, y - length * vx
    large = []
    for j in range(20):
        t = rng.randint(1, 10**9 // max(map(abs, h)))
        d = tuple(t * c + rng.randint(-t, t) for c in h)
        large.append(d if j % 2 == 0 else tuple(-1 - c for c in d))
    return Chain(fan, None, (), tuple(large))


def mismatch(fan: Fan, d, h0_oracle) -> str | None:
    """Why `line_bundle_cohomology` fails at D, or None: its h0 and h2
    against `h0_oracle` of D and K - D, and h0 - h1 + h2 against chi(D)."""
    lat, h = picard(fan), line_bundle_cohomology(fan, d)
    got = (h.h0, h.h2, h.euler)
    want = (h0_oracle(fan, d), h0_oracle(fan, [-1 - c for c in d]),
            lat.chi(lat.divisor_coords(d)))
    return None if got == want else f"D = {d} on {fan.rays}: (h0, h2, chi) {got}, oracles {want}"


def pairs(fan: Fan, divisors, h0_oracle) -> int:
    for d in divisors:
        problem = mismatch(fan, d, h0_oracle)
        assert problem is None, problem
    return len(divisors)


def collection(fan: Fan, group: SymmetryGroup) -> int:
    """`verify_collection`, with and without the basis certificate, against
    `pairwise_verify_collection`, in both orders."""
    coll, basis = oracles.certified_pair(fan, group)
    for c in (coll, coll.reversed()):
        want = oracles.pairwise_verify_collection(c, group)
        assert verify_collection(c, group) == want == verify_collection(c, group, basis), c
    return 2


def k0(fan: Fan, group: SymmetryGroup) -> int:
    cert = verify_klyachko(fan)
    assert cert.ok, cert
    assert cert == oracles.pairwise_klyachko(fan) == oracles.band_product_klyachko(fan), cert
    return 1


def bareiss(fan: Fan, group: SymmetryGroup) -> int:
    for rows in oracles.report_matrices(fan, group):
        assert bareiss_det(rows) == oracles.triple_loop_bareiss(rows), rows
    return 2


def symmetry(fan: Fan, group: SymmetryGroup) -> int:
    aut = compute_aut(fan)
    assert set(aut.elements) == set(oracles.candidate_filter_maps(fan, fan)), fan
    subs = enumerate_subgroups(aut)
    assert subs == oracles.closure_subgroups(aut), fan
    for sub in (*subs, group):
        assert classify_subgroup(sub) == oracles.loop_classify(sub), sub
    return len(subs)


def per_chain(check: Callable[[Fan, SymmetryGroup], int]) -> Callable[[Chain], int]:
    """A check of the chain and its group, which the tail skips."""
    return lambda draw: 0 if draw.group is None else check(draw.fan, draw.group)


@lru_cache(maxsize=None)
def corpus_fans() -> frozenset[Fan]:
    return frozenset(e.fan for e in standard_corpus(max_rays=16))


def validate(inputs: list) -> int:
    for rays in inputs:
        got = oracles.validate_outcome(validate_fan, rays)
        want = oracles.validate_outcome(oracles.angle_order_validate_fan, rays)
        assert got == want, f"{rays!r} gave {got!r}, the oracle {want!r}"
    return len(inputs)


# (fans, (fan, subgroup) pairs, G-minimal pairs) at (max_rays, bound).
COUNTS = {(10, 4): (585, 666, 25), (12, 5): (8911, 9091, 27)}
SIZES = tuple(COUNTS)  # the pairs row's seeds


class Sweep(NamedTuple):  # its first three fields are those of COUNTS
    fans: int
    pairs: int
    minimal: int  # pairs that are G-minimal as given
    realised: Counter  # (TableRow, group label) -> pairs
    failures: list[str]


def _failed_checks(fan, group) -> tuple[MinimalLabel, list[str]]:
    """The label of one pair and the names of the checks it fails; the last
    two are the paper's correspondence between the exceptional collection and
    the K-motive, whose factors are the standard basis's orbits (`decompose`),
    with the collection certified against that basis as `report` does."""
    trace, label = classify_pair(fan, group)
    terminal = trace.terminal_fan
    p2, dp6 = (fans_isomorphic(terminal, f()) is not None for f in (p2_fan, dp6_fan))
    pulled = pullback(trace)
    stepwise = oracles.stepwise_minimalize(fan, group)
    basis = verify_permutation_basis(grothendieck.standard_permutation_basis(pulled, label), group)
    coll = build_collection(pulled, label)
    closed = verify_collection(coll, group, basis)
    checks = {
        "group class": label.group_label == classify_subgroup(group),
        "terminal G-minimal": is_g_minimal(terminal, trace.terminal_group),
        "P2 by isomorphism": (label.kind == "P2") == p2,
        "dP6 by isomorphism": (label.kind == "dP6") == dp6,
        "K0 certificate": verify_klyachko(fan).ok,
        "basis certificate": basis.ok,
        "collection certificate": closed.ok,
        "stepwise contraction": (stepwise.terminal_fan, len(stepwise.steps))
        == (terminal, len(trace.steps)),
        # Each orbit lies in one block, so blocks are orbits when they number alike.
        "blocks are orbits": closed.blocks_group_closed
        and len(closed.orbits) == len(coll.blocks),
        "block sizes are basis orbit sizes": sorted(map(len, coll.blocks))
        == sorted(basis.orbit_sizes),
    }
    return label, [name for name, ok in checks.items() if not ok]


def sweep(max_rays: int, bound: int) -> Sweep:
    """Every (fan, subgroup) pair of `all_fans(max_rays, bound)`, one fan per
    GL2(Z) class (Oda 1988, 1.6-1.7), labelled by `classify_pair` and checked;
    a TableViolation, a G-minimal pair outside the table, propagates."""
    fans = oracles.all_fans(max_rays, bound)
    realised, failures, pairs, minimal = Counter(), [], 0, 0
    for fan in fans:
        for group in enumerate_subgroups(compute_aut(fan)):
            label, failed = _failed_checks(fan, group)
            pairs += 1
            minimal += is_g_minimal(fan, group)
            realised[label.row, label.group_label] += 1
            failures += [f"{fan!r} under {label.group_label}: {name}" for name in failed]
    return Sweep(len(fans), pairs, minimal, realised, failures)


def classified(seed: int):
    """The pairs row's draw: its size, and its sweep, which the first check runs."""
    return SIZES[seed], lru_cache(maxsize=None)(partial(sweep, *SIZES[seed]))


def every_pair(draw) -> int:
    failures = draw[1]().failures
    assert not failures, "\n".join(failures)
    return draw[1]().pairs


def counted(k: int, draw) -> int:
    got, want = draw[1]()[:3], COUNTS[draw[0]]
    assert got[k] == want[k], f"{got}, COUNTS {want}"
    return got[k]


def table_entries(draw) -> int:
    """All (row, group) entries of TABLE, each realised by some pair; the
    message counts the pairs of each entry."""
    realised, entries = draw[1]().realised, [(row, g) for row in TABLE for g in sorted(row.groups)]
    assert set(realised) == set(entries), "\n".join(
        f"{row.index} {row.kind} under {g}: {realised[row, g]} pairs" for row, g in entries)
    return len(entries)


# The exit-code contract: a cell is a command (verified, or a failed certificate),
# plain or `--json`, an input (a valid P2, a missing file, or `cli.run_command`
# raising), a stdout (writable, `/dev/full`, or a pipe whose reader is closed
# before the child starts) and a stderr (writable or `/dev/full`).
CELLS = tuple(itertools.product(
    (("validate",), ("collection", "--order", "reversed")), ((), ("--json",)),
    ("valid", "missing", "internal"), ("ok", "full", "closed"), ("ok", "full")))

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


def expected_code(command, flags, case: str, stdout: str, stderr: str) -> int:
    """The contract's code for a cell: 3 when stdout cannot take what the run
    writes there, else the run's own (0 verified, 1 a failed certificate, 2
    invalid input, 3 an internal error), whatever stderr takes."""
    own = {"valid": 0 if command[0] == "validate" else 1, "missing": 2, "internal": 3}[case]
    # A plain run that fails writes its message to stderr and nothing to stdout.
    writes_stdout = bool(flags) or case == "valid"
    return 3 if stdout != "ok" and writes_stdout else own


def run_cell(command, flags, case: str, stdout: str, stderr: str) -> int:
    """The exit code of one cell, run as a fresh process."""
    paths = (str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "p2.json").write_text('{"rays": [[1, 0], [0, 1], [-1, -1]]}')
        fan = "nosuch.json" if case == "missing" else "p2.json"
        argv = [sys.executable, "-c", PROBE, case, *command, "--fan", fan, *flags]
        write_end = None
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


def exit_code(cell) -> int:
    code, want = run_cell(*cell), expected_code(*cell)
    assert code == want, f"exit {code}, expected {want}: {cell}"
    return 1


@lru_cache(maxsize=None)
def search_pairs() -> tuple:
    """The 19 pairs of `all_fans(8, 5)` with 7 or 8 rays and a group of order
    at least 2, where the rank-pruned reference DFS takes at most seconds."""
    pairs = tuple((fan, group) for fan in oracles.all_fans(8, 5) if fan.n >= 7
                  for group in enumerate_subgroups(compute_aut(fan)) if group.order > 1)
    assert len(pairs) == 19, len(pairs)
    return pairs


def candidates(draw) -> int:
    assert grothendieck._candidate_orbits(*draw, 1) == oracles.closure_candidate_orbits(*draw, 1)
    return 1


def basis_search(draw) -> int:
    closure = oracles.closure_candidate_orbits(*draw, 1)
    assert grothendieck.search_line_bundle_basis(*draw, 1) == oracles.rank_pruned_basis_search(
        draw[0], *closure)
    return 1


class Check(NamedTuple):
    name: str
    unit: str  # what its count counts
    run: Callable  # one draw's count; raises at a mismatch


class Row(NamedTuple):
    name: str
    seeds: range
    draw: Callable[[int], object]
    checks: tuple[Check, ...]


ROWS = (
    Row("validate", range(100), lambda seed: oracles.validate_fan_inputs(corpus_fans(), seed), (
        Check("validate_fan against angle_order_validate_fan", "ray lists", validate),)),
    Row("chains", range(TAIL + 1), chain_draw, (
        Check("cohomology, |c| <= 6, against column_h0", "pairs",
              lambda draw: pairs(draw.fan, draw.small, oracles.column_h0)),
        Check("cohomology, |c| up to 10^9, against floor_sum_h0", "pairs",
              lambda draw: pairs(draw.fan, draw.large, oracles.floor_sum_h0)),
        Check("h0 under the doubling ample class, |c| <= 6", "pairs", lambda draw: pairs(
            draw.fan, draw.small, partial(oracles.walk_h0, table=oracles.doubling_ample_weights))),
        Check("K0 against pairwise_klyachko and band_product_klyachko", "chains", per_chain(k0)),
        Check("bareiss_det against triple_loop_bareiss", "matrices", per_chain(bareiss)),
        Check("contraction and pullback against the stepwise oracles", "classes",
              per_chain(oracles.check_each_class)),
        Check("compute_aut, enumerate_subgroups and classify_subgroup against "
              "candidate_filter_maps, closure_subgroups and loop_classify", "subgroups",
              per_chain(symmetry)),
        Check("collection against pairwise_verify_collection", "collections",
              per_chain(collection)),
    )),
    Row("pairs", range(1, 2), classified, (
        Check("label, certificates, stepwise contraction and blocks as orbits", "pairs",
              every_pair),
        *(Check(f"{unit} against COUNTS", unit, partial(counted, k))
          for k, unit in enumerate(("fans", "pairs", "G-minimal"))),
        Check("every (row, group) entry of TABLE realised", "entries", table_entries),
    )),
    Row("exit", range(len(CELLS)), CELLS.__getitem__, (
        Check("exit code of a fresh process against expected_code", "cells", exit_code),)),
    Row("search", range(19), lambda seed: search_pairs()[seed], (
        Check("_candidate_orbits against closure_candidate_orbits, bound 1", "pairs", candidates),
        Check("search_line_bundle_basis against rank_pruned_basis_search", "pairs",
              basis_search),
    )),
)


def run(rows) -> None:
    """Every check of every row on each of its draws, then one line per
    check, with a rate where the check took 1 ms or more; at the first
    mismatch, the row, the seed and the check, and the exception."""
    for row in rows:
        counts, times = [0] * len(row.checks), [0.0] * len(row.checks)
        for seed in row.seeds:
            draw = row.draw(seed)
            for k, check in enumerate(row.checks):
                start = time.perf_counter()
                try:
                    counts[k] += check.run(draw)
                except Exception:
                    print(f"{row.name}, seed {seed}: {check.name}", flush=True)
                    raise
                times[k] += time.perf_counter() - start
        for check, count, wall in zip(row.checks, counts, times):
            rate = f"{count / wall:7.0f}/s" if wall >= 1e-3 else " " * 9
            print(f"{row.name:8} {count:7} {check.unit:11} {wall:6.2f} s {rate}  {check.name}",
                  flush=True)


if __name__ == "__main__":
    run(ROWS)
