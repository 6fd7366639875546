"""The classification theorem on every small fan.

Every smooth complete fan is a blow-up of P2 or of some F(a) and is fixed up
to GL2(Z) by its cyclic sequence of self-intersections (Oda 1988, 1.6-1.7).
`oracles.all_fans(N, A)` lists one fan per class with at most N rays and
every |a_i| <= A.  Each fan is paired with every subgroup of its automorphism
group, contracted and labelled by `classify_pair`, and the pair is checked:

- its label's group class is that of the input group;
- the terminal pair is G-minimal;
- the terminal fan is labelled P2 or dP6 exactly when `fans_isomorphic`
  maps it onto `p2_fan()` or `dp6_fan()`;
- the K0 certificate, the standard basis and collection certificates, and
  the terminal fan and step count of `oracles.stepwise_minimalize`;
- the paper's correspondence between the exceptional collection and the
  K-motive: the collection's objects, whose certificate reads the standard
  basis's as `report` does, have the blocks as their G-orbits, and the
  sorted block sizes equal the standard basis's orbit sizes.  `motivic.decompose` gives one factor per basis orbit,
  of its size, so the blocks match the factors too.

A TableViolation, a G-minimal pair outside the table, propagates.

    PYTHONPATH=src:tests python tests/classification_sweep.py 12 5

prints one line per table row and exits 1 on a failed check, on a table
(row, group) that no pair realises, or on counts that differ from COUNTS.
Tier-1 runs (10, 4) (`test_minimal_model.py::TestEverySmallFan`), and CI
runs (12, 5).
"""

from __future__ import annotations

import sys
from typing import NamedTuple

from oracles import all_fans, stepwise_minimalize

from toric_surface_lab.derived import build_collection, verify_collection
from toric_surface_lab.grothendieck import (
    standard_permutation_basis,
    verify_klyachko,
    verify_permutation_basis,
)
from toric_surface_lab.lattice_fan import dp6_fan, fans_isomorphic, p2_fan
from toric_surface_lab.minimal_model import (
    TABLE,
    MinimalLabel,
    classify_pair,
    is_g_minimal,
    pullback,
)
from toric_surface_lab.symmetry import classify_subgroup, compute_aut, enumerate_subgroups

# (fans, (fan, subgroup) pairs, G-minimal pairs) at (max_rays, bound).
COUNTS = {(10, 4): (585, 666, 25), (12, 5): (8911, 9091, 27)}


class Sweep(NamedTuple):
    fans: int
    pairs: int
    minimal: int  # pairs that are G-minimal as given
    realised: dict  # TableRow -> {group label: pairs}
    failures: list[str]

    @property
    def counts(self) -> tuple[int, int, int]:
        return self.fans, self.pairs, self.minimal


def _failed_checks(fan, group) -> tuple[MinimalLabel, list[str]]:
    """The label of one pair and the names of the checks it fails."""
    trace, label = classify_pair(fan, group)
    terminal = trace.terminal_fan
    p2, dp6 = (fans_isomorphic(terminal, f()) is not None for f in (p2_fan, dp6_fan))
    pulled = pullback(trace)
    stepwise = stepwise_minimalize(fan, group)
    basis = verify_permutation_basis(standard_permutation_basis(pulled, label), group)
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
    """Every (fan, subgroup) pair of `all_fans(max_rays, bound)`, checked."""
    fans = all_fans(max_rays, bound)
    realised = {row: {} for row in TABLE}
    failures, pairs, minimal = [], 0, 0
    for fan in fans:
        for group in enumerate_subgroups(compute_aut(fan)):
            label, failed = _failed_checks(fan, group)
            pairs += 1
            minimal += is_g_minimal(fan, group)
            seen = realised[label.row]
            seen[label.group_label] = seen.get(label.group_label, 0) + 1
            failures += [f"{fan!r} under {label.group_label}: {name}" for name in failed]
    return Sweep(len(fans), pairs, minimal, realised, failures)


def main(argv: list[str]) -> int:
    max_rays, bound = map(int, argv)
    result = sweep(max_rays, bound)
    for row, seen in result.realised.items():
        groups = " ".join(f"{g}:{seen.get(g, 0)}" for g in sorted(row.groups))
        print(f"{row.index} {row.kind}: {sum(seen.values())} pairs; {groups}")
    print(f"{result.fans} fans, {result.pairs} pairs, {result.minimal} G-minimal, "
          f"{len(result.failures)} failures")
    for line in result.failures:
        print(line)
    unrealised = [(row.kind, g) for row in TABLE for g in row.groups
                  if g not in result.realised[row]]
    if unrealised:
        print(f"table entries no pair realises: {unrealised}")
    expected = COUNTS.get((max_rays, bound), result.counts)
    if result.counts != expected:
        print(f"expected {expected[0]} fans, {expected[1]} pairs, {expected[2]} G-minimal")
    return 1 if result.failures or unrealised or result.counts != expected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
