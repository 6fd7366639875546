"""Equivariant (-1)-curve contraction: minimality tests, the contraction loop
and recognition of the minimal endpoints.

A surface with symmetry group G is G-minimal when no G-orbit of pairwise
disjoint torus-invariant (-1)-curves exists.  Contracting such orbits
terminates in one of: the plane, a ruled surface F(a), the quadric surface
P1xP1, or the hexagonal del Pezzo surface dP6 — paired with a compatible
group class.
"""

from __future__ import annotations

from operator import add
from typing import NamedTuple

from .intlinalg import det2
from .lattice_fan import (
    Fan,
    InternalError,
    LabError,
    blow_down,
    dp6_fan,
    fans_isomorphic,
    p2_fan,
    self_intersections,
)
from .symmetry import SymmetryGroup, classify_subgroup

__all__ = [
    "ContractionStep",
    "ContractionTrace",
    "MinimalLabel",
    "MinimalModelError",
    "NotMinimal",
    "TableViolation",
    "contractible_orbits",
    "is_g_minimal",
    "minimalize",
    "classify_minimal",
    "classify_pair",
    "pullback",
    "Pullback",
    "TABLE",
    "TableRow",
]


Divisor = tuple[int, ...]


class MinimalModelError(LabError):
    pass


class NotMinimal(MinimalModelError):
    pass


class TableViolation(InternalError):
    """A minimal pair outside the classification table; indicates a bug."""


class ContractionStep(NamedTuple):
    before: Fan
    contracted: tuple[tuple[int, int], ...]  # ray vectors removed in this step
    after: Fan


class ContractionTrace(NamedTuple):
    initial_fan: Fan
    steps: tuple[ContractionStep, ...]
    terminal_fan: Fan
    terminal_group: SymmetryGroup


class MinimalLabel(NamedTuple):
    kind: str  # "P2", "F(a)", "P1xP1" or "dP6"
    group_label: str
    row: TableRow
    fan: Fan
    hirzebruch_a: int | None = None

    def __str__(self) -> str:
        return f"{self.kind}/{self.group_label}"


def contractible_orbits(fan: Fan, group: SymmetryGroup) -> list[tuple[int, ...]]:
    """Ray-index orbits consisting of pairwise non-adjacent (-1)-rays."""
    group = group.on(fan)
    a = self_intersections(fan)
    n = fan.n
    out = []
    for orbit in group.ray_orbits():
        if any(a[i] != -1 for i in orbit):
            continue
        members = set(orbit)
        if any((i + 1) % n in members for i in orbit):
            continue
        out.append(orbit)
    return out


def is_g_minimal(fan: Fan, group: SymmetryGroup) -> bool:
    return not contractible_orbits(fan, group)


def _greedy_orbit_union(orbits: list[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
    """Maximal pairwise-compatible union of orbits, preferring low ray index."""
    chosen: list[tuple[int, ...]] = []
    used: set[int] = set()
    for orbit in sorted(orbits, key=lambda o: o[0]):
        members = set(orbit)
        blocked = members & used
        blocked |= {i for i in orbit if (i + 1) % n in used or (i - 1) % n in used}
        if not blocked:
            chosen.append(orbit)
            used |= members
    return chosen


def minimalize(fan: Fan, group: SymmetryGroup) -> ContractionTrace:
    """Contract orbits of disjoint (-1)-curves until none remain.

    Each round picks the greedy maximal compatible union of contractible
    orbits and contracts it one orbit per recorded step, so traces are
    reproducible and every contracted set is a single group orbit.
    """
    group = group.on(fan)
    initial = fan
    steps: list[ContractionStep] = []
    current = fan
    g = group
    while True:
        orbits = contractible_orbits(current, g)
        if not orbits:
            break
        round_fan = current
        for orbit in _greedy_orbit_union(orbits, round_fan.n):
            # Orbit indices refer to the fan at the start of the round; the
            # rays themselves survive earlier contractions in the same round.
            rays = tuple(round_fan.rays[i] for i in orbit)
            indices = [current.rays.index(v) for v in rays]
            after = blow_down(current, indices)
            steps.append(ContractionStep(before=current, contracted=rays, after=after))
            current = after
            g = _descend(g, current)
    return ContractionTrace(
        initial_fan=initial,
        steps=tuple(steps),
        terminal_fan=current,
        terminal_group=g,
    )


def _descend(g: SymmetryGroup, after: Fan) -> SymmetryGroup:
    """`g` attached to `after`, the fan left by contracting a g-stable set of
    rays of `g.fan`.

    Each ray permutation drops the contracted indices and renumbers the
    rest, in O(|G| n), where a fresh attach maps every ray through every
    element and looks each image up in the ray list.
    """
    position = {v: i for i, v in enumerate(g.fan.rays)}
    kept = [position[v] for v in after.rays]
    renumber = {i: j for j, i in enumerate(kept)}
    perms = {h: tuple(renumber[p[i]] for i in kept) for h, p in g.ray_permutations.items()}
    return SymmetryGroup(
        elements=g.elements, generators=g.generators, fan=after, ray_permutations=perms,
        presentation=g.presentation,
    )


DP6_PAIRING_NOTE = (
    "dP6 slot bookkeeping: the factor named P sits on the size-3 orbit "
    "(cubic etale base by stabilizer index) although the classical rank-9 "
    "description of P carries the quadratic base; the orbit sizes recorded "
    "here are authoritative for the base degrees, the names follow the "
    "family convention."
)

ODD_RULING_NOTE = (
    "ruled surface with odd twist: the quaternion label is trivial, every "
    "factor splits."
)


class TableRow(NamedTuple):
    """One row of the minimality table: an endpoint, the group classes it is
    minimal for, and the named factor slots of its K-motive.

    `blocks` lists the core line bundles O(D) of the endpoint's exceptional
    collection, block by block, as (slot role, rays of D, factor slot).  Each
    block is closed under the row's groups.  On 4-ray fans a ray is counted
    from the negative section: the section is 0 and the fiber -1.
    """

    kind: str
    groups: frozenset[str]
    index: str  # the family, "(i)".."(iv)"
    slots: tuple[str, ...]
    description: str
    notes: tuple[str, ...]
    blocks: tuple[tuple[tuple[str, tuple[int, ...], str], ...], ...]

    @property
    def roles(self) -> dict[str, str]:
        """Factor slot of each core slot role."""
        return {role: slot for block in self.blocks for role, _, slot in block}


def _ruled_blocks(fiber: str, section: str, both: str, swapped: bool = False):
    blocks = ((("J_fiber", (-1,), fiber),), (("J_section", (0,), section),))
    if swapped:  # the group exchanges the rulings: J1 and J2 share a block
        blocks = (blocks[0] + blocks[1],)
    return ((("one", (), "k"),), *blocks, (("J_both", (-1, 0), both),))


_QUADRIC = ("(iii)", ("k", "B", "A"),
            "quadric surface: k x B x A with B over the quadratic discriminant base", ())

# The minimal pairs, one row per endpoint.  A fan is read as the first row
# whose kind fits it and whose groups hold its group class, so the square
# fan is the quadric except under D2', which reads it as F(0).  The quadric
# rows split by whether the group exchanges the two rulings (it contains a
# conjugate of the swap C or the quarter turn B); an odd twist makes the
# quaternion label of a ruled surface trivial.
TABLE: tuple[TableRow, ...] = (
    TableRow(
        "P2", frozenset({"C1", "D2", "C3", "D6"}), "(ii)", ("k", "A", "A^{⊗2}"),
        "twisted plane: k x A x A^{tensor 2}", (),
        ((("one", (), "k"),), (("J", (0,), "A"),), (("J2", (0, 0), "A^{⊗2}"),)),
    ),
    TableRow("P1xP1", frozenset({"C1", "C2", "D4'"}), *_QUADRIC, _ruled_blocks("B", "B", "A")),
    TableRow(
        "P1xP1", frozenset({"D2", "C4", "D4", "D8"}), *_QUADRIC,
        _ruled_blocks("B", "B", "A", swapped=True),
    ),
    TableRow(
        "F-even", frozenset({"C1", "D2'"}), "(i)", ("k", "Q", "k", "Q"),
        "ruled surface over a conic: k x Q x k x Q", (), _ruled_blocks("Q", "k", "Q"),
    ),
    TableRow(
        "F-odd", frozenset({"C1", "D2"}), "(i)", ("k", "k", "k", "k"),
        "ruled surface with odd twist: all factors split", (ODD_RULING_NOTE,),
        _ruled_blocks("k", "k", "k"),
    ),
    TableRow(
        "dP6", frozenset({"C6", "D6'", "D12"}), "(iv)", ("k", "P", "Q"),
        "hexagonal del Pezzo: k x P x Q", (DP6_PAIRING_NOTE,),
        (
            (("one", (), "k"),),
            (("R", (0, 5), "P"), ("R", (1, 2), "P"), ("R", (3, 4), "P")),
            (("Q", (0, 1, 2), "Q"), ("Q", (3, 4, 5), "Q")),
        ),
    ),
)


def classify_minimal(fan: Fan, group: SymmetryGroup) -> MinimalLabel:
    """Identify a G-minimal pair as a row of the minimality table.

    Raises NotMinimal if the pair still has a contractible orbit and
    TableViolation if the endpoint does not match any row.
    """
    group = group.on(fan)
    if not is_g_minimal(fan, group):
        raise NotMinimal(f"{fan} still has contractible orbits")
    label = classify_subgroup(group)

    n = fan.n
    a = None
    if n == 3:
        if fans_isomorphic(fan, p2_fan()) is None:
            raise TableViolation(f"3-ray fan {fan} is not the plane fan")
        kinds = ("P2",)
    elif n == 4:
        a = max(self_intersections(fan))
        if a == 1:
            raise TableViolation("F(1) can never be a minimal endpoint")
        kinds = ("P1xP1", "F-even") if a == 0 else ("F-odd" if a % 2 else "F-even",)
    elif n == 6:
        if fans_isomorphic(fan, dp6_fan()) is None:
            raise TableViolation(f"6-ray fan {fan} is not the hexagonal fan")
        kinds = ("dP6",)
    else:
        raise TableViolation(f"minimal fan with {n} rays")

    row = next((r for r in TABLE if r.kind in kinds and label in r.groups), None)
    if row is None:
        raise TableViolation(f"minimal {n}-ray pair with group {label} is not a table row")
    kind = f"F({a})" if row.kind.startswith("F-") else row.kind
    return MinimalLabel(kind=kind, group_label=label, row=row, fan=fan, hirzebruch_a=a)


def classify_pair(fan: Fan, group: SymmetryGroup) -> tuple[ContractionTrace, MinimalLabel]:
    """Contract a pair to its minimal model and label the endpoint, once.

    The trace has no steps exactly when the pair is already G-minimal.
    """
    trace = minimalize(fan, group)
    return trace, classify_minimal(trace.terminal_fan, trace.terminal_group)


class Pullback(NamedTuple):
    """Total transforms on the initial fan of a contraction trace: `rays[i]`
    of the terminal ray divisor D_i, and `exceptional[k]` of the classes
    O(E) of the rays contracted in step k."""

    fan: Fan
    rays: tuple[Divisor, ...]
    exceptional: tuple[tuple[Divisor, ...], ...]

    def total(self, rays) -> Divisor:
        """The total transform of sum(D_i for i in rays): the pullback is
        linear."""
        out = (0,) * self.fan.n
        for i in rays:
            out = tuple(map(add, out, self.rays[i]))
        return out


def pullback(trace: ContractionTrace) -> Pullback:
    """The terminal ray divisors and each step's exceptional classes, pulled
    back along `trace` to its initial fan, each in one walk from the fan it
    lives on: the terminal fan, or the fan before the step.
    """
    def units(coarse: Fan, rays) -> tuple[Divisor, ...]:
        return tuple(_total_transform(coarse, trace.initial_fan,
                                      [int(v == ray) for v in coarse.rays]) for ray in rays)

    end = trace.terminal_fan
    return Pullback(trace.initial_fan, units(end, end.rays),
                    tuple(units(step.before, step.contracted) for step in trace.steps))


def _total_transform(coarse: Fan, fine: Fan, d) -> Divisor:
    """A divisor on `coarse` as one on `fine`, whose rays include those of
    `coarse` in the same order.  The support function of d is linear on each
    cone (u, w) of `coarse`: a ray v in it is det(v, w) u + det(u, v) w, so it
    gets det(v, w) c_u + det(u, v) c_w.
    """
    rays, out, j = coarse.rays, [], 0
    for v in fine.rays:
        u, w = rays[j - 1], rays[j % len(rays)]  # the cone that holds v
        out.append(det2(v, w) * d[j - 1] + det2(u, v) * d[j % len(rays)])
        if v == w:
            j += 1
    return tuple(out)
