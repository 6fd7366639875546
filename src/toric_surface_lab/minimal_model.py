"""Equivariant (-1)-curve contraction: minimality tests, the contraction loop
and recognition of the minimal endpoints.

A surface with symmetry group G is G-minimal when no G-orbit of pairwise
disjoint torus-invariant (-1)-curves exists.  Contracting such orbits
terminates in one of: the plane, a ruled surface F(a), the quadric surface
P1xP1, or the hexagonal del Pezzo surface dP6 — paired with a compatible
group class.
"""

from __future__ import annotations

from typing import NamedTuple

from .lattice_fan import (
    Fan,
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
    "MINIMAL_KINDS_BY_GROUP",
]


Divisor = tuple[int, ...]


class MinimalModelError(ValueError):
    pass


class NotMinimal(MinimalModelError):
    pass


class TableViolation(MinimalModelError):
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
    family: str  # "(i)".."(iv)"
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
        elements=g.elements, generators=g.generators, fan=after, ray_permutations=perms
    )


# Allowed endpoint kinds for each group class.  "F(a)" entries carry a parity
# or value constraint checked in classify_minimal.
MINIMAL_KINDS_BY_GROUP: dict[str, tuple[str, ...]] = {
    "C1": ("P2", "P1xP1", "F-any"),
    "D2": ("P2", "P1xP1", "F-odd"),
    "D2'": ("F-even",),
    "C2": ("P1xP1",),
    "C4": ("P1xP1",),
    "D4": ("P1xP1",),
    "D4'": ("P1xP1",),
    "D8": ("P1xP1",),
    "C3": ("P2",),
    "D6": ("P2",),
    "C6": ("dP6",),
    "D6'": ("dP6",),
    "D12": ("dP6",),
}


def classify_minimal(fan: Fan, group: SymmetryGroup) -> MinimalLabel:
    """Identify a G-minimal pair as a row of the minimality table.

    Raises NotMinimal if the pair still has a contractible orbit and
    TableViolation if the endpoint does not match any allowed row.
    """
    group = group.on(fan)
    if not is_g_minimal(fan, group):
        raise NotMinimal(f"{fan} still has contractible orbits")
    label = classify_subgroup(group)
    allowed = MINIMAL_KINDS_BY_GROUP[label]

    n = fan.n
    a_seq = self_intersections(fan)
    if n == 3:
        if fans_isomorphic(fan, p2_fan()) is None:
            raise TableViolation(f"3-ray fan {fan} is not the plane fan")
        kind, a = "P2", None
    elif n == 4:
        a = max(a_seq)
        if a == 1:
            raise TableViolation("F(1) can never be a minimal endpoint")
        if a == 0:
            # Same fan, two table rows: the D2' row reads it as the ruled
            # surface F(0), every other row as the quadric.
            kind = "F(0)" if label == "D2'" else "P1xP1"
        else:
            kind = f"F({a})"
    elif n == 6:
        if fans_isomorphic(fan, dp6_fan()) is None:
            raise TableViolation(f"6-ray fan {fan} is not the hexagonal fan")
        kind, a = "dP6", None
    else:
        raise TableViolation(f"minimal fan with {n} rays")

    # The endpoint's row tags; F(1) was rejected, so an odd twist is >= 3.
    rows = {kind}
    if kind.startswith("F("):
        rows |= {"F-any", "F-even" if a % 2 == 0 else "F-odd"}
    if rows.isdisjoint(allowed):
        raise TableViolation(f"minimal pair ({kind}, {label}) is not a table row")
    family = {"P2": "(ii)", "P1xP1": "(iii)", "dP6": "(iv)"}.get(kind, "(i)")
    return MinimalLabel(
        kind=kind, group_label=label, family=family, fan=fan, hirzebruch_a=a
    )


def classify_pair(fan: Fan, group: SymmetryGroup) -> tuple[ContractionTrace, MinimalLabel]:
    """Contract a pair to its minimal model and label the endpoint, once.

    The trace has no steps exactly when the pair is already G-minimal.
    """
    trace = minimalize(fan, group)
    return trace, classify_minimal(trace.terminal_fan, trace.terminal_group)


def pullback(
    trace: ContractionTrace, divisors
) -> tuple[list[Divisor], list[list[Divisor]]]:
    """Total transforms on the initial fan of divisors on the terminal fan,
    and `exceptional[k]`: the classes O(E) of the rays contracted in step k,
    pulled back to the initial fan.

    An inserted ray takes the sum of its two neighbours' coefficients: the
    support function is linear on the subdivided cone.
    """
    transforms = [tuple(d) for d in divisors]
    exceptional: list[list[Divisor]] = []
    for step in reversed(trace.steps):
        transforms = [_total_transform(step, d) for d in transforms]
        exceptional = [[_total_transform(step, d) for d in block] for block in exceptional]
        rays = step.before.rays
        exceptional.insert(0, [tuple(int(v == ray) for v in rays) for ray in step.contracted])
    return transforms, exceptional


def _total_transform(step: ContractionStep, d: Divisor) -> Divisor:
    """A divisor on step.after as one on step.before."""
    coeff = dict(zip(step.after.rays, d))
    rays = step.before.rays
    n = len(rays)
    return tuple(
        coeff[v] if v in coeff else coeff[rays[i - 1]] + coeff[rays[(i + 1) % n]]
        for i, v in enumerate(rays)
    )
