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
    self_intersections,
    validate_fan,
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
    """One orbit contracted, read as the blow-ups that undo it.

    `contracted` lists the orbit's rays as indices into the trace's initial
    fan, ascending, and `parents[j]` the initial indices (u, w) of the two
    neighbours ray `contracted[j]` had when it was contracted.  That ray is
    v_u + v_w, the blow-up of the cone (u, w), so a class pulls back along
    the step by c_v = c_u + c_w.
    """

    contracted: tuple[int, ...]
    parents: tuple[tuple[int, int], ...]


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


def _contractible(orbit: tuple[int, ...], a, nxt) -> bool:
    """Whether the rays of `orbit` are (-1)-rays, no two of them neighbours;
    `a[i]` is the self-intersection of ray i and `nxt[i]` the ray after it."""
    return all(a[i] == -1 and nxt[i] not in orbit for i in orbit)


def contractible_orbits(fan: Fan, group: SymmetryGroup) -> list[tuple[int, ...]]:
    """Ray-index orbits consisting of pairwise non-adjacent (-1)-rays."""
    a, nxt = self_intersections(fan), [*range(1, fan.n), 0]
    return [o for o in group.on(fan).ray_orbits() if _contractible(o, a, nxt)]


def is_g_minimal(fan: Fan, group: SymmetryGroup) -> bool:
    return not contractible_orbits(fan, group)


def minimalize(fan: Fan, group: SymmetryGroup) -> ContractionTrace:
    """Contract orbits of disjoint (-1)-curves until none remain.

    Each round takes, by least ray index, every contractible orbit that
    neither meets nor neighbours one already taken, and contracts them one
    orbit per step.  The rounds run on initial ray indices: orbits never
    split, and contracting v = v_u + v_w raises a_u and a_w by one and
    changes nothing else, so only the orbits of u and w are checked again.
    One fan is built, the terminal one.
    """
    group = group.on(fan)
    rays, n = fan.rays, fan.n
    a = list(self_intersections(fan))
    prv = {i: (i - 1) % n for i in range(n)}  # the live rays' neighbours
    nxt = {i: (i + 1) % n for i in range(n)}
    orbit_of = {i: o for o in group.ray_orbits() for i in o}
    ready = {o for o in set(orbit_of.values()) if _contractible(o, a, nxt)}
    steps = []
    while ready:
        taken, near = [], set()
        for orbit in sorted(ready):
            if near.isdisjoint(orbit):
                taken.append(orbit)
                near.update(orbit, [prv[i] for i in orbit], [nxt[i] for i in orbit])
        for orbit in taken:
            parents = []
            for v in orbit:
                u, w = prv[v], nxt[v]
                if (rays[u][0] + rays[w][0], rays[u][1] + rays[w][1]) != rays[v]:
                    raise InternalError(f"contracted ray {rays[v]} is not {rays[u]} + {rays[w]}")
                parents.append((u, w))
                a[u] += 1
                a[w] += 1
                del prv[v], nxt[v]
                nxt[u], prv[w] = w, u
            steps.append(ContractionStep(orbit, tuple(parents)))
        # Only the orbits in `near` changed; the taken ones are gone.
        touched = ready.union(orbit_of[i] for i in near)
        ready = {o for o in touched if o[0] in nxt and _contractible(o, a, nxt)}
    live = sorted(nxt)
    terminal = validate_fan([rays[i] for i in live])
    if self_intersections(terminal) != tuple(a[i] for i in live):
        raise InternalError("tracked self-intersections disagree with the terminal fan")
    return ContractionTrace(fan, tuple(steps), terminal, group.on(terminal))


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

    # A fan is fixed up to GL2(Z) by its cyclic self-intersection sequence (Oda
    # 1988, 1.6); the plane's and the hexagon's are the same in every rotation.
    n, seq = fan.n, self_intersections(fan)
    a = None
    if n == 3:
        if seq != (1, 1, 1):
            raise TableViolation(f"3-ray fan {fan} is not the plane fan")
        kinds = ("P2",)
    elif n == 4:
        a = max(seq)
        if a == 1:
            raise TableViolation("F(1) can never be a minimal endpoint")
        kinds = ("P1xP1", "F-even") if a == 0 else ("F-odd" if a % 2 else "F-even",)
    elif n == 6:
        if seq != (-1,) * 6:
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
    """The terminal ray divisors (terminal ray i is the i-th surviving one) and
    each step's exceptional classes, pulled back along `trace` to its initial
    fan.  D_v's support function is v's tent: 1 on v, 0 on the other rays of
    the surface where v lies between u and w (its parents, or the live rays
    next to it), linear on the smooth cones.  So an initial ray x from u to v
    gets det(v_u, v_x), from v to w det(v_x, v_w), any other 0 (Fulton 1993, 3.4)."""
    fan, n = trace.initial_fan, trace.initial_fan.n

    def tent(u: int, v: int, w: int) -> Divisor:
        c, r, left = [0] * n, fan.rays, (v - u) % n
        for k in range(1, left + (w - v) % n):
            x = (u + k) % n
            c[x] = det2(r[u], r[x]) if k <= left else det2(r[x], r[w])
        return tuple(c)

    live = sorted(set(range(n)).difference(*(s.contracted for s in trace.steps)))
    return Pullback(fan, tuple(map(tent, live[-1:] + live, live, live[1:] + live)),
                    tuple(tuple(tent(u, v, w) for v, (u, w) in zip(s.contracted, s.parents))
                          for s in trace.steps))
