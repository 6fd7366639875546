"""Exceptional collections of line bundles, assembled from a contraction
trace and certified by exact Ext computations.

The minimal cores carry the classical collections (structure sheaf plus
twists); each blow-up step contributes the block of classes O(E) of its
exceptional orbit, placed right after the structure sheaf (the right mutation
of the pair (O_E(-1), O) is (O, O(E))).  Blocks are kept unions of group
orbits so they can descend.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cohomology import ext_line_bundles, line_bundle_cohomology
from .grothendieck import (
    NotClassified,
    act_on_divisor,
    line_bundle_class,
    picard,
)
from .intlinalg import bareiss_det
from .lattice_fan import Fan
from .minimal_model import ContractionTrace, MinimalLabel
from .symmetry import SymmetryGroup

__all__ = [
    "ExceptionalCollection",
    "CollectionCertificate",
    "ExtViolation",
    "build_collection",
    "verify_collection",
]

Divisor = tuple[int, ...]


@dataclass(frozen=True)
class ExceptionalCollection:
    fan: Fan
    blocks: tuple[tuple[Divisor, ...], ...]
    provenance: str

    def objects(self) -> list[Divisor]:
        return [d for block in self.blocks for d in block]

    def reversed(self) -> "ExceptionalCollection":
        return ExceptionalCollection(
            fan=self.fan,
            blocks=tuple(reversed(self.blocks)),
            provenance=self.provenance + " (reversed)",
        )


@dataclass(frozen=True)
class ExtViolation:
    kind: str  # "self", "block" or "order"
    source_block: int
    source: Divisor
    target_block: int
    target: Divisor
    ext: tuple[int, int, int]


@dataclass(frozen=True)
class CollectionCertificate:
    self_ext_ok: bool
    block_ok: bool
    order_ok: bool
    determinant: int
    blocks_group_closed: bool
    pairs_checked: int
    first_violation: ExtViolation | None

    @property
    def ok(self) -> bool:
        return (
            self.self_ext_ok
            and self.block_ok
            and self.order_ok
            and self.determinant in (1, -1)
            and self.blocks_group_closed
        )


def _core_collection_blocks(label: MinimalLabel) -> list[list[Divisor]]:
    fan = label.fan
    n = fan.n

    def d(*idx) -> Divisor:
        out = [0] * n
        for i in idx:
            out[i] += 1
        return tuple(out)

    if label.kind == "P2":
        return [[d()], [d(0)], [d(0, 0)]]
    if n == 4:
        from .grothendieck import hirzebruch_marking

        f, s = hirzebruch_marking(fan)
        return [[d()], [d(f)], [d(s)], [d(f, s)]]
    if label.kind == "dP6":
        return [
            [d()],
            [d(0, 5), d(1, 2), d(3, 4)],
            [d(0, 1, 2), d(3, 4, 5)],
        ]
    raise NotClassified(f"no core collection for kind {label.kind}")


def _transport_block(step, block: list[Divisor]) -> list[Divisor]:
    from .grothendieck import _transport_divisor

    return [_transport_divisor(step, c) for c in block]


def _merge_blocks_by_orbits(
    fan: Fan, group: SymmetryGroup, blocks: list[list[Divisor]]
) -> list[list[Divisor]]:
    """Coarsen the block partition so every group orbit stays in one block.

    Line bundles are compared by Picard coordinates, which determine them.
    """
    if group.fan != fan or group.ray_permutations is None:
        group = group.attach(fan)
    lat = picard(fan)
    flat = [(bi, d) for bi, block in enumerate(blocks) for d in block]
    class_of = {d: lat.divisor_coords(d) for _, d in flat}
    block_of_class = {}
    for bi, d in flat:
        block_of_class.setdefault(class_of[d], bi)
    parent = list(range(len(blocks)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    for bi, d in flat:
        for perm in group.ray_permutations.values():
            image = lat.divisor_coords(act_on_divisor(perm, d))
            target = block_of_class.get(image)
            if target is not None:
                union(bi, target)
    merged: dict[int, list[Divisor]] = {}
    order: list[int] = []
    for bi, block in enumerate(blocks):
        root = find(bi)
        if root not in merged:
            merged[root] = []
            order.append(root)
        merged[root].extend(block)
    return [merged[root] for root in order]


def build_collection(
    trace: ContractionTrace, label: MinimalLabel, group: SymmetryGroup
) -> ExceptionalCollection:
    """Ordered exceptional blocks for a contraction trace.

    `label` classifies the trace's terminal pair; a minimal pair is a trace
    without steps.  Order: the structure sheaf, then one block O(E_i) per
    blow-up step (outermost contraction first, total transforms taken for
    inner steps), then the remaining core line bundles pulled back.
    """
    blocks = _core_collection_blocks(label)
    for step_index in range(len(trace.steps) - 1, -1, -1):
        step = trace.steps[step_index]
        blocks = [_transport_block(step, b) for b in blocks]
        exc_block = []
        for ray in step.contracted:
            i = step.before.rays.index(ray)
            exc_block.append(
                tuple(1 if e == i else 0 for e in range(step.before.n))
            )
        blocks = [blocks[0], exc_block] + blocks[1:]
    fan = trace.initial_fan
    blocks = _merge_blocks_by_orbits(fan, group, blocks)
    return ExceptionalCollection(
        fan=fan,
        blocks=tuple(tuple(b) for b in blocks),
        provenance=f"{label} core + {len(trace.steps)} blow-up step(s)",
    )


def verify_collection(
    coll: ExceptionalCollection, fan: Fan, group: SymmetryGroup
) -> CollectionCertificate:
    """Check every collection axiom with exact Ext computations.

    Verified, in scan order: Ext(V,V) = (1,0,0) for each object; full Ext
    vanishing between distinct objects of one block; Ext vanishing from any
    object to every object of an earlier block; unimodularity of the K-class
    matrix (the fullness certificate); blocks closed under the group.
    """
    if group.fan != fan or group.ray_permutations is None:
        group = group.attach(fan)
    zero = (0, 0, 0)
    first: ExtViolation | None = None
    self_ok = block_ok = order_ok = True
    checked = 0

    def note(v: ExtViolation) -> None:
        nonlocal first
        if first is None:
            first = v

    # Ext(V, V) = H*(O_X) for every line bundle V: computed once, compared
    # for each object.
    self_ext = line_bundle_cohomology(fan, (0,) * fan.n).as_tuple()
    for bi, block in enumerate(coll.blocks):
        for d in block:
            checked += 1
            if self_ext != (1, 0, 0):
                self_ok = False
                note(ExtViolation("self", bi, d, bi, d, self_ext))

    for bi, block in enumerate(coll.blocks):
        for i, d1 in enumerate(block):
            for j, d2 in enumerate(block):
                if i == j:
                    continue
                ext = ext_line_bundles(fan, d1, d2).as_tuple()
                checked += 1
                if ext != zero:
                    block_ok = False
                    note(ExtViolation("block", bi, d1, bi, d2, ext))

    for s in range(1, len(coll.blocks)):
        for t in range(s):
            for d_late in coll.blocks[s]:
                for d_early in coll.blocks[t]:
                    ext = ext_line_bundles(fan, d_late, d_early).as_tuple()
                    checked += 1
                    if ext != zero:
                        order_ok = False
                        note(ExtViolation("order", s, d_late, t, d_early, ext))

    objects = coll.objects()
    if len(objects) == fan.n:
        det = bareiss_det(
            [list(line_bundle_class(fan, d).model_vector()) for d in objects]
        )
    else:
        det = 0

    lat = picard(fan)
    closed = bool(objects)
    for block in coll.blocks:
        block_classes = {lat.divisor_coords(d) for d in block}
        for d in block:
            for perm in group.ray_permutations.values():
                if lat.divisor_coords(act_on_divisor(perm, d)) not in block_classes:
                    closed = False

    return CollectionCertificate(
        self_ext_ok=self_ok,
        block_ok=block_ok,
        order_ok=order_ok,
        determinant=det,
        blocks_group_closed=closed,
        pairs_checked=checked,
        first_violation=first,
    )
