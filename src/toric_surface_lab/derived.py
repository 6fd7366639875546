"""Exceptional collections of line bundles, assembled from a contraction
trace and certified by exact Ext computations.

The minimal cores carry the classical collections (structure sheaf plus
twists); each blow-up step contributes the block of classes O(E) of its
exceptional orbit, placed right after the structure sheaf (the right mutation
of the pair (O_E(-1), O) is (O, O(E))).  Every block is one group orbit, so
the collection descends: `minimalize` contracts one orbit per step, and the
group acts on the pulled-back core through the terminal group, whose orbits
are the blocks of `core_blocks`.  `verify_collection` checks it independently.
"""

from __future__ import annotations

from typing import NamedTuple

from .cohomology import ext_line_bundles, line_bundle_cohomology
from .grothendieck import _class_orbit, _ray_sum, core_blocks, line_bundle_class, picard
from .intlinalg import bareiss_det
from .lattice_fan import Fan
from .minimal_model import ContractionTrace, Divisor, MinimalLabel, pullback
from .symmetry import SymmetryGroup

__all__ = [
    "ExceptionalCollection",
    "CollectionCertificate",
    "ExtViolation",
    "build_collection",
    "verify_collection",
]


class ExceptionalCollection(NamedTuple):
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


class ExtViolation(NamedTuple):
    kind: str  # "self", "block" or "order"
    source_block: int
    source: Divisor
    target_block: int
    target: Divisor
    ext: tuple[int, int, int]


class CollectionCertificate(NamedTuple):
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


def build_collection(trace: ContractionTrace, label: MinimalLabel) -> ExceptionalCollection:
    """Ordered exceptional blocks for a contraction trace.

    `label` classifies the trace's terminal pair; a minimal pair is a trace
    without steps.  Order: the structure sheaf, then one block O(E_i) per
    blow-up step (outermost contraction first, total transforms taken for
    inner steps), then the remaining core blocks of `core_blocks(label)`
    pulled back.
    """
    core = core_blocks(label)
    transforms, exceptional = pullback(
        trace, [_ray_sum(label.fan.n, rays) for block in core for _, rays in block]
    )
    pulled = iter(transforms)
    blocks = [[next(pulled) for _ in block] for block in core]
    blocks = blocks[:1] + exceptional + blocks[1:]
    return ExceptionalCollection(
        fan=trace.initial_fan,
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
    perms = group.on(fan).ray_permutations.values()
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
            if not _class_orbit(lat, perms, d) <= block_classes:
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
