"""Exceptional collections of line bundles, assembled from a contraction
trace and certified by exact Ext computations.

The minimal cores carry the classical collections (structure sheaf plus
twists); each blow-up step contributes the block of classes O(E) of its
exceptional orbit, placed right after the structure sheaf (the right mutation
of the pair (O_E(-1), O) is (O, O(E))).  Every block is one group orbit, so
the collection descends: `minimalize` contracts one orbit per step, and the
group acts on the pulled-back core through the terminal group, whose orbits
are the blocks of `core_blocks`.  `verify_collection` checks it independently,
on the fan the collection names, and returns its verdict: a failed check is a
certificate whose `ok` is False, with the first violated pair, not an
exception.  Fullness and group closure are one permutation-basis certificate
of the objects: the blocks are unions of the orbits of a basis of K0.

The objects are the classes of the standard permutation basis with the core
rows dualised: O(E) stays, and O(-D) of the terminal surface's basis becomes
O(D).  Given the certificate of that basis, the objects' certificate reads
from it the row of each object, the orbits and the determinant, which is
det(basis) times a sign: no second set of coordinates, elimination or orbit
partition.  Without one, or when an object matches no row, the objects are
certified from scratch.
"""

from __future__ import annotations

from itertools import chain
from operator import mul, sub
from typing import NamedTuple

from .cohomology import _ample_weights, _cohomology
from .grothendieck import (
    BasisCertificate,
    PermutationBasis,
    core_blocks,
    verify_permutation_basis,
)
from .lattice_fan import Fan, divisor

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

    def reversed(self) -> "ExceptionalCollection":
        return ExceptionalCollection(
            fan=self.fan,
            blocks=tuple(reversed(self.blocks)),
            provenance=self.provenance + " (reversed)",
        )


class ExtViolation(NamedTuple):
    kind: str  # "self", "block" or "order"
    source: Divisor
    target: Divisor
    ext: tuple[int, int, int]


class CollectionCertificate(NamedTuple):
    determinant: int
    # The objects' orbits, as object indices in scan order, when their classes
    # are a permutation basis of K0; () otherwise.
    orbits: tuple[tuple[int, ...], ...]
    # The classes are a permutation basis of K0 and no orbit leaves its block.
    blocks_group_closed: bool
    pairs_checked: int
    first_violation: ExtViolation | None

    @property
    def ok(self) -> bool:
        return self.first_violation is None and self.blocks_group_closed


def build_collection(pulled: Pullback, label: MinimalLabel) -> ExceptionalCollection:
    """Ordered exceptional blocks for a contraction trace.

    `pulled` is the trace's `pullback`, which the permutation basis reads
    too, and `label` classifies its terminal pair; a minimal pair is a trace
    without steps.  Order: the structure sheaf, then one block O(E_i) per
    blow-up step (outermost contraction first, total transforms taken for
    inner steps), then the remaining core blocks of `core_blocks(label)`
    pulled back.
    """
    blocks = [[pulled.total(rays) for _, rays in block] for block in core_blocks(label)]
    blocks = blocks[:1] + list(pulled.exceptional) + blocks[1:]
    return ExceptionalCollection(
        fan=pulled.fan,
        blocks=tuple(tuple(b) for b in blocks),
        provenance=f"{label} core + {len(pulled.exceptional)} blow-up step(s)",
    )


def _euler_terms(a, d) -> tuple[int, int, tuple[tuple[int, int], ...]]:
    """chi(D), chi(-D) and the nonzero facet lengths (v, l_v) of the divisor
    D = sum d_v D_v on a fan with self-intersections `a`, in O(n).

    l_v = D.D_v = a_v d_v + d_(v-1) + d_(v+1), so D.D = sum d_v l_v and
    -K.D = sum l_v, and Riemann-Roch gives chi(+-D) = 1 + sum (d_v +- 1) l_v / 2.
    """
    lengths = [av * x + p + q for av, x, p, q in zip(a, d, d[-1:] + d[:-1], d[1:] + d[:1])]
    support = tuple((v, length) for v, length in enumerate(lengths) if length)
    twice_pos = twice_neg = 0
    for v, length in support:
        twice_pos += (d[v] + 1) * length
        twice_neg += (d[v] - 1) * length
    return 1 + twice_pos // 2, 1 + twice_neg // 2, support


def _classes_from_basis(
    fan: Fan, basis: BasisCertificate, objects
) -> tuple[int, tuple[tuple[int, ...], ...]] | None:
    """The determinant and orbits of the objects' permutation-basis
    certificate, read off `basis`, the passed certificate of the standard
    permutation basis they were built with; None when they cannot be.

    Each object O(D) is a row O(D) of the basis, or the dual of the row
    O(-D) of a ("core", role) class.  Duality (r, c1, chi) ->
    (r, -c1, chi + K.c1) is linear and commutes with the pullback, and the t
    core rows are the pulled-back basis of K0 of the terminal surface Y.  So
    the objects, put in row order, are diag(beta, 1) times the basis rows,
    where beta is duality on K0(Y) written in that basis: its determinant is
    that of duality on Z + Pic(Y) + Z, (-1)^(t-2), whatever the basis.  Hence
    det(objects) = sign(row permutation) (-1)^t det(basis).  The group
    permutes ray coefficients, which commutes with negation, so an orbit of
    rows of one sign is an orbit of objects.  None, and so the full route,
    when the basis failed or is on another fan, a row has no object, or an
    orbit mixes core rows with others.
    """
    rows_basis, n = basis.basis, fan.n
    if not basis.ok or rows_basis.fan != fan or len(objects) != n:
        return None
    core = [kind == "core" for kind, _ in rows_basis.tags]
    row_of = {tuple(-c for c in d) if is_core else d: r
              for r, (d, is_core) in enumerate(zip(rows_basis.divisors, core))}
    rows = [row_of.get(d) for d in objects]
    if None in rows or len(set(rows)) != n:
        return None
    if any(len({core[r] for r in orbit}) != 1 for orbit in basis.orbits):
        return None
    object_of = [0] * n
    for i, r in enumerate(rows):
        object_of[r] = i
    # A permutation of n points with c cycles has sign (-1)^(n - c).
    cycles, seen = 0, [False] * n
    for i in range(n):
        if not seen[i]:
            cycles += 1
            j = i
            while not seen[j]:
                seen[j], j = True, rows[j]
    sign = -1 if (n - cycles + sum(core)) % 2 else 1
    orbits = sorted(tuple(sorted(object_of[r] for r in orbit)) for orbit in basis.orbits)
    return sign * basis.determinant, tuple(orbits)


def verify_collection(
    coll: ExceptionalCollection, group: SymmetryGroup, basis: BasisCertificate | None = None
) -> CollectionCertificate:
    """Check every collection axiom on `coll.fan` with exact Ext computations.

    Verified, in scan order: Ext(V,V) = (1,0,0) for each object; full Ext
    vanishing between distinct objects of one block; Ext vanishing from any
    object to every object of an earlier block.  Then the objects, tagged
    ("block", b), are certified as a permutation basis, whose determinant is
    the fullness certificate; the blocks are group-closed when it passes and
    no orbit leaves its block.  `basis`, when given, is the certificate of
    the `standard_permutation_basis` of the pullback and label `coll` was
    built from; the objects' determinant and orbits are then read off it
    (`_classes_from_basis`) when every object is one of its rows, and are
    otherwise certified from scratch.

    Each object is validated once for the scan, and its degree D.H, chi(D),
    chi(-D) and nonzero facet lengths are taken once, in O(n).  The pair
    Ext(O(D1), O(D2)) = H*(O(D2 - D1)) then has degree D2.H - D1.H and, by
    Riemann-Roch, chi(D2 - D1) = chi(D2) + chi(-D1) - 1 - D1.D2, where
    D1.D2 = sum d1_v l_v(D2) over the facets of D2 of nonzero length: O(1)
    per pair on a collection of total transforms, whose objects have at
    most a few.  When D2 - D1 and K - (D2 - D1) both have negative degree,
    h0 = h2 = 0 and the Ext is (0, -chi, 0); otherwise, or when -chi < 0 (an
    error the kernel raises), the vector is the cohomology kernel's, handed
    this chi, and H*(O_X) is handed chi(O_X) = 1.  The pairs are generated
    in scan order, never stored; the first whose Ext is wrong is the
    certificate's `first_violation`, and the scan stops there.  All n self
    pairs share H*(O_X), so when it is wrong the first object's self pair
    fails.  `pairs_checked` counts every pair, from the block sizes.
    """
    fan = coll.fan
    table = _ample_weights(fan)
    a, weights, k_degree = table
    objects = [[divisor(fan, d) for d in block] for block in coll.blocks]
    blocks = [[(d, sum(map(mul, weights, d)), *_euler_terms(a, d)) for d in row]
              for row in objects]
    first: ExtViolation | None = None

    # Ext(V, V) = H*(O_X) for every line bundle V: computed once.
    self_ext = _cohomology(table, (0,) * fan.n, 0, 1).as_tuple()
    if self_ext != (1, 0, 0):
        first = next((ExtViolation("self", d, d, self_ext) for row in objects for d in row), None)
    else:
        pairs = chain(
            (("block", src, dst) for row in blocks
             for i, src in enumerate(row) for j, dst in enumerate(row) if i != j),
            (("order", src, dst) for s in range(1, len(blocks)) for t in range(s)
             for src in blocks[s] for dst in blocks[t]))
        for kind, (d1, deg1, _, chi_neg1, _), (d2, deg2, chi2, _, support2) in pairs:
            degree = deg2 - deg1
            chi = chi2 + chi_neg1 - 1
            for v, length in support2:
                chi -= d1[v] * length
            if degree < 0 and k_degree - degree < 0 and chi <= 0:
                ext = (0, -chi, 0)
            else:
                ext = _cohomology(table, list(map(sub, d2, d1)), degree, chi).as_tuple()
            if ext != (0, 0, 0):
                first = ExtViolation(kind, d1, d2, ext)
                break

    tags = tuple(("block", b) for b, row in enumerate(objects) for _ in row)
    flat = tuple(d for row in objects for d in row)
    classes = None if basis is None else _classes_from_basis(fan, basis, flat)
    if classes is None:
        cert = verify_permutation_basis(PermutationBasis(fan, flat, tags), group)
        classes = cert.determinant, cert.orbits
    determinant, orbits = classes

    return CollectionCertificate(
        determinant=determinant,
        orbits=orbits,
        # A failed certificate has no orbits.
        blocks_group_closed=bool(orbits) and all(
            len({tags[i] for i in orbit}) == 1 for orbit in orbits),
        # n self pairs, |b|(|b| - 1) in each block b, |b_s||b_t| for s > t.
        pairs_checked=(len(tags) ** 2 + sum(len(row) ** 2 for row in objects)) // 2,
        first_violation=first,
    )
