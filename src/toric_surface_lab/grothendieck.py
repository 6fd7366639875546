"""The Grothendieck group of a smooth complete toric surface, modelled exactly.

A class is stored as (rank, first Chern class in Picard coordinates, Euler
characteristic).  This triple is a complete integral invariant on a rational
surface.  Riemann-Roch turns the multiplicativity of the Chern character into
the closed-form product

    (r, c1, chi) * (r', c1', chi') = (r r', r c1' + r' c1,
                                      r chi' + r' chi - r r' + c1.c1'),

one intersection number per product, in integers throughout.  A line bundle
has rank 1 and its chi is a function of c1, so line bundles are compared by
their Picard coordinates alone.

The module also builds the distinguished permutation bases of line bundles on
the minimal surfaces, pulls them back through blow-ups (total transforms of
the old basis plus the classes O(E) of the exceptional divisors) and
certifies candidate bases.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache
from typing import NamedTuple

from .intlinalg import bareiss_det, hermite_pivots, solve2, xgcd
from .lattice_fan import Fan, self_intersections
from .minimal_model import ContractionTrace, MinimalLabel, pullback
from .symmetry import SymmetryGroup

__all__ = [
    "PicardLattice",
    "K0Class",
    "PermutationBasis",
    "KlyachkoCertificate",
    "BasisCertificate",
    "GrothendieckError",
    "IncompatibleFan",
    "RelationFailure",
    "NotClassified",
    "NotABasis",
    "NotInvariant",
    "picard",
    "line_bundle_class",
    "k0_multiply",
    "structure_class",
    "verify_klyachko",
    "fa_recurrence_check",
    "core_blocks",
    "standard_permutation_basis",
    "verify_permutation_basis",
    "search_line_bundle_basis",
    "act_on_divisor",
]


class GrothendieckError(ValueError):
    pass


class IncompatibleFan(GrothendieckError):
    pass


class RelationFailure(GrothendieckError):
    """The presentation of K0 fails in the model; indicates a bug."""


class NotClassified(GrothendieckError):
    pass


class NotABasis(GrothendieckError):
    pass


class NotInvariant(GrothendieckError):
    pass


class PicardLattice(NamedTuple):
    """Divisor classes modulo linear equivalence, with intersection form.

    The chosen basis consists of the classes of the ray divisors D_2..D_{N-1}
    (all but the first two rays); the first two rays form a lattice basis, so
    a character can always be used to clear their coefficients.  Adjacent
    ray divisors meet once and others not at all, so the form is tridiagonal:
    ones beside the diagonal `band`, the self-intersections of D_2..D_{N-1}.
    """

    fan: Fan
    ray_coords: tuple[tuple[int, ...], ...]
    band: tuple[int, ...]
    canonical_coords: tuple[int, ...]

    @property
    def rank(self) -> int:
        return self.fan.n - 2

    def divisor_coords(self, coefficients) -> tuple[int, ...]:
        """Picard coordinates of the divisor sum(c_e D_e).

        A linear map: D_e is the e-th basis vector for e >= 2, and the first
        two rays contribute c_0 and c_1 times their own coordinates.
        """
        c = tuple(map(operator.index, coefficients))
        if len(c) != self.fan.n:
            raise IncompatibleFan(
                f"expected {self.fan.n} coefficients, got {len(c)}"
            )
        c0, c1 = c[0], c[1]
        r0, r1 = self.ray_coords[0], self.ray_coords[1]
        return tuple(x + c0 * a + c1 * b for x, a, b in zip(c[2:], r0, r1))

    def pair(self, d1, d2) -> int:
        """Intersection number d1.d2, in O(rank), from the band."""
        total = x0 = y0 = 0
        for i, a in enumerate(self.band):
            x, y = d1[i], d2[i]
            total += x * (a * y + y0) + x0 * y
            x0, y0 = x, y
        return total

    def chi(self, coords) -> int:
        """Euler characteristic of a line bundle with the given class."""
        num = self.pair(coords, coords) - self.pair(coords, self.canonical_coords)
        if num % 2:
            raise GrothendieckError("adjunction parity violated")
        return 1 + num // 2


@lru_cache(maxsize=256)
def picard(fan: Fan) -> PicardLattice:
    """Picard lattice with intersection form, from the imaging of characters.

    Ray self-intersections are derived from linear equivalence alone (clear
    the ray's own coefficient with a character and read off the adjacent
    contributions), independently of the wall-relation route in lattice_fan.
    """
    rays = fan.rays
    n = fan.n
    band = []
    for i in range(2, n):
        _, s, t = xgcd(*rays[i])  # m = (-s, -t) has <m, v_i> = -1
        (b0, b1), (a0, a1) = rays[i - 1], rays[(i + 1) % n]
        band.append(-s * (b0 + a0) - t * (b1 + a1))
    # The determinant of the tridiagonal form is the continuant
    # d_k = a_k d_(k-1) - d_(k-2), with d_0 = 1 and d_(-1) = 0.
    det, prev = 1, 0
    for a in band:
        det, prev = a * det - prev, det
    if det not in (1, -1):
        raise GrothendieckError(f"intersection form has determinant {det}")

    def first_ray_coords(c0: int, c1: int) -> tuple[int, ...]:
        # Clear c0 D_0 + c1 D_1 with the character m, <m, v_0> = -c0 and
        # <m, v_1> = -c1; what is left is sum <m, v_e> D_e over e >= 2.
        m = solve2(rays[0], rays[1], (-c0, -c1))
        return tuple(m[0] * v[0] + m[1] * v[1] for v in rays[2:])

    unit = [tuple(int(e == i) for e in range(n - 2)) for i in range(n - 2)]
    ray_coords = (first_ray_coords(1, 0), first_ray_coords(0, 1), *unit)
    k_coords = tuple(-1 - a - b for a, b in zip(ray_coords[0], ray_coords[1]))
    return PicardLattice(
        fan=fan,
        ray_coords=ray_coords,
        band=tuple(band),
        canonical_coords=k_coords,
    )


class K0Class(NamedTuple):
    """An element of K0 in (rank, c1, chi) coordinates."""

    fan: Fan
    rank: int
    c1: tuple[int, ...]
    chi: int

    def model_vector(self) -> tuple[int, ...]:
        return (self.rank, *self.c1, self.chi)

    def _check(self, other: "K0Class") -> None:
        if self.fan != other.fan:
            raise IncompatibleFan("classes live on different fans")

    def __add__(self, other: "K0Class") -> "K0Class":
        self._check(other)
        return K0Class(
            self.fan,
            self.rank + other.rank,
            tuple(a + b for a, b in zip(self.c1, other.c1)),
            self.chi + other.chi,
        )

    def __sub__(self, other: "K0Class") -> "K0Class":
        self._check(other)
        return K0Class(
            self.fan,
            self.rank - other.rank,
            tuple(a - b for a, b in zip(self.c1, other.c1)),
            self.chi - other.chi,
        )

    def __mul__(self, other: "K0Class") -> "K0Class":
        return k0_multiply(self, other)

    def __rmul__(self, other):
        return NotImplemented  # so `2 * x` raises instead of repeating the tuple

    def power(self, k: int) -> "K0Class":
        if k < 0:
            raise GrothendieckError("negative powers only for line bundles; invert c1")
        out = structure_class(self.fan)
        for _ in range(k):
            out = k0_multiply(out, self)
        return out


def structure_class(fan: Fan) -> K0Class:
    """The unit: the class of the structure sheaf."""
    return K0Class(fan, 1, (0,) * (fan.n - 2), 1)


def zero_class(fan: Fan) -> K0Class:
    return K0Class(fan, 0, (0,) * (fan.n - 2), 0)


def line_bundle_class(fan: Fan, coefficients) -> K0Class:
    """Class of O(D) for the torus-invariant divisor D = sum(c_e D_e)."""
    lat = picard(fan)
    coords = lat.divisor_coords(coefficients)
    return K0Class(fan, 1, coords, lat.chi(coords))


def k0_multiply(x: K0Class, y: K0Class) -> K0Class:
    """Ring multiplication in closed form.

    chi(xy) = r_x chi(y) + r_y chi(x) - r_x r_y + c1(x).c1(y): Riemann-Roch
    applied to the multiplicative Chern character (rank, c1, ch2), where the
    c1.K terms of the three ch2's cancel.  One intersection number per
    product.
    """
    if x.fan != y.fan:
        raise IncompatibleFan("classes live on different fans")
    rx, ry = x.rank, y.rank
    c1 = tuple(rx * b + ry * a for a, b in zip(x.c1, y.c1))
    chi = rx * y.chi + ry * x.chi - rx * ry + picard(x.fan).pair(x.c1, y.c1)
    return K0Class(x.fan, rx * ry, c1, chi)


def act_on_divisor(perm: tuple[int, ...], coefficients) -> tuple[int, ...]:
    """Push a divisor along a ray permutation: D_e goes to D_{perm[e]}."""
    out = [0] * len(perm)
    for e, c in enumerate(coefficients):
        out[perm[e]] = c
    return tuple(out)


class KlyachkoCertificate(NamedTuple):
    fan: Fan
    rank: int
    span_index: int
    orbit_closure_pairs: int
    character_relations: int

    @property
    def ok(self) -> bool:
        return self.span_index == 1 and self.rank == self.fan.n


def verify_klyachko(fan: Fan) -> KlyachkoCertificate:
    """Certify the orbit-closure presentation of K0 against the model.

    Checks that the classes attached to all cones span with index one, that
    products of disjoint-cone classes are again cone classes (or vanish), and
    that the character relations on the ray ideal-sheaf classes hold.
    """
    n = fan.n
    one = structure_class(fan)
    j_ray = [
        line_bundle_class(fan, tuple(-1 if e == i else 0 for e in range(n)))
        for i in range(n)
    ]
    o_ray = [one - j for j in j_ray]
    cones: list[tuple[frozenset[int], K0Class]] = [(frozenset(), one)]
    cones += [(frozenset({i}), o_ray[i]) for i in range(n)]
    cone_pairs = fan.cones()
    cones += [
        (frozenset(pair), k0_multiply(o_ray[pair[0]], o_ray[pair[1]]))
        for pair in cone_pairs
    ]
    cone_sets = {rays: cls for rays, cls in cones}

    rows = [list(cls.model_vector()) for _, cls in cones]
    pivots = hermite_pivots(rows)
    rank = len(pivots)
    index = 1
    for p in pivots:
        index *= abs(p)
    if rank != n or index != 1:
        raise RelationFailure(
            f"cone classes span rank {rank} with index {index}, expected rank {n}, index 1"
        )

    zero = zero_class(fan)
    checked = 0
    for (s1, c1), (s2, c2) in itertools.combinations_with_replacement(cones, 2):
        if s1 & s2:
            continue
        union = s1 | s2
        expected = cone_sets.get(union, zero)
        got = k0_multiply(c1, c2)
        if got != expected:
            raise RelationFailure(
                f"product of cones {sorted(s1)} and {sorted(s2)} is {got}, "
                f"expected {expected}"
            )
        checked += 1

    rel2 = 0
    for m in ((1, 0), (0, 1)):
        coeffs = tuple(-(m[0] * v[0] + m[1] * v[1]) for v in fan.rays)
        if line_bundle_class(fan, coeffs) != one:
            raise RelationFailure(f"character relation fails for {m}")
        rel2 += 1

    return KlyachkoCertificate(
        fan=fan,
        rank=rank,
        span_index=index,
        orbit_closure_pairs=checked,
        character_relations=rel2,
    )


def hirzebruch_marking(fan: Fan) -> tuple[int, int]:
    """(fiber ray index, section ray index) for a 4-ray fan."""
    if fan.n != 4:
        raise GrothendieckError("not a 4-ray fan")
    a_seq = self_intersections(fan)
    a = max(a_seq)
    if a == 0:
        return 0, 1
    s = a_seq.index(-a)
    return (s - 1) % 4, s


def fa_recurrence_check(fan: Fan, m_values) -> bool:
    """Check J1^{m+1} J2 = J1^m J2 + J1 J2 - J2 in the model.

    J1 is the ideal-sheaf class of a fiber divisor and J2 of the negative
    section of a 4-ray (ruled) fan.
    """
    f, s = hirzebruch_marking(fan)
    n = fan.n
    j1 = line_bundle_class(fan, tuple(-1 if e == f else 0 for e in range(n)))
    j2 = line_bundle_class(fan, tuple(-1 if e == s else 0 for e in range(n)))
    j1j2 = k0_multiply(j1, j2)
    for m in m_values:
        lhs = k0_multiply(j1.power(m + 1), j2)
        rhs = k0_multiply(j1.power(m), j2) + j1j2 - j2
        if lhs != rhs:
            return False
    return True


class PermutationBasis(NamedTuple):
    """A group-closed Z-basis of K0 given by explicit divisor representatives.

    `tags` records where each element came from: ("core", slot_role) for the
    minimal-model basis, ("exc", step_index) for a class O(E) introduced by a
    blow-up step of the contraction trace.
    """

    fan: Fan
    divisors: tuple[tuple[int, ...], ...]
    elements: tuple[K0Class, ...]
    orbits: tuple[tuple[int, ...], ...]
    tags: tuple[tuple[str, object], ...]

    @property
    def size(self) -> int:
        return len(self.elements)

    def orbit_sizes(self) -> tuple[int, ...]:
        return tuple(len(o) for o in self.orbits)


class BasisCertificate(NamedTuple):
    determinant: int
    orbit_sizes: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return self.determinant in (1, -1)


# Group classes whose P1xP1 rows exchange the two rulings: they contain a
# conjugate of the swap C or the quarter turn B.  C1, C2 and D4' keep them.
_RULING_SWAPS = frozenset({"D2", "C4", "D4", "D8"})


def core_blocks(label: MinimalLabel) -> tuple[tuple[tuple[str, tuple[int, ...]], ...], ...]:
    """(slot role, ray indices) of each core line bundle of a minimal
    surface, grouped into the blocks of its exceptional collection.

    The indices name D, the sum of their ray divisors; the collection holds
    O(D) and the permutation basis the ideal-sheaf product O(-D).  P2: 1, J,
    J^2; 4-ray fans: 1, J1 (fiber), J2 (negative section), J1 J2; hexagonal
    fan: 1, the three opposite-adjacent pairs, the two ray triples.

    Each block is closed under the row's group (blow-up blocks are single
    orbits, as `minimalize` contracts one orbit per step).  The P1xP1 rows in
    _RULING_SWAPS exchange the rulings, so J1 and J2 share one block there;
    every other 4-ray row fixes each class.
    """
    if label.kind == "P2":
        return ((("one", ()),), (("J", (0,)),), (("J2", (0, 0)),))
    if label.fan.n == 4:
        f, s = hirzebruch_marking(label.fan)
        fiber, section = ("J_fiber", (f,)), ("J_section", (s,))
        if label.kind == "P1xP1" and label.group_label in _RULING_SWAPS:
            middle = ((fiber, section),)
        else:
            middle = ((fiber,), (section,))
        return ((("one", ()),), *middle, (("J_both", (f, s)),))
    if label.kind == "dP6":
        return (
            (("one", ()),),
            (("R", (0, 5)), ("R", (1, 2)), ("R", (3, 4))),
            (("Q", (0, 1, 2)), ("Q", (3, 4, 5))),
        )
    raise NotClassified(f"no core basis for kind {label.kind}")


def _ray_sum(n: int, rays) -> tuple[int, ...]:
    """The divisor sum(D_i for i in rays) on a fan with n rays."""
    out = [0] * n
    for i in rays:
        out[i] += 1
    return tuple(out)


def _class_orbit(
    lat: PicardLattice, perms, divisor: tuple[int, ...]
) -> set[tuple[int, ...]]:
    """Picard coordinates of the orbit of the class of `divisor`.

    `perms` holds the ray permutation of every group element, so the images
    of one representative already are the whole orbit.
    """
    return {lat.divisor_coords(act_on_divisor(perm, divisor)) for perm in perms}


def _orbit_partition(
    fan: Fan, group: SymmetryGroup, elements: list[K0Class], divisors: list[tuple[int, ...]]
) -> tuple[tuple[int, ...], ...]:
    """Orbits of basis elements (line-bundle classes) under the group.

    Images are compared by Picard coordinates: for line bundles these
    determine the class.
    """
    perms = group.on(fan).ray_permutations.values()
    lat = picard(fan)
    index_of = {}
    for i, cls in enumerate(elements):
        index_of.setdefault(cls.c1, i)
    assigned = [False] * len(elements)
    orbits = []
    for i in range(len(elements)):
        if assigned[i]:
            continue
        images = _class_orbit(lat, perms, divisors[i])
        if not images <= index_of.keys():
            raise NotInvariant(f"image of basis element {divisors[i]} leaves the set")
        orbit = {i} | {index_of[image] for image in images}
        for j in orbit:
            assigned[j] = True
        orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)


def standard_permutation_basis(
    trace: ContractionTrace, label: MinimalLabel, group: SymmetryGroup
) -> PermutationBasis:
    """The distinguished permutation basis of a contraction trace.

    `label` classifies the trace's terminal pair; a minimal pair is a trace
    without steps.  The core basis O(-D) of the terminal surface is pulled
    back (total transforms), followed by the classes O(E) of each step's
    exceptional orbit, the last step first.
    """
    core = [slot for block in core_blocks(label) for slot in block]
    transforms, exceptional = pullback(
        trace, [_ray_sum(label.fan.n, rays) for _, rays in core]
    )
    # The pullback is linear, so O(-D) pulls back to minus the transform of D.
    divisors = [tuple(-c for c in d) for d in transforms]
    tags: list[tuple[str, object]] = [("core", role) for role, _ in core]
    for step_index, block in reversed(list(enumerate(exceptional))):
        divisors += block
        tags += [("exc", step_index)] * len(block)
    fan = trace.initial_fan

    elements = [line_bundle_class(fan, c) for c in divisors]
    return PermutationBasis(
        fan=fan,
        divisors=tuple(divisors),
        elements=tuple(elements),
        orbits=_orbit_partition(fan, group, elements, divisors),
        tags=tuple(tags),
    )


def verify_permutation_basis(
    basis, fan: Fan, group: SymmetryGroup
) -> BasisCertificate:
    """Certify unimodularity, group closure and the orbit partition.

    `basis` may be a PermutationBasis or a list of divisor coefficient
    tuples.  Raises NotABasis or NotInvariant on failure.
    """
    if isinstance(basis, PermutationBasis):
        divisors = list(basis.divisors)
    else:
        divisors = [tuple(map(operator.index, c)) for c in basis]
    elements = [line_bundle_class(fan, c) for c in divisors]
    if len(elements) != fan.n:
        raise NotABasis(
            f"{len(elements)} classes cannot form a basis of rank {fan.n}"
        )
    det = bareiss_det([list(cls.model_vector()) for cls in elements])
    if det not in (1, -1):
        raise NotABasis(f"coordinate matrix has determinant {det}")
    orbits = _orbit_partition(fan, group, elements, divisors)
    return BasisCertificate(
        determinant=det,
        orbit_sizes=tuple(len(o) for o in orbits),
    )


def _candidate_orbits(
    fan: Fan, group: SymmetryGroup, bound: int
) -> tuple[dict[tuple[int, ...], tuple[int, ...]], list[list[tuple[int, ...]]]]:
    """Candidate classes of the basis search and their group orbits.

    Returns the least divisor with coefficients in [-bound, bound] of each
    candidate class, keyed by Picard coordinates (which determine the
    class), and the orbits of at most N classes in canonical order (small
    classes first).  `group` must be attached to `fan`.
    """
    # model_vector() is (1, *c1, chi), so sorting by coordinates is sorting
    # by class.
    lat = picard(fan)
    rep: dict[tuple[int, ...], tuple[int, ...]] = {}
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=fan.n):
        coords = lat.divisor_coords(coeffs)
        old = rep.get(coords)
        key = (max(map(abs, coeffs), default=0), coeffs)
        if old is None or key < (max(map(abs, old), default=0), old):
            rep[coords] = coeffs

    def size_order(coords: tuple[int, ...]) -> tuple:
        return (max(map(abs, coords), default=0), coords)

    # The candidate set is closed under the action (a permutation of bounded
    # coefficients is again bounded), so every image has a representative.
    perms = group.ray_permutations.values()
    remaining = set(rep)
    coord_orbits: list[list[tuple[int, ...]]] = []
    for coords in sorted(rep, key=size_order):
        if coords not in remaining:
            continue
        orbit = _class_orbit(lat, perms, rep[coords])
        remaining -= orbit
        if len(orbit) <= fan.n:
            coord_orbits.append(sorted(orbit, key=size_order))
    return rep, coord_orbits


def search_line_bundle_basis(
    fan: Fan, group: SymmetryGroup, bound: int
) -> PermutationBasis | None:
    """Exhaustive search for a group-closed line-bundle basis.

    Candidates are the classes of divisors with coefficients in
    [-bound, bound]; group orbits of candidate classes are tried depth first
    in a fixed canonical order (small classes first) and the first union of
    orbits of total size N that is a Z-basis of K0 is returned.  A subset of
    a basis spans a saturated sublattice (a direct summand), so a branch is
    followed only while its rows (1, c1, chi) span one: while their maximal
    minors have gcd 1, that is while the Hermite pivots of their transpose
    are all 1.  A leaf of N such rows is then unimodular, and no branch with
    a unimodular completion is cut.  Absence only means absence within the
    bound.
    """
    group = group.on(fan)
    n = fan.n
    rep, coord_orbits = _candidate_orbits(fan, group, bound)
    lat = picard(fan)
    orbit_rows: dict[int, list[tuple[int, ...]]] = {}

    def dfs(start: int, picked: list[int], rows: list[tuple[int, ...]]) -> list[int] | None:
        if len(rows) == n:
            return picked
        for i in range(start, len(coord_orbits)):
            if len(rows) + len(coord_orbits[i]) > n:
                continue
            if i not in orbit_rows:
                orbit_rows[i] = [(1, *c, lat.chi(c)) for c in coord_orbits[i]]
            grown = rows + orbit_rows[i]
            if hermite_pivots(list(zip(*grown))) == [1] * len(grown):
                found = dfs(i + 1, picked + [i], grown)
                if found is not None:
                    return found
        return None

    found = dfs(0, [], [])
    if found is None:
        return None
    divisors = [rep[c] for i in found for c in coord_orbits[i]]
    classes = [line_bundle_class(fan, d) for d in divisors]
    return PermutationBasis(
        fan=fan,
        divisors=tuple(divisors),
        elements=tuple(classes),
        orbits=_orbit_partition(fan, group, classes, divisors),
        tags=tuple(("search", None) for _ in classes),
    )
