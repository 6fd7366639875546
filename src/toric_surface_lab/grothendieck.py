"""The Grothendieck group of a smooth complete toric surface, modelled exactly.

A class is the plain value (rank, first Chern class in Picard coordinates,
Euler characteristic), without its fan.  This triple is a complete integral
invariant on a rational surface.  Riemann-Roch turns the multiplicativity of
the Chern character into the closed-form product

    (r, c1, chi) * (r', c1', chi') = (r r', r c1' + r' c1,
                                      r chi' + r' chi - r r' + c1.c1'),

one intersection number per product, which `k0_multiply(lat, x, y)` reads
from the Picard lattice it is given, in integers throughout.  A line bundle
has rank 1 and its chi is a function of c1, so line bundles are compared by
their Picard coordinates alone.

The module also builds the distinguished permutation bases of line bundles on
the minimal surfaces, pulls them back through blow-ups (total transforms of
the old basis plus the classes O(E) of the exceptional divisors) and
certifies candidate bases.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import prod
from operator import add, mul
from typing import NamedTuple

from .intlinalg import bareiss_det, hermite_pivots, solve2, xgcd
from .lattice_fan import Fan, FanError, InternalError, LabError, divisor, self_intersections

__all__ = [
    "PicardLattice",
    "K0Class",
    "PermutationBasis",
    "KlyachkoCertificate",
    "BasisCertificate",
    "GrothendieckError",
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


class GrothendieckError(LabError):
    pass


class PicardLattice(NamedTuple):
    """Divisor classes modulo linear equivalence, with intersection form.

    The chosen basis consists of the classes of the ray divisors D_2..D_{N-1}
    (all but the first two rays); the first two rays form a lattice basis, so
    a character can always be used to clear their coefficients, and
    `first_rays` holds the coordinates of D_0 and D_1.  Adjacent
    ray divisors meet once and others not at all, so the form is tridiagonal:
    ones beside the diagonal `band`, the self-intersections of D_2..D_{N-1}.
    """

    fan: Fan
    first_rays: tuple[tuple[int, ...], tuple[int, ...]]
    band: tuple[int, ...]
    canonical_coords: tuple[int, ...]

    def divisor_coords(self, coefficients) -> tuple[int, ...]:
        """Picard coordinates of the divisor sum(c_e D_e).

        A linear map: D_e is the e-th basis vector for e >= 2, and the first
        two rays contribute c_0 and c_1 times their own coordinates.
        """
        return self._coords(divisor(self.fan, coefficients))

    def _coords(self, c) -> tuple[int, ...]:
        """`divisor_coords` of n integer coefficients, not checked."""
        c0, c1 = c[0], c[1]
        r0, r1 = self.first_rays
        return tuple(x + c0 * a + c1 * b for x, a, b in zip(c[2:], r0, r1))

    def pair(self, d1, d2) -> int:
        """d1.d2 in O(rank) from the band; FanError unless both have rank entries."""
        if len(d1) != len(self.band) or len(d2) != len(self.band):
            raise FanError(f"expected {len(self.band)} coordinates, got {len(d1)} and {len(d2)}")
        total = x0 = y0 = 0
        for i, a in enumerate(self.band):
            x, y = d1[i], d2[i]
            total += x * (a * y + y0) + x0 * y
            x0, y0 = x, y
        return total

    def chi(self, coords) -> int:
        """chi of the line bundle of this class; FanError unless it has rank entries."""
        if len(coords) != len(self.band):
            raise FanError(f"expected {len(self.band)} coordinates, got {len(coords)}")
        return self._euler(coords, 0, 0)

    def _euler(self, tail, c0: int, c1: int) -> int:
        """1 + x.(x - K)/2 for the class x = tail + c0 r0 + c1 r1, with r0, r1
        the coordinates of the first two rays, in one pass over the band."""
        total = x0 = w0 = 0
        r0, r1 = self.first_rays
        for x, p, q, a, k in zip(tail, r0, r1, self.band, self.canonical_coords):
            x += c0 * p + c1 * q
            w = x - k
            total += x * (a * w + w0) + x0 * w
            x0, w0 = x, w
        if total % 2:
            raise InternalError("adjunction parity violated")
        return 1 + total // 2


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
        raise InternalError(f"intersection form has determinant {det}")

    def first_ray_coords(c0: int, c1: int) -> tuple[int, ...]:
        # Clear c0 D_0 + c1 D_1 with the character m, <m, v_0> = -c0 and
        # <m, v_1> = -c1; what is left is sum <m, v_e> D_e over e >= 2.
        m = solve2(rays[0], rays[1], (-c0, -c1))
        return tuple(m[0] * v[0] + m[1] * v[1] for v in rays[2:])

    r0, r1 = first_ray_coords(1, 0), first_ray_coords(0, 1)
    k_coords = tuple(-1 - a - b for a, b in zip(r0, r1))
    return PicardLattice(
        fan=fan,
        first_rays=(r0, r1),
        band=tuple(band),
        canonical_coords=k_coords,
    )


class K0Class(NamedTuple):
    """An element of K0 in (rank, c1, chi) coordinates; `k0_multiply` multiplies."""

    rank: int
    c1: tuple[int, ...]
    chi: int

    def model_vector(self) -> tuple[int, ...]:
        return (self.rank, *self.c1, self.chi)

    def __add__(self, other: "K0Class") -> "K0Class":
        c1 = tuple(a + b for a, b in zip(self.c1, other.c1, strict=True))
        return K0Class(self.rank + other.rank, c1, self.chi + other.chi)

    def __sub__(self, other: "K0Class") -> "K0Class":
        c1 = tuple(a - b for a, b in zip(self.c1, other.c1, strict=True))
        return K0Class(self.rank - other.rank, c1, self.chi - other.chi)

    def __mul__(self, other):
        return NotImplemented  # so `x * 2` and `2 * x` raise instead of repeating the tuple

    __rmul__ = __mul__


def structure_class(fan: Fan) -> K0Class:
    """The unit: the class of the structure sheaf."""
    return K0Class(1, (0,) * (fan.n - 2), 1)


def line_bundle_class(fan: Fan, coefficients) -> K0Class:
    """Class of O(D) for the torus-invariant divisor D = sum(c_e D_e)."""
    lat = picard(fan)
    coords = lat.divisor_coords(coefficients)
    return K0Class(1, coords, lat.chi(coords))


def k0_multiply(lat: PicardLattice, x: K0Class, y: K0Class) -> K0Class:
    """Ring multiplication in closed form, on the Picard lattice `lat` of the
    surface both classes live on.

    chi(xy) = r_x chi(y) + r_y chi(x) - r_x r_y + c1(x).c1(y): Riemann-Roch
    applied to the multiplicative Chern character (rank, c1, ch2), where the
    c1.K terms of the three ch2's cancel.  One intersection number per
    product, `lat.pair`, which raises FanError for a c1 of another rank.
    """
    rx, ry = x.rank, y.rank
    c1 = tuple(rx * b + ry * a for a, b in zip(x.c1, y.c1))
    chi = rx * y.chi + ry * x.chi - rx * ry + lat.pair(x.c1, y.c1)
    return K0Class(rx * ry, c1, chi)


def act_on_divisor(perm: tuple[int, ...], coefficients) -> tuple[int, ...]:
    """Push a divisor along a ray permutation: D_e goes to D_{perm[e]}."""
    out = [0] * len(perm)
    for e, c in enumerate(coefficients):
        out[perm[e]] = c
    return tuple(out)


class KlyachkoCertificate(NamedTuple):
    """The K0 certificate.  A failure means the presentation of K0 fails in
    the model, which indicates a bug: `error` says what failed, and
    `first_violation` is the witness: {"kind": "span", "rank", "index"};
    {"kind": "product", "cones", "got", "expected"} with the two cones'
    rays and the model vectors of their product and of the class it should
    equal; {"kind": "character", "m"}; {"kind": "point", "cone", "got"}
    for a 2-cone class other than the point class (0, 0, 1); or {"kind":
    "ray", "ray", "adjunction"} for a ray whose D.(D + K) is not -2, so that
    its class is not (0, D, 1).  The counts are those made before the failure.
    """

    rank: int
    span_index: int
    orbit_closure_pairs: int
    character_relations: int
    error: str | None = None
    first_violation: dict | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _band_times(band, y) -> list[int]:
    """B.y for the tridiagonal form B with diagonal `band` and ones beside it."""
    y = (0, *y, 0)
    return [a * y[k + 1] + y[k] + y[k + 2] for k, a in enumerate(band)]


def _dot(x, y) -> int:
    return sum(map(mul, x, y))


def verify_klyachko(fan: Fan) -> KlyachkoCertificate:
    """Certify the orbit-closure presentation of K0 against the model.

    Checks that the classes attached to all cones span with index one, that
    products of disjoint-cone classes are again cone classes (or vanish),
    that the character relations on the ray ideal-sheaf classes hold, that
    every 2-cone class is the point class (0, 0, 1), and that every ray class
    is (0, D_i, 1): chi(O_D) = 1 for the invariant P1 D = D_i, which by
    adjunction is D.(D + K) = -2.

    The classes are the unit, the rays o_i = (0, D_i, 1 - chi(-D_i)) and the
    2-cones o_i o_(i+1) of `k0_multiply`.  D_i is the basis vector e_i for
    i >= 2, so the ray-pairing table D_i.D_j is the band form B there, and
    rows 0 and 1 are B.r0 and B.r1 for the `first_rays` r0, r1 (Fulton,
    Introduction to Toric Varieties, ch. 5).  The closed-form product gives
    u x = x, o_i o_j = (0, 0, D_i.D_j), and 0 for a product with a 2-cone
    class of rank 0 and c1 = 0; so the 2n^2 - 2n + 1 product relations hold
    when D_i.D_j = 0 for non-adjacent rays and each 2-cone class is
    (0, 0, D_i.D_(i+1)), a scan of O(n).  The n 2-cone products themselves
    take O(n) each, over dense c1s in `k0_multiply` and `PicardLattice.pair`,
    so the certificate takes O(n^2) in all.  When every o_i (i >= 2) is
    (0, e_i, 1) and every 2-cone class the point class, the rows unit,
    o_2..o_(n-1) and point are unitriangular, and the Hermite pivots are
    taken only otherwise.  A failure returns the certificate at the first
    relation that fails in the order of the pairs (unit, rays, 2-cones;
    i <= j), with the count before it.  An odd D_i.(D_i + K), whose o_i is
    not integral, fails its ray relation.
    """
    n = fan.n
    lat = picard(fan)
    band, (r0, r1) = lat.band, lat.first_rays
    b0, b1, bk = (_band_times(band, y) for y in (r0, r1, lat.canonical_coords))
    zero_c1 = (0,) * (n - 2)
    d01 = _dot(r0, b1)
    table_rows = ([_dot(r0, b0), d01, *b0], [d01, _dot(r1, b1), *b1])  # D_0.D_j, D_1.D_j
    # chi(-D_i) = 1 + (D_i.D_i + K.D_i)/2, so o_i has chi -(D_i.D_i + K.D_i)/2.
    twice = [table_rows[0][0] + _dot(r0, bk), table_rows[1][1] + _dot(r1, bk)]
    twice += map(add, band, bk)
    one, zero, point = structure_class(fan), K0Class(0, zero_c1, 0), K0Class(0, zero_c1, 1)

    def o_ray(i: int) -> K0Class:
        """The ray class o_i, built when needed: n dense c1s take O(n^2) memory."""
        c1 = (r0, r1)[i] if i < 2 else zero_c1[:i - 2] + (1,) + zero_c1[i - 1:]
        return K0Class(0, c1, -twice[i] // 2)

    cones = [sorted(pair) for pair in fan.cones()]
    # Each product equal to the point class is `point` itself, so they share one c1.
    p_cone = [point if p == point else p for p in
              (k0_multiply(lat, o_ray(i), o_ray(j)) for i, j in fan.cones())]

    if all(-t // 2 == 1 for t in twice[2:]) and all(p is point for p in p_cone):
        rank, index = n, 1
    else:
        # Equal rows span the same lattice: the n two-cone classes may share one.
        pivots = hermite_pivots(list(dict.fromkeys(
            cls.model_vector() for cls in (one, *map(o_ray, range(n)), *p_cone))))
        rank, index = len(pivots), prod(map(abs, pivots))
    checked = rel2 = 0  # the counts made so far, which a failure reports

    def fail(message: str, witness: dict) -> KlyachkoCertificate:
        return KlyachkoCertificate(rank, index, checked, rel2, message, witness)

    def violated(rays1, rays2, got: K0Class, expected: K0Class) -> KlyachkoCertificate:
        got, expected = list(got.model_vector()), list(expected.model_vector())
        return fail(f"product of cones {rays1} and {rays2} is {got}, expected {expected}",
                    {"kind": "product", "cones": [rays1, rays2], "got": got, "expected": expected})

    if rank != n or index != 1:
        return fail(f"cone classes span rank {rank} with index {index}, expected rank {n}, index 1",
                    {"kind": "span", "rank": rank, "index": index})

    # A 2-cone class with rank or c1 comes from a faulty `k0_multiply`; its
    # products with rays are multiplied out in closed form.  It fails its own
    # ray pair in the row of its least ray, before any product with a ray
    # that it holds and before every product of two 2-cones.
    faulty = [k for k, p in enumerate(p_cone) if p.rank or p.c1 != zero_c1]
    checked = 2 * n + 1  # the unit times each cone class is that class
    for i in range(n):
        # Ray i times ray j > i is (0, 0, D_i.D_j): the class of the cone
        # {i, j} if it is one, else 0.  Past row 1 only j = i + 1 can fail.
        for j in range(i + 1, n if i < 2 else min(i + 2, n)):
            got = K0Class(0, zero_c1, table_rows[i][j] if i < 2 else 1)
            k = i if j == i + 1 else n - 1 if (i, j) == (0, n - 1) else None
            expected = zero if k is None else p_cone[k]
            if got != expected:
                checked += j - i - 1
                return violated([i], [j], got, expected)
        checked += n - 1 - i
        # Ray i times each faulty 2-cone, in cone order; none holds ray i.
        for k in faulty:
            p, x = p_cone[k], o_ray(i)
            got = K0Class(0, tuple(p.rank * v for v in x.c1),
                          p.rank * x.chi + lat.pair(x.c1, p.c1))
            if got != zero:
                checked += k - (i < k) - ((i - 1) % n < k)
                return violated([i], cones[k], got, zero)
        checked += n - 2
    checked += n * (n - 3) // 2  # products of disjoint 2-cones

    for m in ((1, 0), (0, 1)):
        coeffs = tuple(-(m[0] * v[0] + m[1] * v[1]) for v in fan.rays)
        if line_bundle_class(fan, coeffs) != one:
            return fail(f"character relation fails for {m}", {"kind": "character", "m": list(m)})
        rel2 += 1

    for rays, cls in zip(cones, p_cone):
        if cls != point:
            got = list(cls.model_vector())
            return fail(f"class of cone {rays} is {got}, expected the point class "
                        f"{list(point.model_vector())}",
                        {"kind": "point", "cone": rays, "got": got})

    for i in range(n):
        if twice[i] != -2:
            return fail(f"ray {i} has D.(D + K) = {twice[i]}, expected -2: its class is not "
                        "(0, D, 1)", {"kind": "ray", "ray": i, "adjunction": twice[i]})

    return KlyachkoCertificate(rank, index, checked, rel2)


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
    """Check J1^{m+1} J2 = J1^m J2 + J1 J2 - J2 in the model, for m >= 0.

    J1 is the ideal-sheaf class of a fiber divisor F and J2 of the negative
    section S of a 4-ray (ruled) fan.  J1^m J2 is one chain of `k0_multiply`
    calls, J1^(m+1) J2 = J1 (J1^m J2).  The recurrence says only that J1^m J2
    is affine in m, so each J1^m J2 is also compared with the class of
    O(-mF - S), which is built without `k0_multiply`.
    """
    f, s = hirzebruch_marking(fan)
    n = fan.n
    lat = picard(fan)
    j1 = line_bundle_class(fan, tuple(-1 if e == f else 0 for e in range(n)))
    j2 = line_bundle_class(fan, tuple(-1 if e == s else 0 for e in range(n)))
    chain = [j2]  # chain[m] = J1^m J2
    for m in m_values:
        if m < 0:
            raise GrothendieckError(f"the recurrence needs m >= 0, got {m}")
        while len(chain) < m + 2:
            chain.append(k0_multiply(lat, j1, chain[-1]))
        line = line_bundle_class(fan, tuple(-m * (e == f) - (e == s) for e in range(n)))
        if chain[m + 1] != chain[m] + chain[1] - j2 or chain[m] != line:
            return False
    return True


class PermutationBasis(NamedTuple):
    """Divisor representatives of a candidate group-closed Z-basis of K0.

    Plain data: `verify_permutation_basis` computes the classes, certifies
    them and partitions them into orbits.  `tags` records where each element
    came from: ("core", slot_role) for the minimal-model basis, ("exc",
    step_index) for a class O(E) introduced by a blow-up step of the
    contraction trace, ("search", None) for a search result, ("block", b)
    for an object of block b of an exceptional collection.
    """

    fan: Fan
    divisors: tuple[tuple[int, ...], ...]
    tags: tuple[tuple[str, object], ...]


class BasisCertificate(NamedTuple):
    """The certificate of `basis`; on failure `error` says why, and no orbits."""

    basis: PermutationBasis
    determinant: int
    orbits: tuple[tuple[int, ...], ...]
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def orbit_sizes(self) -> tuple[int, ...]:
        return tuple(map(len, self.orbits))


def core_blocks(label: MinimalLabel) -> tuple[tuple[tuple[str, tuple[int, ...]], ...], ...]:
    """(slot role, ray indices) of each core line bundle of a minimal
    surface, grouped into the blocks of its exceptional collection.

    The indices name D, the sum of their ray divisors; the collection holds
    O(D) and the permutation basis the ideal-sheaf product O(-D).  The
    blocks are those of the label's table row, whose rays on a 4-ray fan
    count from the negative section s of `hirzebruch_marking`.
    """
    n = label.fan.n
    s = hirzebruch_marking(label.fan)[1] if n == 4 else 0
    return tuple(
        tuple((role, tuple((r + s) % n for r in rays)) for role, rays, _ in block)
        for block in label.row.blocks
    )


def _orbit_partition(
    lat: PicardLattice, perms, divisors, coords
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...] | None]:
    """Orbits of the line bundles O(D), D in `divisors`, under the ray
    permutations `perms`, as sorted tuples of indices in order of their
    least index, and None; or, when the group does not permute them, () and
    the first divisor whose image leaves the set.

    `coords` holds their Picard coordinates, which determine the classes,
    and the classes are distinct.  `perms` holds the ray permutation of
    every group element, so the images of one member already are its whole
    orbit.  The identity's image is the member itself, whose coordinates
    are not taken again.  The images permute the coefficients of a divisor
    whose coordinates the caller has taken, so they are not validated again.
    """
    identity = tuple(range(lat.fan.n))
    perms = [perm for perm in perms if perm != identity]
    index_of = {x: i for i, x in enumerate(coords)}
    assigned = [False] * len(coords)
    orbits = []
    for i, d in enumerate(divisors):
        if assigned[i]:
            continue
        orbit = {i, *(index_of.get(lat._coords(act_on_divisor(perm, d))) for perm in perms)}
        if None in orbit:
            return (), d
        for j in orbit:
            assigned[j] = True
        orbits.append(tuple(sorted(orbit)))
    return tuple(orbits), None


def standard_permutation_basis(pulled: Pullback, label: MinimalLabel) -> PermutationBasis:
    """The distinguished permutation basis of a contraction trace.

    `pulled` is the trace's `pullback` and `label` classifies its terminal
    pair; a minimal pair is a trace without steps.  The core basis O(-D) of
    the terminal surface is pulled back (total transforms), followed by the
    classes O(E) of each step's exceptional orbit, the last step first.
    """
    core = [slot for block in core_blocks(label) for slot in block]
    # The pullback is linear, so O(-D) pulls back to minus the transform of D.
    divisors = [tuple(-c for c in pulled.total(rays)) for _, rays in core]
    tags: list[tuple[str, object]] = [("core", role) for role, _ in core]
    for step_index, block in reversed(list(enumerate(pulled.exceptional))):
        divisors += block
        tags += [("exc", step_index)] * len(block)
    return PermutationBasis(pulled.fan, tuple(divisors), tuple(tags))


def verify_permutation_basis(basis: PermutationBasis, group: SymmetryGroup) -> BasisCertificate:
    """Certify unimodularity and group closure on `basis.fan`, and partition
    into orbits.

    This is where a basis gets its classes and orbits: each divisor's Picard
    coordinates are taken once, the rows (1, c1, chi) must have determinant
    +-1, and the group must permute the classes, whose orbits the
    certificate holds beside the basis.  A failure returns the certificate
    with its reason: a number of classes other than the rank, a determinant
    other than +-1, or the first divisor whose image leaves the set.
    """
    fan, divisors = basis.fan, basis.divisors
    lat = picard(fan)
    coords = [lat.divisor_coords(d) for d in divisors]
    if len(coords) != fan.n:
        return BasisCertificate(
            basis, 0, (), f"{len(coords)} classes cannot form a basis of rank {fan.n}")
    det = bareiss_det([[1, *x, lat.chi(x)] for x in coords])
    if det not in (1, -1):
        return BasisCertificate(basis, det, (), f"coordinate matrix has determinant {det}")
    perms = group.on(fan).ray_permutations.values()
    orbits, leaving = _orbit_partition(lat, perms, divisors, coords)
    error = None if leaving is None else f"image of basis element {leaving} leaves the set"
    return BasisCertificate(basis, det, orbits, error)


def _candidate_orbits(
    fan: Fan, group: SymmetryGroup, bound: int
) -> tuple[dict[tuple[int, ...], tuple[int, ...]], list[list[tuple[int, ...]]]]:
    """Candidate classes of the basis search and their group orbits.

    Returns the least divisor with coefficients in [-bound, bound] of each
    candidate class, keyed by Picard coordinates (which determine the
    class), and the orbits of at most N classes in canonical order (small
    classes first), which `_orbit_partition` gives when it is passed the
    classes in that order.  `group` must be attached to `fan`.
    """
    lat = picard(fan)
    rep: dict[tuple[int, ...], tuple[int, ...]] = {}
    # A class first appears in its least shell max|c|, and `product` runs
    # through a shell in lexicographic order, so the first divisor met is the
    # least in (max|c|, c) order.
    for shell in range(bound + 1):
        for coeffs in itertools.product(range(-shell, shell + 1), repeat=fan.n):
            if shell in coeffs or -shell in coeffs:
                rep.setdefault(lat._coords(coeffs), coeffs)
    # model_vector() is (1, *c1, chi), so sorting by coordinates is sorting
    # by class.
    order = sorted(rep, key=lambda x: (max(map(abs, x), default=0), x))
    # No image leaves `rep`: it holds every class of the box, which ray permutations preserve.
    orbits, _ = _orbit_partition(lat, group.ray_permutations.values(), map(rep.get, order), order)
    return rep, [[order[i] for i in orbit] for orbit in orbits if len(orbit) <= fan.n]


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
    divisors = tuple(rep[c] for i in found for c in coord_orbits[i])
    return PermutationBasis(fan, divisors, (("search", None),) * n)
