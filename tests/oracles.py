"""Independent brute-force oracles used only by the test suite."""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from toric_surface_lab.cohomology import _chi, ext_line_bundles, h0, line_bundle_cohomology
from toric_surface_lab.derived import CollectionCertificate, ExceptionalCollection, ExtViolation
from toric_surface_lab.grothendieck import (
    GrothendieckError,
    K0Class,
    KlyachkoCertificate,
    PermutationBasis,
    PicardLattice,
    act_on_divisor,
    k0_multiply,
    line_bundle_class,
    picard,
    structure_class,
)
from toric_surface_lab.intlinalg import (
    Mat2,
    hermite_pivots,
    columns_to_matrix,
    mat_apply,
    mat_inv,
    mat_mul,
    solve2,
    xgcd,
)
from toric_surface_lab.lattice_fan import (
    Fan,
    apply_matrix,
    blow_down,
    blow_up,
    self_intersections,
    square_fan,
)
from toric_surface_lab.symmetry import (
    IDENTITY,
    TABLE_GENERATORS,
    NotFinite,
    SymmetryGroup,
    UnclassifiedSubgroup,
    element_order,
)


def unimodular_matrices(bound: int) -> list[Mat2]:
    """All GL(2,Z) matrices with entries bounded by `bound`, small ones first."""
    out = []
    rng = range(-bound, bound + 1)
    for a in rng:
        for b in rng:
            for c in rng:
                for d in rng:
                    if a * d - b * c in (1, -1):
                        out.append(((a, b), (c, d)))
    out.sort(key=lambda m: (max(abs(x) for row in m for x in row),
                            [x for row in m for x in row]))
    return out


def brute_force_isomorphisms(f1: Fan, f2: Fan, bound: int = 3):
    """All unimodular matrices with bounded entries mapping ray set to ray set."""
    target = set(f2.rays)
    out = []
    if f1.n != f2.n:
        return out
    for m in unimodular_matrices(bound):
        if all(mat_apply(m, v) in target for v in f1.rays):
            out.append(m)
    return out


def candidate_filter_maps(f1: Fan, f2: Fan) -> list:
    """Every unimodular map of the rays of f1 onto those of f2, in candidate order.

    Each candidate sends v_0, v_1 to an adjacent pair of f2 (j = 0..n-1, the
    next neighbour before the previous one) and is kept when it carries
    every ray of f1 into the ray set of f2.
    """
    if f1.n != f2.n:
        return []
    vinv = mat_inv(columns_to_matrix(f1.rays[0], f1.rays[1]))
    target = set(f2.rays)
    n = f2.n
    out = []
    for j in range(n):
        for w0, w1 in (
            (f2.rays[j], f2.rays[(j + 1) % n]),
            (f2.rays[j], f2.rays[(j - 1) % n]),
        ):
            m = mat_mul(columns_to_matrix(w0, w1), vinv)
            if all(mat_apply(m, v) in target for v in f1.rays):
                out.append(m)
    return out


def _bfs_orbits(n: int, moves) -> list[tuple[int, ...]]:
    """Orbits of 0..n-1 under the closure of `moves(j)`, the images of j."""
    seen = [False] * n
    orbits = []
    for i in range(n):
        if seen[i]:
            continue
        orbit = {i}
        frontier = [i]
        while frontier:
            for k in moves(frontier.pop()):
                if k not in orbit:
                    orbit.add(k)
                    frontier.append(k)
        for j in orbit:
            seen[j] = True
        orbits.append(tuple(sorted(orbit)))
    return orbits


def bfs_ray_orbits(group: SymmetryGroup) -> list[tuple[int, ...]]:
    """Ray orbits by a closure that does not rely on `ray_permutations`
    holding every group element."""
    perms = list(group.ray_permutations.values())
    return _bfs_orbits(group.fan.n, lambda j: [p[j] for p in perms])


def bfs_cone_orbits(group: SymmetryGroup) -> list[tuple[int, ...]]:
    """Maximal-cone orbits (cone i spans rays i, i+1) by the same closure."""
    perms = list(group.ray_permutations.values())
    n = group.fan.n
    cone_of_pair = {frozenset((i, (i + 1) % n)): i for i in range(n)}
    return _bfs_orbits(
        n, lambda j: [cone_of_pair[frozenset((p[j], p[(j + 1) % n]))] for p in perms]
    )


def pairwise_close(generators) -> frozenset:
    """The group generated by `generators`, multiplying every new element by
    every element on both sides until nothing new appears.

    Raises NotFinite for a generator or product of infinite order and once
    the set passes 12 elements.
    """
    elems = {IDENTITY}
    frontier = [tuple(map(tuple, g)) for g in generators]
    for g in frontier:
        if element_order(g) is None:
            raise NotFinite(f"generator {g} has infinite order")
    elems.update(frontier)
    while frontier:
        new = []
        for g in frontier:
            for h in list(elems):
                for p in (mat_mul(g, h), mat_mul(h, g)):
                    if p not in elems:
                        if element_order(p) is None:
                            raise NotFinite(f"element {p} has infinite order")
                        elems.add(p)
                        new.append(p)
                        if len(elems) > 12:
                            raise NotFinite("closure exceeds the maximal finite order 12")
        frontier = new
    return frozenset(elems)


def greedy_generating_set(elems) -> tuple[Mat2, ...]:
    """Elements in (-order, matrix) order, each one kept unless it already
    lies in the closure of those kept, until that closure is the group."""
    gens: list[Mat2] = []
    span = {IDENTITY}
    for g in sorted(elems, key=lambda m: (-(element_order(m) or 0), m)):
        if g in span:
            continue
        gens.append(g)
        span = pairwise_close(gens)
        if len(span) == len(elems):
            break
    return tuple(gens) if gens else (IDENTITY,)


@lru_cache(maxsize=1)
def _pairwise_table() -> tuple[dict, list]:
    """The class representatives by `pairwise_close`, and the conjugators."""
    labels = {pairwise_close(gens): label for label, gens in TABLE_GENERATORS.items()}
    return labels, unimodular_matrices(1)


def invariant_form_reduction(elems) -> Mat2:
    """A unimodular U such that U^{-1} g U has small entries for all g.

    U is the Lagrange-Gauss reduction of the group-invariant positive
    definite form sum_g g^T g.
    """
    f00 = f01 = f11 = 0
    for (a, b), (c, d) in elems:
        # g^T g = ((a a + c c, a b + c d), (a b + c d, b b + d d))
        f00 += a * a + c * c
        f01 += a * b + c * d
        f11 += b * b + d * d
    u: Mat2 = IDENTITY
    while True:
        if f00 > f11:
            u = mat_mul(u, ((0, 1), (1, 0)))
            f00, f11 = f11, f00
        # Shift e2 by -r e1 to minimize the off-diagonal entry.
        r = (2 * f01 + f00) // (2 * f00)
        if r != 0:
            u = mat_mul(u, ((1, -r), (0, 1)))
            f11 = f11 - 2 * r * f01 + r * r * f00
            f01 = f01 - r * f00
        if 2 * abs(f01) <= f00 <= f11:
            return u


def conjugate_group(elems, u: Mat2) -> frozenset:
    """U^{-1} G U."""
    uinv = mat_inv(u)
    return frozenset(mat_mul(uinv, mat_mul(g, u)) for g in elems)


def loop_classify(group: SymmetryGroup) -> str:
    """Conjugacy label of a finite group by search, independent of the
    closed form of `classify_subgroup`: the group is reduced by
    `invariant_form_reduction`, then conjugated by every matrix with entries
    in {-1, 0, 1} until it lands on a class representative, closed by
    `pairwise_close`."""
    labels, conjugators = _pairwise_table()
    reduced = conjugate_group(group.elements, invariant_form_reduction(group.elements))
    for p in conjugators:
        label = labels.get(conjugate_group(reduced, p))
        if label is not None:
            return label
    raise UnclassifiedSubgroup(f"no conjugator matches for {sorted(group.elements)}")


def brute_force_subgroups(elements) -> set[frozenset]:
    """All subsets containing the identity that are closed under products."""
    elems = sorted(elements)
    out = set()
    for r in range(len(elems) + 1):
        for subset in itertools.combinations(elems, r):
            s = set(subset)
            if IDENTITY not in s:
                continue
            if all(mat_mul(a, b) in s for a in s for b in s):
                out.add(frozenset(s))
    return out


def closure_subgroups(group: SymmetryGroup) -> list[SymmetryGroup]:
    """Every subgroup, closing each singleton and each pair by matrix products.

    Same order and generators as `enumerate_subgroups`; each subgroup is
    attached to the group's fan afresh.
    """
    elems = sorted(group.elements)
    seen: dict[frozenset, tuple] = {frozenset({IDENTITY}): ()}
    for a in elems:
        seen.setdefault(pairwise_close((a,)), (a,))
    for a in elems:
        for b in elems:
            if b > a:
                seen.setdefault(pairwise_close((a, b)), (a, b))
    out = []
    for sub, gens in sorted(seen.items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))):
        g = SymmetryGroup(elements=sub, generators=gens or (IDENTITY,))
        out.append(g.attach(group.fan) if group.fan is not None else g)
    return out


def ci_fan(n: int) -> Fan:
    """The n-ray blow-up chain of the square that CI certifies at 128 and 256 rays."""
    f, i = square_fan(), 0
    while f.n < n:
        f = blow_up(f, (i % f.n, (i + 1) % f.n))
        i += 3
    return f


def random_basis(rng, fan: Fan, group: SymmetryGroup) -> tuple[Fan, SymmetryGroup]:
    """The pair rewritten in a random lattice basis (entries within 3)."""
    while True:
        m = tuple(tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(2))
        if abs(m[0][0] * m[1][1] - m[0][1] * m[1][0]) == 1:
            break
    image = apply_matrix(m, fan)
    mi = mat_inv(m)
    gens = [mat_mul(m, mat_mul(g, mi)) for g in group.generators]
    return image, SymmetryGroup.from_generators(gens, image)


def keyed_candidate_reps(fan: Fan, bound: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """The least divisor in (max|c|, c) order of each class with coefficients
    in [-bound, bound], keyed by Picard coordinates: one scan of the cube,
    comparing each divisor's key with that of its class's current least."""
    lat = picard(fan)
    rep: dict[tuple[int, ...], tuple[int, ...]] = {}
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=fan.n):
        coords = lat._coords(coeffs)
        old = rep.get(coords)
        key = (max(map(abs, coeffs), default=0), coeffs)
        if old is None or key < (max(map(abs, old), default=0), old):
            rep[coords] = coeffs
    return rep


def rank_pruned_basis_search(fan: Fan, rep, coord_orbits):
    """The basis search with a rank test per node and a determinant per leaf.

    Runs on candidates `rep, coord_orbits` as `_candidate_orbits` returns
    them, in the same depth-first order as `search_line_bundle_basis`; a
    branch is cut only when its rows are linearly dependent, and each leaf
    of N rows is kept if its determinant is +-1.  Exponential in the number
    of rank-full, non-unimodular leaves.
    """
    n = fan.n
    orbits = [[line_bundle_class(fan, rep[c]) for c in orbit] for orbit in coord_orbits]

    def rows_of(picked: list[int]) -> list[list[int]]:
        return [list(cls.model_vector()) for i in picked for cls in orbits[i]]

    def dfs(start: int, picked: list[int], size: int) -> list[int] | None:
        if size == n:
            return picked if triple_loop_bareiss(rows_of(picked)) in (1, -1) else None
        for i in range(start, len(orbits)):
            grown = size + len(orbits[i])
            if grown > n or len(hermite_pivots(rows_of(picked + [i]))) < grown:
                continue
            found = dfs(i + 1, picked + [i], grown)
            if found is not None:
                return found
        return None

    found = dfs(0, [], 0)
    if found is None:
        return None
    divisors = tuple(rep[cls.c1] for i in found for cls in orbits[i])
    return PermutationBasis(fan, divisors, tuple(("search", None) for _ in divisors))


def chern_multiply(lat: PicardLattice, x: K0Class, y: K0Class) -> K0Class:
    """K0 product through the Chern character, with ch2 carried doubled, on
    the Picard lattice `lat`.

    ch = (rank, c1, ch2) is multiplicative and 2 ch2 = c1.K + 2 chi - 2 rank
    is an integer for every class, so the route stays exact; the parity of
    the resulting numerator is checked.
    """

    def doubled_ch2(z: K0Class) -> int:
        return lat.pair(z.c1, lat.canonical_coords) + 2 * z.chi - 2 * z.rank

    r = x.rank * y.rank
    c1 = tuple(x.rank * b + y.rank * a for a, b in zip(x.c1, y.c1))
    t = x.rank * doubled_ch2(y) + y.rank * doubled_ch2(x) + 2 * lat.pair(x.c1, y.c1)
    num = t - lat.pair(c1, lat.canonical_coords)
    if num % 2:
        raise GrothendieckError("non-integral Euler characteristic in product")
    return K0Class(r, c1, num // 2 + r)


def pairwise_klyachko(fan: Fan) -> KlyachkoCertificate:
    """The K0 certificate with one k0_multiply per product relation, O(n^3).

    Checks that the classes attached to all cones span with index one, that
    products of disjoint-cone classes are again cone classes (or vanish), and
    that the character relations on the ray ideal-sheaf classes hold; then
    that every 2-cone class is the point class (0, 0, 1).  A failure returns
    the certificate with the message of `verify_klyachko` and no witness.
    """
    n = fan.n
    lat = picard(fan)
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
        (frozenset(pair), k0_multiply(lat, o_ray[pair[0]], o_ray[pair[1]]))
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
        return KlyachkoCertificate(
            rank, index, 0, 0,
            f"cone classes span rank {rank} with index {index}, expected rank {n}, index 1",
        )

    zero = K0Class(0, (0,) * (n - 2), 0)
    checked = 0
    for (s1, c1), (s2, c2) in itertools.combinations_with_replacement(cones, 2):
        if s1 & s2:
            continue
        union = s1 | s2
        expected = cone_sets.get(union, zero)
        got = k0_multiply(lat, c1, c2)
        if got != expected:
            return KlyachkoCertificate(
                rank, index, checked, 0,
                f"product of cones {sorted(s1)} and {sorted(s2)} is "
                f"{list(got.model_vector())}, expected {list(expected.model_vector())}",
            )
        checked += 1

    rel2 = 0
    for m in ((1, 0), (0, 1)):
        coeffs = tuple(-(m[0] * v[0] + m[1] * v[1]) for v in fan.rays)
        if line_bundle_class(fan, coeffs) != one:
            return KlyachkoCertificate(
                rank, index, checked, rel2, f"character relation fails for {m}")
        rel2 += 1

    point = K0Class(0, (0,) * (n - 2), 1)
    for pair in cone_pairs:
        cls = cone_sets[frozenset(pair)]
        if cls != point:
            return KlyachkoCertificate(
                rank, index, checked, rel2,
                f"class of cone {sorted(pair)} is {list(cls.model_vector())}, "
                f"expected the point class {list(point.model_vector())}")

    return KlyachkoCertificate(
        rank=rank,
        span_index=index,
        orbit_closure_pairs=checked,
        character_relations=rel2,
    )


def band_product_klyachko(fan: Fan) -> KlyachkoCertificate:
    """The K0 certificate with every product relation evaluated, in O(n^2),
    and no point-class pin.

    All 2n^2 - 2n + 1 products of disjoint cones are evaluated.  Each class
    with c1 != 0 is multiplied once by the tridiagonal form, B.c1 in O(n);
    the intersection number c1.c1' of a product is then the sum of
    (B.c1)_k c1'_k over the nonzero entries of c1', which is one entry for
    the rays D_2..D_(n-1).  Only D_0 and D_1 have dense c1, and the unit and
    the 2-cone classes have c1 = 0.  A failure returns the certificate at
    its first witness.
    """
    n = fan.n
    lat = picard(fan)
    one = structure_class(fan)
    j_ray = [
        line_bundle_class(fan, tuple(-1 if e == i else 0 for e in range(n)))
        for i in range(n)
    ]
    o_ray = [one - j for j in j_ray]
    cones: list[tuple[tuple[int, ...], K0Class]] = [((), one)]
    cones += [((i,), o_ray[i]) for i in range(n)]
    cones += [
        (tuple(sorted(pair)), k0_multiply(lat, o_ray[pair[0]], o_ray[pair[1]]))
        for pair in fan.cones()
    ]

    # Equal rows span the same lattice: the n two-cone classes share one.
    pivots = hermite_pivots(list(dict.fromkeys(cls.model_vector() for _, cls in cones)))
    rank = len(pivots)
    index = 1
    for p in pivots:
        index *= abs(p)
    if rank != n or index != 1:
        return KlyachkoCertificate(
            rank, index, 0, 0,
            f"cone classes span rank {rank} with index {index}, expected rank {n}, index 1",
            {"kind": "span", "rank": rank, "index": index},
        )

    # Per cone: its rays as a bitmask, then rank, chi, c1, the nonzero
    # (k, c1_k) and B.c1 (None when c1 = 0).
    terms = []
    for rays, cls in cones:
        support = tuple((k, v) for k, v in enumerate(cls.c1) if v)
        banded = None
        if support:
            y = (0, *cls.c1, 0)
            banded = [a * y[k + 1] + y[k] + y[k + 2] for k, a in enumerate(lat.band)]
        mask = sum(1 << i for i in rays)
        terms.append((mask, cls.rank, cls.chi, cls.c1, support, banded))
    position = {t[0]: i for i, t in enumerate(terms)}
    zero = K0Class(0, (0,) * (n - 2), 0)
    zero_terms = (0, 0, 0, zero.c1, (), None)

    checked = 0
    for (i, (m1, r1, x1, c1, _, b1)), (j, (m2, r2, x2, c2, s2, _)) in (
        itertools.combinations_with_replacement(enumerate(terms), 2)
    ):
        if m1 & m2:
            continue
        k = position.get(m1 | m2)
        _, er, ex, ec1, es, _ = zero_terms if k is None else terms[k]
        chi = r1 * x2 + r2 * x1 - r1 * r2
        if b1 is not None:
            for e, v in s2:
                chi += b1[e] * v
        if r1 or r2:
            same_c1 = tuple(r1 * b + r2 * a for a, b in zip(c1, c2)) == ec1
        else:
            same_c1 = not es
        if r1 * r2 != er or chi != ex or not same_c1:
            rays1, rays2 = list(cones[i][0]), list(cones[j][0])
            got = [r1 * r2, *(r1 * b + r2 * a for a, b in zip(c1, c2)), chi]
            expected = list((zero if k is None else cones[k][1]).model_vector())
            return KlyachkoCertificate(
                rank, index, checked, 0,
                f"product of cones {rays1} and {rays2} is {got}, expected {expected}",
                {"kind": "product", "cones": [rays1, rays2], "got": got, "expected": expected},
            )
        checked += 1

    rel2 = 0
    for m in ((1, 0), (0, 1)):
        coeffs = tuple(-(m[0] * v[0] + m[1] * v[1]) for v in fan.rays)
        if line_bundle_class(fan, coeffs) != one:
            return KlyachkoCertificate(
                rank, index, checked, rel2,
                f"character relation fails for {m}", {"kind": "character", "m": list(m)},
            )
        rel2 += 1

    return KlyachkoCertificate(rank, index, checked, rel2)


def triple_loop_bareiss(rows: list[list[int]]) -> int:
    """Exact determinant by fraction-free Bareiss elimination, one entry at
    a time, with the pivot rows kept as they are."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(map(int, r)) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def solve2_divisor_coords(fan: Fan, coefficients) -> tuple[int, ...]:
    """Picard coordinates of sum(c_e D_e) by a 2x2 solve per divisor.

    The character m with <m, v_0> = -c_0 and <m, v_1> = -c_1 clears the
    first two coefficients; what is left, c_e + <m, v_e> for e >= 2, are the
    coordinates in the basis D_2..D_{N-1}.
    """
    c = [int(x) for x in coefficients]
    rays = fan.rays
    m = solve2(rays[0], rays[1], (-c[0], -c[1]))
    return tuple(c[e] + m[0] * rays[e][0] + m[1] * rays[e][1] for e in range(2, fan.n))


def act_on_class(lat: PicardLattice, perm: tuple[int, ...], x: K0Class) -> K0Class:
    """Image of a class on `lat.fan` under a fan symmetry with ray
    permutation `perm`."""
    lift = [0, 0, *x.c1]
    coords = lat.divisor_coords(act_on_divisor(perm, lift))
    return K0Class(x.rank, coords, x.chi)


def generator_permutations(fan: Fan, group: SymmetryGroup) -> list[tuple[int, ...]]:
    """The ray permutations of the group's generators on `fan`."""
    ray_permutations = group.on(fan).ray_permutations
    return [ray_permutations[g] for g in group.generators]


def bfs_class_orbit(lat: PicardLattice, perms, divisor) -> set[tuple[int, ...]]:
    """Picard coordinates of the orbit of a divisor's class, by a closure.

    Expands every member of the orbit found so far under every permutation
    until nothing new appears, so it does not rely on `perms` being a whole
    group.
    """
    orbit = {lat.divisor_coords(divisor): tuple(divisor)}
    frontier = [tuple(divisor)]
    while frontier:
        d = frontier.pop()
        for perm in perms:
            image = act_on_divisor(perm, d)
            key = lat.divisor_coords(image)
            if key not in orbit:
                orbit[key] = image
                frontier.append(image)
    return set(orbit)


def bfs_orbit_partition(fan: Fan, group: SymmetryGroup, divisors) -> tuple[tuple[int, ...], ...]:
    """Orbits of the classes of `divisors` as index tuples, ordered by their
    least index, from `bfs_class_orbit` under the group's generators alone.

    Divisors are grouped by the orbit each one closes to, so no index of one
    divisor is looked up from the images of another.
    """
    lat = picard(fan)
    perms = generator_permutations(fan, group)
    members: dict[frozenset, list[int]] = {}
    for i, d in enumerate(divisors):
        members.setdefault(frozenset(bfs_class_orbit(lat, perms, d)), []).append(i)
    return tuple(sorted(map(tuple, members.values())))


def closure_candidate_orbits(fan: Fan, group: SymmetryGroup, bound: int):
    """The basis search's candidates and orbits, as `_candidate_orbits`
    returns them, by a closure: the classes of `keyed_candidate_reps`, each
    closed under the group's generators by `bfs_class_orbit`, keeping the
    orbits of at most N classes in the order of their least class, each
    sorted in (max|c|, c) order."""
    rep = keyed_candidate_reps(fan, bound)
    lat = picard(fan)
    perms = generator_permutations(fan, group)

    def size_order(coords):
        return (max(map(abs, coords), default=0), coords)

    seen: set[tuple[int, ...]] = set()
    orbits = []
    for coords in sorted(rep, key=size_order):
        if coords not in seen:
            orbit = bfs_class_orbit(lat, perms, rep[coords])
            seen |= orbit
            if len(orbit) <= fan.n:
                orbits.append(sorted(orbit, key=size_order))
    return rep, orbits


def full_gram(fan: Fan) -> list[list[int]]:
    """The intersection form on D_2..D_{N-1} as a full matrix.

    Builds the N x N table of ray intersections (ones for adjacent rays,
    zeros for the rest, each self-intersection from a character m with
    <m, v_i> = -1) and restricts it to the Picard basis rays.
    """
    rays = fan.rays
    n = fan.n
    inter = [[0] * n for _ in range(n)]
    for i in range(n):
        inter[i][(i + 1) % n] = 1
        inter[i][(i - 1) % n] = 1
    for i in range(n):
        _, s, t = xgcd(rays[i][0], rays[i][1])
        before, after = rays[(i - 1) % n], rays[(i + 1) % n]
        inter[i][i] = -s * (before[0] + after[0]) - t * (before[1] + after[1])
    return [row[2:] for row in inter[2:]]


def merge_blocks_by_orbits(
    fan: Fan, group: SymmetryGroup, blocks
) -> list[list[tuple[int, ...]]]:
    """Coarsen a block partition until every group orbit of classes lies in
    one block, by a union-find over the blocks.

    Line bundles are compared by Picard coordinates, which determine them,
    and orbits are closures under the generators (`bfs_class_orbit`).
    Merged blocks keep the position of their first block and the order of
    their members.
    """
    perms = generator_permutations(fan, group)
    lat = picard(fan)
    flat = [(bi, d) for bi, block in enumerate(blocks) for d in block]
    block_of_class = {}
    for bi, d in flat:
        block_of_class.setdefault(lat.divisor_coords(d), bi)
    parent = list(range(len(blocks)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for bi, d in flat:
        for image in bfs_class_orbit(lat, perms, d):
            target = block_of_class.get(image)
            if target is not None:
                rx, ry = find(bi), find(target)
                parent[max(rx, ry)] = min(rx, ry)
    merged: dict[int, list[tuple[int, ...]]] = {}
    for bi, block in enumerate(blocks):
        merged.setdefault(find(bi), []).extend(block)
    return list(merged.values())


def pairwise_verify_collection(
    coll: ExceptionalCollection, group: SymmetryGroup
) -> CollectionCertificate:
    """The collection certificate with one `ext_line_bundles` call per pair
    and the orbit of every object, on `coll.fan`.

    Each pair re-validates both objects and takes its degree from scratch;
    closure takes the orbit of every object, not of one per orbit, as a
    closure under the generators (`bfs_class_orbit`), within its own block.
    """
    fan = coll.fan
    perms = generator_permutations(fan, group)
    zero = (0, 0, 0)
    first = None
    checked = 0

    def note(v: ExtViolation) -> None:
        nonlocal first
        if first is None:
            first = v

    self_ext = line_bundle_cohomology(fan, (0,) * fan.n).as_tuple()
    for block in coll.blocks:
        for d in block:
            checked += 1
            if self_ext != (1, 0, 0):
                note(ExtViolation("self", d, d, self_ext))

    for block in coll.blocks:
        for i, d1 in enumerate(block):
            for j, d2 in enumerate(block):
                if i == j:
                    continue
                ext = ext_line_bundles(fan, d1, d2).as_tuple()
                checked += 1
                if ext != zero:
                    note(ExtViolation("block", d1, d2, ext))

    for s in range(1, len(coll.blocks)):
        for t in range(s):
            for d_late in coll.blocks[s]:
                for d_early in coll.blocks[t]:
                    ext = ext_line_bundles(fan, d_late, d_early).as_tuple()
                    checked += 1
                    if ext != zero:
                        note(ExtViolation("order", d_late, d_early, ext))

    objects = [d for block in coll.blocks for d in block]
    if len(objects) == fan.n:
        det = triple_loop_bareiss(
            [list(line_bundle_class(fan, d).model_vector()) for d in objects]
        )
    else:
        det = 0

    # Closure is certified for a basis only: the classes must be a Z-basis
    # (determinant +-1), and each block must be closed on its own.
    lat = picard(fan)
    closed = det in (1, -1)
    for block in coll.blocks:
        block_classes = {lat.divisor_coords(d) for d in block}
        for d in block:
            if not bfs_class_orbit(lat, perms, d) <= block_classes:
                closed = False

    return CollectionCertificate(
        determinant=det,
        blocks_group_closed=closed,
        pairs_checked=checked,
        first_violation=first,
    )


def symmetric_signature(q: list[list[int]]) -> tuple[int, int]:
    """Signature (positives, negatives) of a nondegenerate symmetric matrix."""
    n = len(q)
    a = [[Fraction(x) for x in row] for row in q]
    pos = neg = 0
    idx = list(range(n))
    while idx:
        k = next((i for i in idx if a[i][i] != 0), None)
        if k is None:
            # All remaining diagonal entries vanish; the basis change
            # e_j -> e_j + e_i (with a[i][j] != 0) makes a[j][j] = 2 a[i][j].
            i = idx[0]
            j = next((j for j in idx[1:] if a[i][j] != 0), None)
            if j is None:
                raise ArithmeticError("degenerate symmetric form")
            for r in range(n):
                a[r][j] += a[r][i]
            for s in range(n):
                a[j][s] += a[i][s]
            continue
        d = a[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        idx = [i for i in idx if i != k]
        for i in idx:
            ci = a[i][k] / d
            for j in idx:
                a[i][j] -= ci * a[k][j]
            a[i][k] = Fraction(0)
        for j in idx:
            a[k][j] = Fraction(0)
    return pos, neg


def _rank(rows: list[list[int]]) -> int:
    """Exact rank over Q."""
    a = [[Fraction(x) for x in row] for row in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    rank = 0
    col = 0
    for col in range(n):
        pivot = next((i for i in range(rank, m) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = 1 / a[rank][col]
        a[rank] = [x * inv for x in a[rank]]
        for i in range(m):
            if i != rank and a[i][col] != 0:
                c = a[i][col]
                a[i] = [x - c * y for x, y in zip(a[i], a[rank])]
        rank += 1
        if rank == m:
            break
    return rank


@lru_cache(maxsize=None)
def _pattern_cohomology(n: int, violated: tuple[bool, ...]) -> tuple[int, int, int]:
    """Per-character cohomology from the cover by maximal-cone charts.

    `violated[e]` says whether the character violates the inequality of ray e.
    A chart (cone i, spanned by rays i, i+1) admits the character iff neither
    of its rays is violated; a pair of charts iff their shared rays are not
    violated; triple and deeper intersections are the full torus, so those
    spaces are always one-dimensional.  Sheaf cohomology vanishes above
    degree 2, pinning down the tail ranks.
    """
    cones = [(i, (i + 1) % n) for i in range(n)]
    active0 = [i for i in range(n) if not (violated[cones[i][0]] or violated[cones[i][1]])]
    pairs = list(itertools.combinations(range(n), 2))

    def pair_active(i: int, j: int) -> bool:
        shared = set(cones[i]) & set(cones[j])
        return all(not violated[r] for r in shared)

    active1 = [(i, j) for i, j in pairs if pair_active(i, j)]
    triples = list(itertools.combinations(range(n), 3))

    col0 = {i: k for k, i in enumerate(active0)}
    col1 = {p: k for k, p in enumerate(active1)}

    d0 = []
    for i, j in active1:
        row = [0] * len(active0)
        if i in col0:
            row[col0[i]] -= 1
        if j in col0:
            row[col0[j]] += 1
        d0.append(row)
    d1 = []
    for i, j, k in triples:
        row = [0] * len(active1)
        for face, sign in (((j, k), 1), ((i, k), -1), ((i, j), 1)):
            if face in col1:
                row[col1[face]] += sign
        d1.append(row)

    r0 = _rank(d0) if d0 and active0 else 0
    r1 = _rank(d1) if d1 and active1 else 0
    # Tail ranks from vanishing in degrees >= 3: chain spaces there are the
    # full binomial coefficients.
    from math import comb

    top = n - 1
    r = {top: 0}
    for p in range(top, 2, -1):
        r[p - 1] = comb(n, p + 1) - r[p]
    r2 = r[2] if n >= 4 else 0

    h0 = len(active0) - r0
    h1 = len(active1) - r1 - r0
    h2 = comb(n, 3) - r2 - r1
    return (h0, h1, h2)


def box_h0(fan: Fan, coeffs) -> int:
    """Brute-force h0: count the lattice points of the divisor polytope.

    Scans the bounding box of the candidate vertices (one per maximal cone,
    from its two ray equalities), so time and memory grow with the area.
    """
    coeffs = tuple(int(c) for c in coeffs)
    n = fan.n
    verts = [
        solve2(fan.rays[i], fan.rays[(i + 1) % n], (-coeffs[i], -coeffs[(i + 1) % n]))
        for i in range(n)
    ]
    xs = [v[0] for v in verts]
    ys = [v[1] for v in verts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x0 > x1 or y0 > y1:
        return 0
    gx, gy = np.meshgrid(
        np.arange(x0, x1 + 1, dtype=np.int64),
        np.arange(y0, y1 + 1, dtype=np.int64),
        indexing="ij",
    )
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    pairing = pts @ np.array(fan.rays, dtype=np.int64).T
    mask = (pairing >= -np.array(coeffs, dtype=np.int64)).all(axis=1)
    return int(mask.sum())


def two_pass_cohomology(fan: Fan, coeffs) -> tuple[int, int, int]:
    """(h0, h1, h2) of O(D) from two separate public h0 calls.

    The composition the one-pass kernel replaced: h0(D), h2(D) = h0(K - D)
    with K - D = sum(-1 - c_e) D_e, each with its own D.H and its own table
    lookups, and h1 = h0 + h2 - chi(D).
    """
    coeffs = tuple(int(c) for c in coeffs)
    dim0 = h0(fan, coeffs)
    dim2 = h0(fan, tuple(-1 - c for c in coeffs))
    chi = _chi(self_intersections(fan), coeffs)
    return (dim0, dim0 + dim2 - chi, dim2)


def doubling_ample_weights(fan: Fan) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """The (a, weights, k_degree) table of `cohomology._ample_weights` with H
    built from the self-intersections instead of a closing relation.

    Blow down (-1)-curves on the sequence (delete a -1, raise both
    neighbours by one) until P2 or F(a) with a != 1 remains.  There H is a
    line, or the positive section plus a fibre.  Each blow-up on the way back
    replaces H by 2 pi^*H - E, which stays ample: the new ray gets
    2(c_left + c_right) - 1 and every old coefficient doubles, so the
    weights have about n bits.
    """
    a = self_intersections(fan)
    seq = list(a)
    removed = []
    while len(seq) > 4 or (len(seq) == 4 and -1 in seq):
        p = seq.index(-1)
        seq[p - 1] += 1
        seq[(p + 1) % len(seq)] += 1
        del seq[p]
        removed.append(p)
    if len(seq) == 3:
        h = [1, 0, 0]
    else:
        p = seq.index(max(seq))
        h = [0] * 4
        h[p] = h[(p + 1) % 4] = 1
    for p in reversed(removed):
        left, right = h[p - 1], h[p % len(h)]
        h = [2 * x for x in h]
        h.insert(p, 2 * (left + right) - 1)
    n = fan.n
    weights = tuple(a[i] * h[i] + h[i - 1] + h[(i + 1) % n] for i in range(n))
    assert min(weights) > 0, (h, weights)
    return a, weights, -sum(weights)


def chamber_cohomology(fan: Fan, coeffs) -> tuple[int, int, int]:
    """Brute-force cohomology: sum per-character chamber contributions.

    The character box is the hull of all pairwise wall intersections plus a
    margin; every nonzero contribution lives on a bounded chamber inside it.
    """
    coeffs = tuple(int(c) for c in coeffs)
    rays = fan.rays
    n = fan.n
    xs: list[Fraction] = []
    ys: list[Fraction] = []
    for (i, vi), (j, vj) in itertools.combinations(enumerate(rays), 2):
        det = vi[0] * vj[1] - vi[1] * vj[0]
        if det == 0:
            continue
        mx = Fraction(-coeffs[i] * vj[1] + coeffs[j] * vi[1], det)
        my = Fraction(-coeffs[j] * vi[0] + coeffs[i] * vj[0], det)
        xs.append(mx)
        ys.append(my)
    import math

    x0 = math.floor(min(xs)) - 1
    x1 = math.ceil(max(xs)) + 1
    y0 = math.floor(min(ys)) - 1
    y1 = math.ceil(max(ys)) + 1

    gx, gy = np.meshgrid(
        np.arange(x0, x1 + 1, dtype=np.int64),
        np.arange(y0, y1 + 1, dtype=np.int64),
        indexing="ij",
    )
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    pairing = pts @ np.array(rays, dtype=np.int64).T
    violated = pairing < -np.array(coeffs, dtype=np.int64)

    totals = [0, 0, 0]
    patterns, counts = np.unique(violated, axis=0, return_counts=True)
    for pattern, count in zip(patterns, counts):
        h = _pattern_cohomology(n, tuple(bool(b) for b in pattern))
        for d in range(3):
            totals[d] += h[d] * int(count)
    return tuple(totals)


class StepwiseStep(NamedTuple):
    before: Fan
    contracted: tuple[tuple[int, int], ...]  # ray vectors removed in this step
    after: Fan


class StepwiseTrace(NamedTuple):
    initial_fan: Fan
    steps: tuple[StepwiseStep, ...]
    terminal_fan: Fan
    terminal_group: SymmetryGroup


def _stepwise_contractible_orbits(fan: Fan, group: SymmetryGroup) -> list[tuple[int, ...]]:
    """Ray-index orbits consisting of pairwise non-adjacent (-1)-rays."""
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


def stepwise_minimalize(fan: Fan, group: SymmetryGroup) -> StepwiseTrace:
    """The contraction loop of `minimalize` with a fan per step: each round
    contracts the greedy union of its contractible orbits one orbit at a
    time by `blow_down`, and attaches the group afresh to every fan."""
    g = group.attach(fan)
    steps: list[StepwiseStep] = []
    current = fan
    while True:
        orbits = _stepwise_contractible_orbits(current, g)
        if not orbits:
            break
        round_fan = current
        for orbit in _greedy_orbit_union(orbits, round_fan.n):
            # Orbit indices refer to the fan at the start of the round; the
            # rays themselves survive earlier contractions in the same round.
            rays = tuple(round_fan.rays[i] for i in orbit)
            after = blow_down(current, [current.rays.index(v) for v in rays])
            steps.append(StepwiseStep(current, rays, after))
            current = after
            g = g.attach(current)
    return StepwiseTrace(fan, tuple(steps), current, g)


def stepwise_pullback(trace, divisor) -> tuple[int, ...]:
    """Total transform on the initial fan of one divisor on the terminal fan
    of a `stepwise_minimalize` trace, one contraction step at a time and
    without linearity: a ray that a step contracted gets the sum of its two
    neighbours' coefficients."""
    d = tuple(divisor)
    for step in reversed(trace.steps):
        coeff = dict(zip(step.after.rays, d))
        rays = step.before.rays
        n = len(rays)
        d = tuple(coeff[v] if v in coeff else coeff[rays[i - 1]] + coeff[rays[(i + 1) % n]]
                  for i, v in enumerate(rays))
    return d
