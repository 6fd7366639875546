"""Independent brute-force oracles used only by the test suite."""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

import numpy as np

from toric_surface_lab.cohomology import _chi, h0
from toric_surface_lab.grothendieck import (
    GrothendieckError,
    K0Class,
    PermutationBasis,
    PicardLattice,
    _orbit_partition,
    act_on_divisor,
    line_bundle_class,
    picard,
)
from toric_surface_lab.intlinalg import (
    Mat2,
    bareiss_det,
    hermite_pivots,
    columns_to_matrix,
    mat_apply,
    mat_inv,
    solve2,
)
from toric_surface_lab.lattice_fan import Fan, self_intersections
from toric_surface_lab.symmetry import IDENTITY, SymmetryGroup, _close, mat_mul


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
    elems = group.sorted_elements()
    seen: dict[frozenset, tuple] = {frozenset({IDENTITY}): ()}
    for a in elems:
        seen.setdefault(_close((a,)), (a,))
    for a in elems:
        for b in elems:
            if b > a:
                seen.setdefault(_close((a, b)), (a, b))
    out = []
    for sub, gens in sorted(seen.items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))):
        g = SymmetryGroup(elements=sub, generators=gens or (IDENTITY,))
        out.append(g.attach(group.fan) if group.fan is not None else g)
    return out


def rank_pruned_basis_search(fan: Fan, group: SymmetryGroup, rep, coord_orbits):
    """The basis search with a rank test per node and a determinant per leaf.

    Runs on candidates `rep, coord_orbits` as `_candidate_orbits` returns
    them, in the same depth-first order as `search_line_bundle_basis`; a
    branch is cut only when its rows are linearly dependent, and each leaf
    of N rows is kept if its determinant is +-1.  Exponential in the number
    of rank-full, non-unimodular leaves.
    """
    group = group.on(fan)
    n = fan.n
    orbits = [[line_bundle_class(fan, rep[c]) for c in orbit] for orbit in coord_orbits]

    def rows_of(picked: list[int]) -> list[list[int]]:
        return [list(cls.model_vector()) for i in picked for cls in orbits[i]]

    def dfs(start: int, picked: list[int], size: int) -> list[int] | None:
        if size == n:
            return picked if bareiss_det(rows_of(picked)) in (1, -1) else None
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
    classes = [cls for i in found for cls in orbits[i]]
    divisors = [rep[cls.c1] for cls in classes]
    return PermutationBasis(
        fan=fan,
        divisors=tuple(divisors),
        elements=tuple(classes),
        orbits=_orbit_partition(fan, group, classes, divisors),
        tags=tuple(("search", None) for _ in classes),
    )


def chern_multiply(x: K0Class, y: K0Class) -> K0Class:
    """K0 product through the Chern character, with ch2 carried doubled.

    ch = (rank, c1, ch2) is multiplicative and 2 ch2 = c1.K + 2 chi - 2 rank
    is an integer for every class, so the route stays exact; the parity of
    the resulting numerator is checked.
    """
    lat = picard(x.fan)

    def doubled_ch2(z: K0Class) -> int:
        return lat.pair(z.c1, lat.canonical_coords) + 2 * z.chi - 2 * z.rank

    r = x.rank * y.rank
    c1 = tuple(x.rank * b + y.rank * a for a, b in zip(x.c1, y.c1))
    t = x.rank * doubled_ch2(y) + y.rank * doubled_ch2(x) + 2 * lat.pair(x.c1, y.c1)
    num = t - lat.pair(c1, lat.canonical_coords)
    if num % 2:
        raise GrothendieckError("non-integral Euler characteristic in product")
    return K0Class(x.fan, r, c1, num // 2 + r)


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


def act_on_class(fan: Fan, perm: tuple[int, ...], x: K0Class) -> K0Class:
    """Image of a class under a fan symmetry with ray permutation `perm`."""
    lat = picard(fan)
    lift = [0] * fan.n
    for j, d in enumerate(x.c1):
        lift[j + 2] = d
    coords = lat.divisor_coords(act_on_divisor(perm, lift))
    return K0Class(fan, x.rank, coords, x.chi)


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
