"""Finite symmetry of a fan: the lattice automorphisms preserving the ray set,
and classification of finite subgroups of GL(2,Z) into the 13 conjugacy
classes (cyclic C1, C2, C3, C4, C6 and dihedral D2, D2', D4, D4', D6, D6',
D8, D12).

Class representatives are generated by

    A = [[1,-1],[1,0]]   (order 6),   B = [[0,-1],[1,0]]  (quarter turn),
    C = [[0,1],[1,0]]    (swap),      C' = [[1,0],[0,-1]] (axis flip),

with C1=<I>, C2=<-I>, C3=<A^2>, C4=<B>, C6=<A>, D2=<C>, D2'=<C'>,
D4=<-I,C>, D4'=<-I,C'>, D6=<A^2,C>, D6'=<A^2,-C>, D8=<B,C>, D12=<A,C>.

Every finite subgroup is cyclic or dihedral, generated by one rotation and
one reflection; its class, its subgroups, its generating set and the check
that an element set is a group are read off the powers of such elements.
compute_aut, enumerate_subgroups and SymmetryGroup.from_generators (which
certifies the closure it builds) give each group such a pair as its
`presentation`; only a group from bare elements is certified when used.
The breadth-first closure serves only from_generators.
"""

from __future__ import annotations

from itertools import accumulate, combinations
from math import gcd

from .intlinalg import (
    IDENTITY,
    MINUS_IDENTITY,
    Mat2,
    det2,
    is_int_pair,
    mat_apply,
    mat_det,
    mat_mul,
)
from .lattice_fan import Fan, InternalError, LabError, _shift_maps

__all__ = [
    "SymmetryGroup",
    "SymmetryError",
    "NotFinite",
    "UnclassifiedSubgroup",
    "NotAFanSymmetry",
    "CONJUGACY_LABELS",
    "TABLE_GENERATORS",
    "compute_aut",
    "classify_subgroup",
    "enumerate_subgroups",
    "trivial_group",
]

# Largest finite subgroup of GL(2,Z) has order 12.
_MAX_FINITE_ORDER = 12

GEN_A: Mat2 = ((1, -1), (1, 0))
GEN_B: Mat2 = ((0, -1), (1, 0))
GEN_C: Mat2 = ((0, 1), (1, 0))
GEN_CP: Mat2 = ((1, 0), (0, -1))

_A2 = mat_mul(GEN_A, GEN_A)
_MC = ((0, -1), (-1, 0))  # -C

TABLE_GENERATORS: dict[str, tuple[Mat2, ...]] = {
    "C1": (IDENTITY,),
    "C2": (MINUS_IDENTITY,),
    "C3": (_A2,),
    "C4": (GEN_B,),
    "C6": (GEN_A,),
    "D2": (GEN_C,),
    "D2'": (GEN_CP,),
    "D4": (MINUS_IDENTITY, GEN_C),
    "D4'": (MINUS_IDENTITY, GEN_CP),
    "D6": (_A2, GEN_C),
    "D6'": (_A2, _MC),
    "D8": (GEN_B, GEN_C),
    "D12": (GEN_A, GEN_C),
}

CONJUGACY_LABELS = tuple(TABLE_GENERATORS)


class SymmetryError(LabError):
    """Base class for symmetry-group failures."""


class NotFinite(SymmetryError):
    pass


class UnclassifiedSubgroup(SymmetryError):
    pass


class NotAFanSymmetry(SymmetryError):
    pass


def element_order(m: Mat2) -> int | None:
    """Order of a GL(2,Z) element, or None if infinite.

    Decided by trace and determinant: finite order forces det=1 with
    |trace|<=1 (orders 3, 4, 6), m = +-I, or det=-1 with trace 0 (order 2).
    """
    d = mat_det(m)
    t = m[0][0] + m[1][1]
    if d == 1:
        if m == IDENTITY:
            return 1
        if m == MINUS_IDENTITY:
            return 2
        return {-1: 3, 0: 4, 1: 6}.get(t)
    if d == -1:
        return 2 if t == 0 else None
    return None


def _close(generators) -> frozenset[Mat2]:
    """The group generated by `generators`: a closure by generators.

    A breadth-first search from the identity multiplies each new element on
    the right by the generators only, so it costs O(|G| #gens) products.  In
    a finite group the monoid the generators span is the group, so this is
    the set of all products.  NotFinite is raised for a generator of infinite
    order, then for a new element of infinite order, and once the closure
    passes 12 elements, which also stops the search on an infinite group.
    """
    gens = [tuple(map(tuple, g)) for g in generators]
    for g in gens:
        if element_order(g) is None:
            raise NotFinite(f"generator {g} has infinite order")
    elems = {IDENTITY}
    frontier = [IDENTITY]
    while frontier:
        new = []
        for h in frontier:
            for g in gens:
                p = mat_mul(h, g)
                if p not in elems:
                    if element_order(p) is None:
                        raise NotFinite(f"element {p} has infinite order")
                    elems.add(p)
                    new.append(p)
                    if len(elems) > _MAX_FINITE_ORDER:
                        raise NotFinite(
                            "closure exceeds the maximal finite order 12"
                        )
        frontier = new
    return frozenset(elems)


class SymmetryGroup:
    """A finite subgroup of GL(2,Z), optionally attached to a fan.

    When attached, `ray_permutations[g]` maps ray index i of the fan to the
    index of g applied to ray i.  `presentation` is a trusted (r, s), r
    generating the rotations and s a reflection or None, or None when
    unknown.  Immutable; equality and hash ignore the ray permutations and
    the presentation.
    """

    __slots__ = ("elements", "generators", "fan", "ray_permutations", "presentation")

    def __init__(self, elements: frozenset[Mat2], generators: tuple[Mat2, ...],
                 fan: Fan | None = None,
                 ray_permutations: dict[Mat2, tuple[int, ...]] | None = None,
                 presentation: tuple[Mat2, Mat2 | None] | None = None) -> None:
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "fan", fan)
        object.__setattr__(self, "ray_permutations", ray_permutations)
        object.__setattr__(self, "presentation", presentation)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return (self.elements, self.generators, self.fan)

    def __eq__(self, other) -> bool:
        if other.__class__ is not SymmetryGroup:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        return (SymmetryGroup, self._key() + (self.ray_permutations, self.presentation))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"SymmetryGroup({fields})"

    @classmethod
    def from_generators(cls, generators, fan: Fan | None = None) -> "SymmetryGroup":
        if not isinstance(generators, (list, tuple)) or not all(
            isinstance(g, (list, tuple)) and len(g) == 2 and all(map(is_int_pair, g))
            for g in generators
        ):
            raise SymmetryError(
                f"generators must be a list of 2x2 integer matrices, got {generators!r}"
            )
        gens = tuple(tuple(map(tuple, g)) for g in generators)
        for g in gens:
            if mat_det(g) not in (1, -1):
                raise SymmetryError(
                    f"generator {g} has determinant {mat_det(g)}, not 1 or -1"
                )
        elems = _close(gens)
        group = cls(elems, gens or (IDENTITY,), presentation=_rotation_and_reflection(elems))
        return group.attach(fan) if fan is not None else group

    def attach(self, fan: Fan) -> "SymmetryGroup":
        """Bind the group to a fan, computing the induced ray permutations."""
        index = {v: i for i, v in enumerate(fan.rays)}
        perms = {}
        for g in sorted(self.elements):
            (a, b), (c, d) = g
            images = [(a * x + b * y, c * x + d * y) for x, y in fan.rays]
            if set(images) != index.keys():
                raise NotAFanSymmetry(f"{g} does not preserve the ray set")
            perms[g] = tuple(index[w] for w in images)
        return SymmetryGroup(
            elements=self.elements,
            generators=self.generators,
            fan=fan,
            ray_permutations=perms,
            presentation=self.presentation,
        )

    def on(self, fan: Fan) -> "SymmetryGroup":
        """The group attached to `fan`: itself if it already is."""
        if self.fan == fan and self.ray_permutations is not None:
            return self
        return self.attach(fan)

    @property
    def order(self) -> int:
        return len(self.elements)

    def _permutations(self) -> list[tuple[int, ...]]:
        """The ray permutation of every element, so the images of one member
        already are its whole orbit."""
        if self.fan is None or self.ray_permutations is None:
            raise SymmetryError("group is not attached to a fan")
        return list(self.ray_permutations.values())

    def ray_orbits(self) -> list[tuple[int, ...]]:
        """Orbits of ray indices, each sorted, ordered by smallest member."""
        perms = self._permutations()
        return sorted({tuple(sorted({p[i] for p in perms})) for i in range(self.fan.n)})

    def cone_orbits(self) -> list[tuple[int, ...]]:
        """Orbits of maximal-cone indices (cone i spans rays i, i+1)."""
        perms = self._permutations()
        n = self.fan.n

        def image(p: tuple[int, ...], i: int) -> int:
            a, b = p[i], p[(i + 1) % n]
            return a if (a + 1) % n == b else b

        return sorted({tuple(sorted({image(p, i) for p in perms})) for i in range(n)})


def trivial_group(fan: Fan | None = None) -> SymmetryGroup:
    return SymmetryGroup.from_generators([], fan)


def compute_aut(fan: Fan) -> SymmetryGroup:
    """The full group of unimodular matrices permuting the ray set, attached
    to the fan and read off its lattice maps: the map sending ray k to ray
    (j + sign k) mod n has that ray permutation (checked against its images),
    the rotation (sign 1) of least positive j generates the rotations, and
    with any reflection (sign -1) it is the group's presentation."""
    n, rays = fan.n, fan.rays
    perms = {}
    r = s = None
    for j, sign, g in _shift_maps(fan, fan):
        perms[g] = perm = tuple([(j + sign * i) % n for i in range(n)])
        (a, b), (c, d) = g
        if [(a * x + b * y, c * x + d * y) for x, y in rays] != [rays[k] for k in perm]:
            raise InternalError(f"{g} does not send ray k to ray {j} + {sign}k")
        if sign == -1:
            s = g
        elif j and r is None:
            r = g
    return SymmetryGroup(frozenset(perms), _small_generating_set(perms), fan,
                         {g: perms[g] for g in sorted(perms)}, (r or IDENTITY, s))


def _powers(g: Mat2) -> list[Mat2]:
    """I, g, ..., g^(ord g - 1) for g of finite order."""
    return list(accumulate([g] * (element_order(g) - 1), mat_mul, initial=IDENTITY))


def _small_generating_set(elems) -> tuple[Mat2, ...]:
    """The first element g in (-order, matrix) order and, unless its powers
    are the group, the first element outside them: g generates a cyclic
    group, is the rotation of a dihedral group of order >= 6 (the other is a
    reflection), and any two non-identity elements generate one of order 4."""
    ordered = sorted(elems, key=lambda m: (-(element_order(m) or 0), m))
    span = _powers(ordered[0])
    if len(span) == len(elems):
        return (ordered[0],)
    return (ordered[0], next(h for h in ordered if h not in span))


def _rotation_and_reflection(elems) -> tuple[Mat2, Mat2 | None]:
    """r, a rotation (det 1) of largest order, and s, the least reflection
    (det -1) or None: a finite group is <r> or <r> with the coset <r>s.
    `elems` is accepted exactly when it is {r^k} and {r^k s} with (rs)^2 = I,
    so s r s = r^-1 and the set is closed (s, of finite order, has order 2).
    NotFinite is raised for r or s of infinite order, SymmetryError for any
    other failure, so an element set that is not a group is never labelled."""
    ordered = sorted(elems)
    r = max((g for g in ordered if mat_det(g) == 1),
            key=lambda g: element_order(g) or 0, default=IDENTITY)
    s = next((g for g in ordered if mat_det(g) == -1), None)
    for g in (r, s):
        if g is not None and element_order(g) is None:
            raise NotFinite(f"generator {g} has infinite order")
    rotations = _powers(r)
    members = set(rotations)
    if s is not None and element_order(mat_mul(r, s)) == 2:
        members.update(mat_mul(g, s) for g in rotations)
    if members != elems:
        raise SymmetryError(f"the elements are not a group: {ordered}")
    return r, s


def classify_subgroup(group) -> str:
    """Conjugacy label of a finite subgroup of GL(2,Z).

    Accepts a SymmetryGroup or a list or tuple of generator matrices, which
    go through SymmetryGroup.from_generators.  With r and s the group's
    presentation, or from _rotation_and_reflection when it has none, and m
    the order of r, the class is read off closed-form invariants:

    * no reflection: C_m;
    * m = 4 or 6: D8 or D12;
    * m <= 2: D2' or D4' when s = I mod 2 (the eigenvectors of s span Z^2),
      otherwise D2 or D4;
    * m = 3: for v a primitive vector fixed by s, the lattice spanned by v
      and r v has index 1 for D6 and 3 for D6'.

    Raises SymmetryError for generators that are not 2x2 integer matrices
    and for an element set that is not a group, and NotFinite for generators
    of infinite order.
    """
    if not isinstance(group, SymmetryGroup):
        group = SymmetryGroup.from_generators(group)
    r, s = group.presentation or _rotation_and_reflection(group.elements)
    m = element_order(r)
    if s is None:
        return f"C{m}"
    if m >= 4:
        return f"D{2 * m}"
    (a, b), (c, d) = s
    if m <= 2:
        # A reflection with even off-diagonal entries has odd diagonal ones.
        return f"D{2 * m}" + ("'" if b % 2 == c % 2 == 0 else "")
    # (b, 1 - a) and (1 - d, c) both lie in the kernel of s - I.
    v = (b, 1 - a) if (b, a) != (0, 1) else (1 - d, c)
    v = (v[0] // gcd(*v), v[1] // gcd(*v))
    return "D6" if abs(det2(v, mat_apply(r, v))) == 1 else "D6'"


def _generators(members: list[Mat2]) -> tuple[Mat2, ...]:
    """The first element, in sorted order, that generates the subgroup, or
    else the first pair with a reflection whose rotation (its rotation
    element, or the product of its two reflections) has order |H|/2."""
    for g in members:
        if element_order(g) == len(members):
            return (g,)
    for a, b in combinations(members, 2):
        if mat_det(a) == mat_det(b) == 1:
            continue
        rotation = a if mat_det(a) == 1 else b if mat_det(b) == 1 else mat_mul(a, b)
        if 2 * element_order(rotation) == len(members):
            return (a, b)
    raise UnclassifiedSubgroup(f"no generating pair for {members}")


def enumerate_subgroups(group: SymmetryGroup) -> list[SymmetryGroup]:
    """All subgroups, each with a generating set of at most two elements.

    With r and s as in classify_subgroup and m the order of r, they are, for
    each divisor d of m, the cyclic <r^(m/d)> and, when s exists, the
    dihedral <r^(m/d), r^j s> for each j < m/d, which is its presentation;
    ordered by size, then by sorted elements, with the generators of
    _generators.  A group with a fan is attached to it once, and each
    subgroup inherits its elements' ray permutations from the group.
    """
    if group.fan is not None:
        group = group.on(group.fan)
    r, s = group.presentation or _rotation_and_reflection(group.elements)
    powers = _powers(r)
    m = len(powers)
    subs = []
    for step in (m // d for d in range(1, m + 1) if m % d == 0):
        rotations, rs = powers[::step], powers[step % m]
        subs.append((sorted(rotations), (rs, None)))
        if s is not None:
            for j in range(step):
                coset = [mat_mul(g, s) for g in powers[j::step]]
                subs.append((sorted(rotations + coset), (rs, coset[0])))
    subs.sort(key=lambda sub: (len(sub[0]), sub[0]))
    perms = group.ray_permutations
    return [
        SymmetryGroup(
            elements=frozenset(members),
            generators=_generators(members),
            fan=group.fan,
            ray_permutations=None if perms is None else {h: perms[h] for h in members},
            presentation=presentation,
        )
        for members, presentation in subs
    ]
