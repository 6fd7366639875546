"""Finite symmetry of a fan: the lattice automorphisms preserving the ray set,
and classification of finite subgroups of GL(2,Z) into the 13 conjugacy
classes (cyclic C1, C2, C3, C4, C6 and dihedral D2, D2', D4, D4', D6, D6',
D8, D12).

Class representatives are generated by

    A = [[1,-1],[1,0]]   (order 6),   B = [[0,-1],[1,0]]  (quarter turn),
    C = [[0,1],[1,0]]    (swap),      C' = [[1,0],[0,-1]] (axis flip),

with C1=<I>, C2=<-I>, C3=<A^2>, C4=<B>, C6=<A>, D2=<C>, D2'=<C'>,
D4=<-I,C>, D4'=<-I,C'>, D6=<A^2,C>, D6'=<A^2,-C>, D8=<B,C>, D12=<A,C>.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache

from .intlinalg import (
    IDENTITY,
    MINUS_IDENTITY,
    Mat2,
    is_int_pair,
    mat_apply,
    mat_det,
    mat_inv,
    mat_mul,
    mat_transpose,
)
from .lattice_fan import Fan, lattice_maps

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


class SymmetryError(ValueError):
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
                        if len(elems) > _MAX_FINITE_ORDER:
                            raise NotFinite(
                                "closure exceeds the maximal finite order 12"
                            )
        frontier = new
    return frozenset(elems)


class SymmetryGroup:
    """A finite subgroup of GL(2,Z), optionally attached to a fan.

    When attached, `ray_permutations[g]` maps ray index i of the fan to the
    index of g applied to ray i.  Immutable; equality and hash ignore the
    ray permutations.
    """

    __slots__ = ("elements", "generators", "fan", "ray_permutations")

    def __init__(self, elements: frozenset[Mat2], generators: tuple[Mat2, ...],
                 fan: Fan | None = None,
                 ray_permutations: dict[Mat2, tuple[int, ...]] | None = None) -> None:
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "fan", fan)
        object.__setattr__(self, "ray_permutations", ray_permutations)

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
        return (SymmetryGroup, self._key() + (self.ray_permutations,))

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
        elems = _close(gens)
        group = cls(elements=elems, generators=gens or (IDENTITY,))
        return group.attach(fan) if fan is not None else group

    def attach(self, fan: Fan) -> "SymmetryGroup":
        """Bind the group to a fan, computing the induced ray permutations."""
        perms = {}
        for g in sorted(self.elements):
            images = [mat_apply(g, v) for v in fan.rays]
            if set(images) != set(fan.rays):
                raise NotAFanSymmetry(f"{g} does not preserve the ray set")
            perms[g] = tuple(fan.rays.index(w) for w in images)
        return SymmetryGroup(
            elements=self.elements,
            generators=self.generators,
            fan=fan,
            ray_permutations=perms,
        )

    def on(self, fan: Fan) -> "SymmetryGroup":
        """The group attached to `fan`: itself if it already is."""
        if self.fan == fan and self.ray_permutations is not None:
            return self
        return self.attach(fan)

    @property
    def order(self) -> int:
        return len(self.elements)

    def sorted_elements(self) -> list[Mat2]:
        return sorted(self.elements)

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
    """The full group of unimodular matrices permuting the ray set."""
    elems = set(lattice_maps(fan, fan))
    gens = _small_generating_set(elems)
    return SymmetryGroup(elements=frozenset(elems), generators=gens).attach(fan)


def _small_generating_set(elems) -> tuple[Mat2, ...]:
    gens: list[Mat2] = []
    span = {IDENTITY}
    for g in sorted(elems, key=lambda m: (-(element_order(m) or 0), m)):
        if g in span:
            continue
        gens.append(g)
        span = set(_close(gens))
        if len(span) == len(elems):
            break
    return tuple(gens) if gens else (IDENTITY,)


def _signature(elems) -> tuple[tuple[int, int], ...]:
    """The sorted (det, trace) pairs of the elements, a conjugation invariant."""
    return tuple(sorted((mat_det(g), g[0][0] + g[1][1]) for g in elems))


@lru_cache(maxsize=1)
def _tables_by_signature() -> dict[tuple, dict[str, frozenset[Mat2]]]:
    """The class representatives' element sets by label, grouped by signature:
    one class per signature, or one of the pairs D2/D2', D4/D4' and D6/D6',
    which only a conjugator tells apart."""
    tables: dict[tuple, dict[str, frozenset[Mat2]]] = {}
    for label, gens in TABLE_GENERATORS.items():
        elems = _close(gens)
        tables.setdefault(_signature(elems), {})[label] = elems
    return tables


@lru_cache(maxsize=16)
def _conjugator_shell(k: int) -> tuple[Mat2, ...]:
    """The GL(2,Z) matrices whose largest |entry| is k, in lexicographic order."""
    r = range(-k, k + 1)
    return tuple(
        ((a, b), (c, d)) for a in r for b in r for c in r for d in r
        if a * d - b * c in (1, -1) and max(abs(a), abs(b), abs(c), abs(d)) == k
    )


def _conjugator_pool(bound: int) -> Iterator[Mat2]:
    """The GL(2,Z) matrices with entries bounded by `bound`, small ones first:
    shell by shell in largest |entry|, each shell built when the search
    first reaches it."""
    for k in range(bound + 1):
        yield from _conjugator_shell(k)


def _invariant_form_reduction(elems) -> Mat2:
    """A unimodular U such that U^{-1} g U has small entries for all g.

    U is the Lagrange-Gauss reduction of the group-invariant positive
    definite form sum_g g^T g.
    """
    f00 = f01 = f11 = 0
    for g in elems:
        gt = mat_transpose(g)
        q = mat_mul(gt, g)
        f00 += q[0][0]
        f01 += q[0][1]
        f11 += q[1][1]
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


def _conjugate_group(elems, u: Mat2) -> frozenset[Mat2]:
    uinv = mat_inv(u)
    return frozenset(mat_mul(uinv, mat_mul(g, u)) for g in elems)


def classify_subgroup(group, conjugator_bound: int = 5) -> str:
    """Conjugacy label of a finite subgroup of GL(2,Z).

    Accepts a SymmetryGroup or an iterable of generator matrices.  The
    sorted (det, trace) pairs of the elements preselect the candidate
    classes: a single label, or one of the pairs D2/D2', D4/D4', D6/D6'.
    The group is then conjugated onto a reduced lattice basis (via its
    invariant quadratic form) and matched against the candidates'
    representatives by an exhaustive conjugator search with entries bounded
    by `conjugator_bound`, so a label is returned only together with a
    conjugator that carries the group onto its representative.

    Raises NotFinite for generators of infinite order and
    UnclassifiedSubgroup if no representative matches (which indicates a bug).
    """
    if isinstance(group, SymmetryGroup):
        elems = group.elements
    else:
        elems = _close(tuple(tuple(map(tuple, g)) for g in group))
    signature = _signature(elems)
    candidates = _tables_by_signature().get(signature)
    if not candidates:
        raise UnclassifiedSubgroup(
            f"no finite subgroup of GL(2,Z) has the (det, trace) signature {signature}"
        )
    reduced = _conjugate_group(elems, _invariant_form_reduction(elems))
    for p in _conjugator_pool(conjugator_bound):
        image = _conjugate_group(reduced, p)
        for label, table in candidates.items():
            if image == table:
                return label
    raise UnclassifiedSubgroup(
        f"conjugator search (bound {conjugator_bound}) exhausted for {sorted(elems)}"
    )


def enumerate_subgroups(group: SymmetryGroup) -> list[SymmetryGroup]:
    """All subgroups, each with a generating set of at most two elements.

    Finite subgroups of GL(2,Z) are cyclic or dihedral, so two generators
    always suffice.  Every singleton and every pair is closed inside the
    group's multiplication table, built once over the sorted elements; in a
    finite group the products of generators already form the subgroup.
    Subgroups are ordered by size, then by their sorted elements, and each
    keeps the first singleton or pair (in sorted order) that generates it.
    A group with a fan is attached to it once, if it is not already, and
    each subgroup inherits its elements' ray permutations from the group
    instead of recomputing them.
    """
    if group.fan is not None:
        group = group.on(group.fan)
    elems = group.sorted_elements()
    index = {g: i for i, g in enumerate(elems)}
    try:
        unit = index[IDENTITY]
        table = [[index[mat_mul(a, b)] for b in elems] for a in elems]
    except KeyError as exc:
        raise SymmetryError(f"the elements are not a group: {exc} is missing") from None

    def close(gens: tuple[int, ...]) -> frozenset[int]:
        reached = {unit}
        stack = [unit]
        while stack:
            row = table[stack.pop()]
            for g in gens:
                k = row[g]
                if k not in reached:
                    reached.add(k)
                    stack.append(k)
        return frozenset(reached)

    n = len(elems)
    seen: dict[frozenset[int], tuple[int, ...]] = {frozenset({unit}): ()}
    for a in range(n):
        seen.setdefault(close((a,)), (a,))
    for a in range(n):
        for b in range(a + 1, n):
            seen.setdefault(close((a, b)), (a, b))
    # Index order is matrix order, so sorting indices sorts the matrices.
    perms = group.ray_permutations
    out = []
    for sub, gens in sorted(seen.items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))):
        members = [elems[i] for i in sorted(sub)]
        out.append(SymmetryGroup(
            elements=frozenset(members),
            generators=tuple(elems[i] for i in gens) or (IDENTITY,),
            fan=group.fan,
            ray_permutations=None if perms is None else {h: perms[h] for h in members},
        ))
    return out
