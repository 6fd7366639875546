"""Smooth complete fans in Z^2 and their birational surgery.

A fan is stored as the cyclically ordered tuple of primitive ray generators,
counterclockwise, rotated so the ray of smallest angle from (1, 0) comes
first.  Maximal cones are the consecutive ray pairs.  All operations are pure
and return new fans.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache
from math import gcd

from .intlinalg import (
    Mat2,
    Vec,
    columns_to_matrix,
    det2,
    is_int_pair,
    mat_apply,
    mat_inv,
    mat_mul,
)

__all__ = [
    "Fan",
    "FanError",
    "NonPrimitiveRay",
    "NotCounterclockwise",
    "NotSmooth",
    "NotComplete",
    "TooFewRays",
    "InvalidConeIndex",
    "NotMinusOneCurve",
    "AdjacentContraction",
    "validate_fan",
    "self_intersections",
    "blow_up",
    "blow_down",
    "lattice_maps",
    "fans_isomorphic",
    "apply_matrix",
    "p2_fan",
    "hirzebruch_fan",
    "square_fan",
    "dp6_fan",
]


class FanError(ValueError):
    """Base class for fan construction/surgery failures."""


class NonPrimitiveRay(FanError):
    pass


class NotCounterclockwise(FanError):
    pass


class NotSmooth(FanError):
    pass


class NotComplete(FanError):
    pass


class TooFewRays(FanError):
    pass


class InvalidConeIndex(FanError):
    pass


class NotMinusOneCurve(FanError):
    pass


class AdjacentContraction(FanError):
    pass


def _angle_half(v: Vec) -> int:
    """0 for the closed upper half-turn starting at (1,0), 1 for the rest."""
    x, y = v
    return 0 if (y > 0 or (y == 0 and x > 0)) else 1


def _angle_before(v: Vec, w: Vec) -> bool:
    """Strict counterclockwise angle order from (1, 0), for distinct rays."""
    hv, hw = _angle_half(v), _angle_half(w)
    if hv != hw:
        return hv < hw
    return det2(v, w) > 0


class Fan:
    """Counterclockwise primitive rays of a smooth complete fan in Z^2.

    Immutable.  The hash of the rays is computed once, at construction: the
    lru caches keyed by the fan look it up on every call.
    """

    __slots__ = ("rays", "_hash")

    def __init__(self, rays: tuple[Vec, ...]) -> None:
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "_hash", hash(rays))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if other.__class__ is not Fan:
            return NotImplemented
        return self.rays == other.rays

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Pickle and copy rebuild from the rays, so the hash is recomputed.
        return (Fan, (self.rays,))

    @property
    def n(self) -> int:
        return len(self.rays)

    def cones(self) -> tuple[tuple[int, int], ...]:
        """Maximal cones as (i, i+1) ray-index pairs, cyclically."""
        n = self.n
        return tuple((i, (i + 1) % n) for i in range(n))

    def __repr__(self) -> str:
        return f"Fan({list(map(list, self.rays))})"


def validate_fan(raw_rays) -> Fan:
    """Check and canonicalize a ray list into a smooth complete fan.

    Raises FanError unless raw_rays is a list or tuple, NonPrimitiveRay for
    an entry that is not a pair of ints (bools and floats included) or not
    primitive, and NotCounterclockwise, NotSmooth, NotComplete or
    TooFewRays; on success rotates the list so the ray of least
    counterclockwise angle from (1, 0) comes first.
    """
    if not isinstance(raw_rays, (list, tuple)):
        raise FanError(f"rays must be a list of integer pairs, got {raw_rays!r}")
    rays = []
    for v in raw_rays:
        if not is_int_pair(v):
            raise NonPrimitiveRay(f"rays must be integer pairs, got {v!r}")
        rays.append(tuple(v))
    if len(rays) < 3:
        raise TooFewRays(f"a complete fan needs at least 3 rays, got {len(rays)}")
    for v in rays:
        if v == (0, 0) or gcd(abs(v[0]), abs(v[1])) != 1:
            raise NonPrimitiveRay(f"ray {v} is not a primitive vector")
    n = len(rays)
    for i in range(n):
        d = det2(rays[i], rays[(i + 1) % n])
        if d <= 0:
            raise NotCounterclockwise(
                f"rays {rays[i]}, {rays[(i + 1) % n]} do not turn counterclockwise"
            )
        if d != 1:
            raise NotSmooth(
                f"cone ({rays[i]}, {rays[(i + 1) % n]}) has determinant {d}"
            )
    # Every step turns by less than pi, so the winding number equals the
    # number of wrap-arounds in the canonical angle order.
    descents = sum(
        1 for i in range(n) if not _angle_before(rays[i], rays[(i + 1) % n])
    )
    if descents != 1:
        raise NotComplete(f"ray sequence winds {descents} times, expected 1")
    first = 0
    for i in range(1, n):
        if _angle_before(rays[i], rays[first]):
            first = i
    return Fan(tuple(rays[first:] + rays[:first]))


@lru_cache(maxsize=256)
def self_intersections(fan: Fan) -> tuple[int, ...]:
    """Self-intersection numbers a_i of the ray divisors.

    Computed from the wall relation v_{i-1} + v_{i+1} = -a_i * v_i, which
    holds in any smooth complete fan.
    """
    rays = fan.rays
    n = len(rays)
    out = []
    for i in range(n):
        w = (
            rays[i - 1][0] + rays[(i + 1) % n][0],
            rays[i - 1][1] + rays[(i + 1) % n][1],
        )
        v = rays[i]
        if v[0] != 0:
            c, rem = divmod(w[0], v[0])
        else:
            c, rem = divmod(w[1], v[1])
        if rem != 0 or (c * v[0], c * v[1]) != w:
            raise FanError(f"wall relation fails at ray {v}: {w} not a multiple")
        out.append(-c)
    total = sum(out)
    if total != 12 - 3 * n:
        raise FanError(
            f"self-intersection sum {total} != {12 - 3 * n} (Noether check)"
        )
    return tuple(out)


def blow_up(fan: Fan, cone_indices) -> Fan:
    """Insert the ray v_i + v_{i+1} into each selected maximal cone."""
    picked = set(cone_indices)
    n = fan.n
    for c in picked:
        if not isinstance(c, int) or not 0 <= c < n:
            raise InvalidConeIndex(f"cone index {c} out of range 0..{n - 1}")
    new_rays: list[Vec] = []
    for i, v in enumerate(fan.rays):
        new_rays.append(v)
        if i in picked:
            w = fan.rays[(i + 1) % n]
            new_rays.append((v[0] + w[0], v[1] + w[1]))
    return validate_fan(new_rays)


def blow_down(fan: Fan, ray_indices) -> Fan:
    """Remove the selected (-1)-rays; inverse of blow_up."""
    picked = sorted(set(ray_indices))
    n = fan.n
    a = self_intersections(fan)
    for i in picked:
        if not 0 <= i < n:
            raise InvalidConeIndex(f"ray index {i} out of range 0..{n - 1}")
        if a[i] != -1:
            raise NotMinusOneCurve(
                f"ray {fan.rays[i]} has self-intersection {a[i]}, not -1"
            )
    chosen = set(picked)
    for i in picked:
        if (i + 1) % n in chosen:
            raise AdjacentContraction(
                f"rays {fan.rays[i]} and {fan.rays[(i + 1) % n]} are adjacent"
            )
    return validate_fan([v for i, v in enumerate(fan.rays) if i not in chosen])


def apply_matrix(m: Mat2, fan: Fan) -> Fan:
    """The image fan under a unimodular matrix (rays re-canonicalized).

    A determinant -1 matrix reverses the cyclic order, so the image list is
    flipped back to counterclockwise before validation.
    """
    images = [mat_apply(m, v) for v in fan.rays]
    if m[0][0] * m[1][1] - m[0][1] * m[1][0] < 0:
        images.reverse()
    return validate_fan(images)


def lattice_maps(f1: Fan, f2: Fan) -> Iterator[Mat2]:
    """Each unimodular matrix carrying the ray set of f1 onto that of f2.

    Such a map sends the basis v_0, v_1 to some w_j, w_{j+-1} and, by the
    wall relations v_{k-1} + v_{k+1} = -a_k v_k, each v_k to w_{j+-k}: a
    candidate is a map exactly when the self-intersections agree along it.
    Candidates come for j = 0..n-1, the next neighbour first.
    """
    n = f1.n
    if f2.n != n:
        return
    a1, a2 = self_intersections(f1), self_intersections(f2)
    vinv = mat_inv(columns_to_matrix(f1.rays[0], f1.rays[1]))
    for j in range(n):
        for s in (1, -1):
            if all(a1[k] == a2[(j + s * k) % n] for k in range(n)):
                w0, w1 = f2.rays[j], f2.rays[(j + s) % n]
                yield mat_mul(columns_to_matrix(w0, w1), vinv)


def fans_isomorphic(f1: Fan, f2: Fan) -> Mat2 | None:
    """A unimodular matrix carrying the ray set of f1 onto that of f2, if any."""
    return next(lattice_maps(f1, f2), None)


def p2_fan() -> Fan:
    return validate_fan([(1, 0), (0, 1), (-1, -1)])


def hirzebruch_fan(a: int) -> Fan:
    """Fan of the ruled surface with a section of self-intersection -a."""
    if a < 0:
        raise ValueError("a must be nonnegative")
    return validate_fan([(1, 0), (0, 1), (-1, a), (0, -1)])


def square_fan() -> Fan:
    return hirzebruch_fan(0)


def dp6_fan() -> Fan:
    """Hexagonal fan: the three-point toric blow-up of the plane."""
    return validate_fan([(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)])
