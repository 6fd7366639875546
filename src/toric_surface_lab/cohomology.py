"""Exact cohomology of line bundles on smooth complete toric surfaces.

h0 counts the lattice points of the divisor polytope {m : <m, v_e> >= -c_e}
without enumerating them.  Facet e of the polytope has lattice length
l_e = D.D_e = a_e c_e + c_{e-1} + c_{e+1}.  While some l_e < 0 the divisor
D_e lies in the base locus (a_e < 0; lowering c_e keeps h0) or is a nef curve
D meets negatively (a_e >= 0; D is not effective).  Once every l_e >= 0, D is
nef, its higher cohomology vanishes and h0 = chi(D) (Fulton, Introduction to
Toric Varieties, ch. 3).  Each lowering strictly decreases D.H for the ample
H of a closing relation sum H.D_e v_e = 0 (see `_ample_weights`), and an
effective D has D.H >= 0, so the loop ends.

h2 comes from duality as h0 of K - D, and h1 = h0 + h2 - chi(D) from the
caller's chi(D): the closed form `_chi`, the Ext scan's O(1) Riemann-Roch
per pair, or the Picard lattice's `_euler` in the report's spot check.
One D.H serves both sides: K - D has coefficients -1 - c_e, so
(K - D).H = K.H - D.H, with K.H = -sum H.D_e read from the same per-fan
table as the degrees H.D_e.  A side of negative degree has h0 = 0 and is
not reduced.  All arithmetic is on Python integers, and the cost grows with
the size of the coefficients, not with the area of the polytope.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul, sub
from typing import NamedTuple

from .intlinalg import det2
from .lattice_fan import Fan, divisor, self_intersections

__all__ = ["CohomologyVector", "line_bundle_cohomology", "ext_line_bundles", "h0"]


class CohomologyVector(NamedTuple):
    h0: int
    h1: int
    h2: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.h0, self.h1, self.h2)

    @property
    def euler(self) -> int:
        return self.h0 - self.h1 + self.h2


@lru_cache(maxsize=256)
def _ample_weights(fan: Fan) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """The per-fan table (a, weights, k_degree): the self-intersections a_e,
    the degrees H.D_e of an ample divisor H, and K.H = -sum H.D_e.

    H comes from a closing relation.  Positive integers l_e with
    sum l_e v_e = 0 are the edge lengths of a lattice polygon whose normal
    fan is this fan, and l_e = H.D_e for its ample divisor H (Fulton,
    Introduction to Toric Varieties, section 3.4).  Every ray gets l_e = 1;
    then t = -sum v_e, in the smooth cone (u, w) that holds it, is
    det(t, w) u + det(u, t) w with both coordinates >= 0, and they are added
    to l_u and l_w.
    """
    rays = fan.rays
    n = fan.n
    t = (-sum(v[0] for v in rays), -sum(v[1] for v in rays))
    weights = [1] * n
    for i in range(n):
        u, w = rays[i], rays[(i + 1) % n]
        if det2(u, t) >= 0 and det2(t, w) >= 0:
            weights[i] += det2(t, w)
            weights[(i + 1) % n] += det2(u, t)
            break
    return self_intersections(fan), tuple(weights), -sum(weights)


def _chi(a, c) -> int:
    """chi(D) = 1 + (D.D - K.D)/2 from the ray coefficients, in O(n).

    D.D = sum a_i c_i^2 + 2 sum c_i c_{i-1} and -K.D = sum (a_i + 2) c_i.
    """
    twice = 0
    prev = c[-1]
    for ai, x in zip(a, c):
        twice += x * (ai * x + 2 * prev + ai + 2)
        prev = x
    return 1 + twice // 2


def _reduce(a, weights, c: list[int], degree: int) -> int:
    """h0 of D = sum c_e D_e with D.H = degree >= 0; lowers `c` in place.

    Walk the rays cyclically until n facet lengths in a row are >= 0.
    """
    n = len(c)
    i = clean = 0
    while clean < n:
        length = a[i] * c[i] + c[i - 1] + c[(i + 1) % n]
        if length >= 0:
            clean += 1
        elif a[i] >= 0:
            return 0
        else:
            k = -(length // -a[i])  # least k with length - k a_i >= 0
            c[i] -= k
            degree -= k * weights[i]
            if degree < 0:
                return 0
            clean = 1
        i = (i + 1) % n
    return _chi(a, c)


def h0(fan: Fan, coeffs) -> int:
    """Number of lattice points m with <m, v_e> >= -c_e for every ray."""
    return line_bundle_cohomology(fan, coeffs).h0


def line_bundle_cohomology(fan: Fan, coeffs) -> CohomologyVector:
    """Exact (h0, h1, h2) of O(D) for D = sum(c_e D_e) over the split field."""
    coeffs = divisor(fan, coeffs)
    a, weights, _ = table = _ample_weights(fan)
    return _cohomology(table, coeffs, sum(map(mul, weights, coeffs)), _chi(a, coeffs))


def _cohomology(table, coeffs, degree: int, chi: int) -> CohomologyVector:
    """(h0, h0 + h2 - chi, h2) of D from the fan's `_ample_weights` table,
    the integer coefficients of D (not changed), its degree D.H and chi(D):
    the closed form `_chi`, the Ext scan's O(1) Riemann-Roch, or the Picard
    lattice in the report's spot check."""
    a, weights, k_degree = table
    dim0 = _reduce(a, weights, list(coeffs), degree) if degree >= 0 else 0
    dual_degree = k_degree - degree  # (K - D).H
    dim2 = (
        _reduce(a, weights, [-1 - x for x in coeffs], dual_degree)
        if dual_degree >= 0
        else 0
    )
    dim1 = dim0 + dim2 - chi
    if dim1 < 0:
        raise ArithmeticError(
            f"negative h1 = {dim1} for divisor {tuple(coeffs)}: h0={dim0}, h2={dim2}, chi={chi}"
        )
    return CohomologyVector(dim0, dim1, dim2)


def ext_line_bundles(fan: Fan, first, second) -> CohomologyVector:
    """Ext groups Ext^r(O(D1), O(D2)) = H^r(O(D2 - D1))."""
    return line_bundle_cohomology(fan, map(sub, divisor(fan, second), divisor(fan, first)))
