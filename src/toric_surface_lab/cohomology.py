"""Exact cohomology of line bundles on smooth complete toric surfaces.

h0 counts the lattice points of the divisor polytope {m : <m, v_e> >= -c_e}
without enumerating them.  Facet e of the polytope has lattice length
l_e = D.D_e = a_e c_e + c_{e-1} + c_{e+1}.  While some l_e < 0 the divisor
D_e lies in the base locus (a_e < 0; lowering c_e keeps h0) or is a nef curve
D meets negatively (a_e >= 0; D is not effective).  Once every l_e >= 0, D is
nef, its higher cohomology vanishes and h0 = chi(D) (Fulton, Introduction to
Toric Varieties, ch. 3).  Each lowering strictly decreases D.H for a fixed
ample H, and an effective D has D.H >= 0, so the loop ends.

h2 comes from duality as h0 of K - D, and h1 from the Euler characteristic.
One D.H serves both sides: K - D has coefficients -1 - c_e, so
(K - D).H = K.H - D.H, with K.H = -sum H.D_e read from the same per-fan
table as the degrees H.D_e.  A side of negative degree has h0 = 0 and is
not reduced.  All arithmetic is on Python integers, and the cost grows with
the size of the coefficients, not with the area of the polytope.
"""

from __future__ import annotations

from functools import lru_cache
from operator import index, mul
from typing import NamedTuple

from .lattice_fan import Fan, FanError, self_intersections

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

    H is built from the self-intersections.  Blow down (-1)-curves on the
    sequence (delete a -1, raise both neighbours by one) until P2 or F(a)
    with a != 1 remains.  There H is a line, or the positive section plus a
    fibre.  Each blow-up on the way back replaces H by 2 pi^*H - E, which
    stays ample: the new ray gets 2(c_left + c_right) - 1 and every old
    coefficient doubles.
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
    if min(weights) <= 0:
        raise FanError(f"divisor {h} is not ample on {fan}: degrees {weights}")
    return a, weights, -sum(weights)


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
    c = [index(x) for x in coeffs]
    if len(c) != fan.n:
        raise ValueError(f"expected {fan.n} coefficients")
    a, weights, _ = _ample_weights(fan)
    degree = sum(map(mul, weights, c))  # D.H
    return _reduce(a, weights, c, degree) if degree >= 0 else 0


def line_bundle_cohomology(fan: Fan, coeffs) -> CohomologyVector:
    """Exact (h0, h1, h2) of O(D) for D = sum(c_e D_e) over the split field."""
    coeffs = tuple(map(index, coeffs))
    if len(coeffs) != fan.n:
        raise ValueError(f"expected {fan.n} coefficients")
    table = _ample_weights(fan)
    return _cohomology(table, coeffs, sum(map(mul, table[1], coeffs)))


def _cohomology(table, coeffs, degree: int) -> CohomologyVector:
    """(h0, h1, h2) of D from the fan's `_ample_weights` table, the integer
    coefficients of D (not changed) and its degree D.H."""
    a, weights, k_degree = table
    dim0 = _reduce(a, weights, list(coeffs), degree) if degree >= 0 else 0
    dual_degree = k_degree - degree  # (K - D).H
    dim2 = (
        _reduce(a, weights, [-1 - x for x in coeffs], dual_degree)
        if dual_degree >= 0
        else 0
    )
    chi = _chi(a, coeffs)
    dim1 = dim0 + dim2 - chi
    if dim1 < 0:
        raise ArithmeticError(
            f"negative h1 = {dim1} for divisor {tuple(coeffs)}: h0={dim0}, h2={dim2}, chi={chi}"
        )
    return CohomologyVector(dim0, dim1, dim2)


def ext_line_bundles(fan: Fan, first, second) -> CohomologyVector:
    """Ext groups Ext^r(O(D1), O(D2)) = H^r(O(D2 - D1))."""
    first, second = tuple(first), tuple(second)
    if len(first) != fan.n or len(second) != fan.n:
        raise ValueError(f"expected {fan.n} coefficients")
    return line_bundle_cohomology(fan, [index(b) - index(a) for a, b in zip(first, second)])
