"""Exact integer linear algebra helpers: 2x2 unimodular arithmetic, Hermite
reduction and determinants.

Everything here works on plain Python ints (arbitrary precision), tuples for
2x2 matrices and lists of lists for general matrices.  No floating point.
"""

from __future__ import annotations


Vec = tuple[int, int]
Mat2 = tuple[Vec, Vec]

IDENTITY: Mat2 = ((1, 0), (0, 1))
MINUS_IDENTITY: Mat2 = ((-1, 0), (0, -1))


def is_int_pair(value) -> bool:
    """A list or tuple of two ints; bools and floats do not count as ints."""
    return (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and type(value[0]) is int
        and type(value[1]) is int
    )


def det2(a: Vec, b: Vec) -> int:
    """Determinant of the 2x2 matrix with columns a, b."""
    return a[0] * b[1] - a[1] * b[0]


def mat_det(m: Mat2) -> int:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def mat_mul(a: Mat2, b: Mat2) -> Mat2:
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def mat_inv(m: Mat2) -> Mat2:
    """Inverse of a unimodular 2x2 integer matrix."""
    d = mat_det(m)
    if d not in (1, -1):
        raise ValueError(f"matrix {m} is not unimodular (det {d})")
    return (
        (m[1][1] * d, -m[0][1] * d),
        (-m[1][0] * d, m[0][0] * d),
    )


def mat_apply(m: Mat2, v: Vec) -> Vec:
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def columns_to_matrix(c0: Vec, c1: Vec) -> Mat2:
    return ((c0[0], c1[0]), (c0[1], c1[1]))


def solve2(a: Vec, b: Vec, rhs: Vec) -> Vec:
    """Integer solution m of <m, a> = rhs[0], <m, b> = rhs[1] for a basis (a, b)."""
    d = det2(a, b)
    if d not in (1, -1):
        raise ValueError(f"({a}, {b}) is not a lattice basis")
    # m * [a b] = rhs, so m = rhs * [a b]^{-1} with columns a, b.
    inv = mat_inv(columns_to_matrix(a, b))
    return (rhs[0] * inv[0][0] + rhs[1] * inv[1][0], rhs[0] * inv[0][1] + rhs[1] * inv[1][1])


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss).

    Step k rewrites each row below the pivot with one list comprehension over
    the trailing columns k+1..n-1; the columns up to k are never read again.
    A negative pivot row is negated first (the sign is kept aside), so that
    pivots that differ only in sign count as equal.  A row whose column-k
    entry is 0 is left as it is when the pivot equals the previous pivot:
    the division is exact, and the row would not change.
    """
    n = len(rows)
    if n == 0:
        return 1
    a = [list(map(int, r)) for r in rows]
    sign = prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        p, top = a[k][k], a[k][k + 1:]
        if p < 0:
            p, top, sign = -p, [-y for y in top], -sign
        for row in a[k + 1:]:
            f = row[k]
            if f or p != prev:
                row[k + 1:] = [(x * p - f * y) // prev for x, y in zip(row[k + 1:], top)]
        prev = p
    return sign * a[n - 1][n - 1]


def hermite_pivots(rows: list[list[int]]) -> list[int]:
    """Pivot entries of the row Hermite form of an integer matrix.

    The number of pivots is the rank; if the rank equals the number of
    columns, the product of pivots is the index of the row lattice in Z^n.
    """
    a = [list(map(int, r)) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    pivots = []
    row = 0
    for col in range(n):
        nonzero = [i for i in range(row, m) if a[i][col] != 0]
        if not nonzero:
            continue
        # Euclid on the column entries below `row`.
        while len(nonzero) > 1:
            nonzero.sort(key=lambda i: abs(a[i][col]))
            i0 = nonzero[0]
            for i in nonzero[1:]:
                q = a[i][col] // a[i0][col]
                for j in range(n):
                    a[i][j] -= q * a[i0][j]
            nonzero = [i for i in nonzero if a[i][col] != 0]
        i0 = nonzero[0]
        a[row], a[i0] = a[i0], a[row]
        if a[row][col] < 0:
            a[row] = [-x for x in a[row]]
        pivots.append(a[row][col])
        row += 1
        if row == m:
            break
    return pivots
