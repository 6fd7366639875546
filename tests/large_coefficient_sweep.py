"""Line-bundle cohomology at coefficients up to 10^9 against the floor-sum oracle.

`oracles.floor_sum_h0` counts the lattice points of a divisor polytope by
floor sums over the pieces of its column bounds, so its cost does not grow
with the polygon, and it shares no code with the cohomology kernel.

Each seed in 0 .. SEEDS-1 draws one blow-up chain of 17-24 rays
(`oracles.chain_of_17_to_24_rays`) in a random lattice basis and 20
divisors D with each c_e in [-B/8, B], B = 10^3, 10^6 or 10^9 in turn, and
every other one negated: mostly effective divisors whose walks lower
coefficients by up to about B at a time.  Then `oracles.ci_fan(256)` gets
20 divisors t H + r (or K minus one), for an ample H with coefficients h,
t up to 10^9/max|h| and each |r_e| <= t; the noise r leaves them not nef
(h1 != 0 on 200 of 200 such draws), so their walks lower too.  For each D,
(h0, h2) of `line_bundle_cohomology` must equal `floor_sum_h0` of D and
K - D, and h0 - h1 + h2 must equal chi(D) from the Picard lattice.

    PYTHONPATH=src:tests python tests/large_coefficient_sweep.py 500

prints the number of (D, K - D) pairs and the pairs per second, and exits 1
at the first mismatch.  Positive draws on `ci_fan(256)` itself are left
out: the kernel's walk takes seconds to minutes on them (8 s at B = 10^6,
84 s at B = 10^9, on a 2-core machine), and so does t H + r once |r_e|
reaches 10^6.
"""

from __future__ import annotations

import random
import sys
import time

from oracles import chain_of_17_to_24_rays, ci_fan, floor_sum_h0, random_basis

from toric_surface_lab.cohomology import _ample_weights, line_bundle_cohomology
from toric_surface_lab.grothendieck import picard


def ample_coefficients(fan) -> list[int]:
    """Coefficients of the ample divisor whose polygon has the edge lengths
    of `_ample_weights`: walk its vertices, edge e along (v_y, -v_x)."""
    x = y = 0
    coeffs = []
    for (vx, vy), length in zip(fan.rays, _ample_weights(fan)[1]):
        coeffs.append(-(x * vx + y * vy))
        x, y = x + length * vy, y - length * vx
    return coeffs


def mismatch(fan, lat, d) -> str | None:
    h = line_bundle_cohomology(fan, d)
    want = (floor_sum_h0(fan, d), floor_sum_h0(fan, [-1 - c for c in d]),
            lat.chi(lat.divisor_coords(d)))
    if (h.h0, h.h2, h.euler) != want:
        return (f"D = {d} on {fan.rays} gave (h0, h2, chi) = {(h.h0, h.h2, h.euler)}, "
                f"the oracles {want}")
    return None


def draws(seeds: int):
    """(label, fan, lattice, divisor) for every pair of the sweep."""
    for seed in range(seeds):
        rng = random.Random(seed)
        entry = chain_of_17_to_24_rays(rng)
        fan, _ = random_basis(rng, entry.fan, entry.group)
        lat = picard(fan)
        for j in range(20):
            bound = 10 ** (3 + 3 * (j % 3))
            d = tuple(rng.randint(-bound // 8, bound) for _ in range(fan.n))
            yield f"seed {seed}", fan, lat, d if j % 2 == 0 else tuple(-c for c in d)
    rng = random.Random(seeds)
    fan = ci_fan(256)
    lat, h = picard(fan), ample_coefficients(fan)
    for j in range(20):
        t = rng.randint(1, 10**9 // max(map(abs, h)))
        d = tuple(t * x + rng.randint(-t, t) for x in h)
        yield "ci_fan(256)", fan, lat, d if j % 2 == 0 else tuple(-1 - c for c in d)


def main(argv: list[str]) -> int:
    seeds = int(argv[0])
    count = 0
    start = time.perf_counter()
    for label, fan, lat, d in draws(seeds):
        problem = mismatch(fan, lat, d)
        if problem is not None:
            print(f"{label}: {problem}")
            return 1
        count += 1
    wall = time.perf_counter() - start
    print(f"{count} (D, K - D) pairs over {seeds} seeds and ci_fan(256) with |c| up to 10^9 "
          f"in {wall:.1f} s ({count / wall:.0f} pairs/s): line_bundle_cohomology matches "
          "floor_sum_h0 and the Picard lattice's chi")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
