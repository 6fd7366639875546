"""Line-bundle cohomology against oracles that share no code with the kernel.

Each seed in 0 .. SEEDS-1 draws one blow-up chain of 17-24 rays
(`oracles.chain_of_17_to_24_rays`) in a random lattice basis and 20 divisors
D with |c| <= 6.  For each D, (h0, h2) of `line_bundle_cohomology` must equal
the column counts `oracles.column_h0` of D and K - D, and h0 - h1 + h2 must
equal chi(D) from the Picard lattice.

    PYTHONPATH=src:tests python tests/cohomology_sweep.py 1000

prints the number of (D, K - D) pairs and exits 1 at the first mismatch.
Tier-1 makes the same draw from 100 seeds that hypothesis picks, and checks
the collection certificate too
(`test_derived.py::test_differential_slice_on_chains_of_17_to_24_rays`).
"""

from __future__ import annotations

import random
import sys

from oracles import chain_of_17_to_24_rays, column_h0, random_basis

from toric_surface_lab.cohomology import line_bundle_cohomology
from toric_surface_lab.grothendieck import picard


def main(argv: list[str]) -> int:
    seeds = int(argv[0])
    count = 0
    for seed in range(seeds):
        rng = random.Random(seed)
        entry = chain_of_17_to_24_rays(rng)
        fan, _ = random_basis(rng, entry.fan, entry.group)
        lat = picard(fan)
        for _ in range(20):
            d = tuple(rng.randint(-6, 6) for _ in range(fan.n))
            h = line_bundle_cohomology(fan, d)
            want = (column_h0(fan, d), column_h0(fan, [-1 - c for c in d]),
                    lat.chi(lat.divisor_coords(d)))
            if (h.h0, h.h2, h.euler) != want:
                print(f"seed {seed}: D = {d} on {fan.rays} gave (h0, h2, chi) = "
                      f"{(h.h0, h.h2, h.euler)}, the oracles {want}")
                return 1
            count += 1
    print(f"{count} (D, K - D) pairs over {seeds} seeds: line_bundle_cohomology matches "
          "column_h0 and the Picard lattice's chi")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
