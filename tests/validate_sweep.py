"""`validate_fan` against `oracles.angle_order_validate_fan` over many seeds.

Each seed in 0 .. SEEDS-1 builds the ray lists of `oracles.validate_fan_inputs`
from the distinct fans of `standard_corpus(max_rays=16)`: 2,322 lists per
seed.  Each must give the same Fan, or the same exception type and message,
from both.

    PYTHONPATH=src:tests python tests/validate_sweep.py 100

prints the number of inputs and exits 1 at the first mismatch.  Tier-1 runs
seed 53 (`test_lattice_fan.py::TestValidate::test_matches_angle_order_oracle`).
"""

from __future__ import annotations

import sys

from oracles import angle_order_validate_fan, validate_fan_inputs, validate_outcome

from toric_surface_lab.corpus import standard_corpus
from toric_surface_lab.lattice_fan import validate_fan


def main(argv: list[str]) -> int:
    seeds = int(argv[0])
    fans = {e.fan for e in standard_corpus(max_rays=16)}
    count = 0
    for seed in range(seeds):
        for rays in validate_fan_inputs(fans, seed):
            got = validate_outcome(validate_fan, rays)
            want = validate_outcome(angle_order_validate_fan, rays)
            if got != want:
                print(f"seed {seed}: {rays!r} gave {got!r}, the oracle {want!r}")
                return 1
            count += 1
    print(f"{count} inputs over {seeds} seeds and {len(fans)} fans: validate_fan matches "
          "angle_order_validate_fan")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
