"""Differential sweeps above the acceptance cap: a table of rows, one runner.

A row draws its inputs once per seed, and each of its checks compares a fast
path of the library with an independent oracle of `oracles.py` on the draw.
`validate` draws the ray lists of `oracles.validate_fan_inputs` (seeds
0-99); `chains` draws a 17-24-ray chain in a random lattice basis and two
families of 20 divisors (seeds 0-999), then a near-ample tail (seed 1000).

    PYTHONPATH=src:tests python tests/sweeps.py

prints one line per check with its count, wall time and rate, and exits 1 at
the first mismatch, naming the row, the seed and the check.  Tier-1 runs
both rows at seed 0, and the cohomology and collection checks on 100 more
chains (`test_derived.py`).
"""

from __future__ import annotations

import random
import time
from functools import lru_cache, partial
from typing import Callable, NamedTuple

import oracles

from toric_surface_lab.cohomology import _ample_weights, line_bundle_cohomology
from toric_surface_lab.corpus import standard_corpus
from toric_surface_lab.derived import verify_collection
from toric_surface_lab.grothendieck import picard, verify_klyachko
from toric_surface_lab.intlinalg import bareiss_det
from toric_surface_lab.lattice_fan import Fan, validate_fan
from toric_surface_lab.symmetry import (
    SymmetryGroup,
    classify_subgroup,
    compute_aut,
    enumerate_subgroups,
)

TAIL = 1000  # the chains row's seed of the near-ample tail, after the chains


class Chain(NamedTuple):
    fan: Fan
    group: SymmetryGroup | None  # None on the tail
    small: tuple[tuple[int, ...], ...]
    large: tuple[tuple[int, ...], ...]


def chain(seed: int) -> Chain:
    """The chain, and each divisor family from its own copy of the generator
    after the basis: |c| <= 6, or c_e in [-B/8, B] with B = 10^3, 10^6 or
    10^9 in turn and every other divisor negated."""
    rng = random.Random(seed)
    entry = oracles.chain_of_17_to_24_rays(rng)
    fan, group = oracles.random_basis(rng, entry.fan, entry.group)
    state = rng.getstate()
    small = tuple(tuple(rng.randint(-6, 6) for _ in range(fan.n)) for _ in range(20))
    rng.setstate(state)
    large = []
    for j in range(20):
        bound = 10 ** (3 + 3 * (j % 3))
        d = tuple(rng.randint(-bound // 8, bound) for _ in range(fan.n))
        large.append(d if j % 2 == 0 else tuple(-c for c in d))
    return Chain(fan, group, small, tuple(large))


def chain_draw(seed: int) -> Chain:
    """`chain(seed)`, or at TAIL 20 divisors t H + r on `ci_fan(256)` (every
    other one K minus it), H ample with coefficients h, t <= 10^9/max|h| and
    |r_e| <= t: not nef, so their walks lower too.  Positive draws there are
    left out: one walk takes 8 s at |c| <= 10^6, 84 s at 10^9 (2 cores)."""
    if seed != TAIL:
        return chain(seed)
    fan, rng = oracles.ci_fan(256), random.Random(seed)
    x = y = 0
    h = []  # walk the polygon of H, edge e along (v_y, -v_x)
    for (vx, vy), length in zip(fan.rays, _ample_weights(fan)[1]):
        h.append(-(x * vx + y * vy))
        x, y = x + length * vy, y - length * vx
    large = []
    for j in range(20):
        t = rng.randint(1, 10**9 // max(map(abs, h)))
        d = tuple(t * c + rng.randint(-t, t) for c in h)
        large.append(d if j % 2 == 0 else tuple(-1 - c for c in d))
    return Chain(fan, None, (), tuple(large))


def mismatch(fan: Fan, d, h0_oracle) -> str | None:
    """Why `line_bundle_cohomology` fails at D, or None: its h0 and h2
    against `h0_oracle` of D and K - D, and h0 - h1 + h2 against chi(D)."""
    lat, h = picard(fan), line_bundle_cohomology(fan, d)
    got = (h.h0, h.h2, h.euler)
    want = (h0_oracle(fan, d), h0_oracle(fan, [-1 - c for c in d]),
            lat.chi(lat.divisor_coords(d)))
    return None if got == want else f"D = {d} on {fan.rays}: (h0, h2, chi) {got}, oracles {want}"


def pairs(fan: Fan, divisors, h0_oracle) -> int:
    for d in divisors:
        problem = mismatch(fan, d, h0_oracle)
        assert problem is None, problem
    return len(divisors)


def collection(fan: Fan, group: SymmetryGroup) -> int:
    """`verify_collection`, with and without the basis certificate, against
    `pairwise_verify_collection`, in both orders."""
    coll, basis = oracles.certified_pair(fan, group)
    for c in (coll, coll.reversed()):
        want = oracles.pairwise_verify_collection(c, group)
        assert verify_collection(c, group) == want == verify_collection(c, group, basis), c
    return 2


def k0(fan: Fan, group: SymmetryGroup) -> int:
    cert = verify_klyachko(fan)
    assert cert.ok, cert
    assert cert == oracles.pairwise_klyachko(fan) == oracles.band_product_klyachko(fan), cert
    return 1


def bareiss(fan: Fan, group: SymmetryGroup) -> int:
    for rows in oracles.report_matrices(fan, group):
        assert bareiss_det(rows) == oracles.triple_loop_bareiss(rows), rows
    return 2


def symmetry(fan: Fan, group: SymmetryGroup) -> int:
    aut = compute_aut(fan)
    assert set(aut.elements) == set(oracles.candidate_filter_maps(fan, fan)), fan
    subs = enumerate_subgroups(aut)
    assert subs == oracles.closure_subgroups(aut), fan
    for sub in (*subs, group):
        assert classify_subgroup(sub) == oracles.loop_classify(sub), sub
    return len(subs)


def per_chain(check: Callable[[Fan, SymmetryGroup], int]) -> Callable[[Chain], int]:
    """A check of the chain and its group, which the tail skips."""
    return lambda draw: 0 if draw.group is None else check(draw.fan, draw.group)


@lru_cache(maxsize=None)
def corpus_fans() -> frozenset[Fan]:
    return frozenset(e.fan for e in standard_corpus(max_rays=16))


def validate(inputs: list) -> int:
    for rays in inputs:
        got = oracles.validate_outcome(validate_fan, rays)
        want = oracles.validate_outcome(oracles.angle_order_validate_fan, rays)
        assert got == want, f"{rays!r} gave {got!r}, the oracle {want!r}"
    return len(inputs)


class Check(NamedTuple):
    name: str
    unit: str  # what its count counts
    run: Callable  # one draw's count; raises at a mismatch


class Row(NamedTuple):
    name: str
    seeds: range
    draw: Callable[[int], object]
    checks: tuple[Check, ...]


ROWS = (
    Row("validate", range(100), lambda seed: oracles.validate_fan_inputs(corpus_fans(), seed), (
        Check("validate_fan against angle_order_validate_fan", "ray lists", validate),)),
    Row("chains", range(TAIL + 1), chain_draw, (
        Check("cohomology, |c| <= 6, against column_h0", "pairs",
              lambda draw: pairs(draw.fan, draw.small, oracles.column_h0)),
        Check("cohomology, |c| up to 10^9, against floor_sum_h0", "pairs",
              lambda draw: pairs(draw.fan, draw.large, oracles.floor_sum_h0)),
        Check("h0 under the doubling ample class, |c| <= 6", "pairs", lambda draw: pairs(
            draw.fan, draw.small, partial(oracles.walk_h0, table=oracles.doubling_ample_weights))),
        Check("K0 against pairwise_klyachko and band_product_klyachko", "chains", per_chain(k0)),
        Check("bareiss_det against triple_loop_bareiss", "matrices", per_chain(bareiss)),
        Check("contraction and pullback against the stepwise oracles", "classes",
              per_chain(oracles.check_each_class)),
        Check("compute_aut, enumerate_subgroups and classify_subgroup against "
              "candidate_filter_maps, closure_subgroups and loop_classify", "subgroups",
              per_chain(symmetry)),
        Check("collection against pairwise_verify_collection", "collections",
              per_chain(collection)),
    )),
)


def run(rows) -> None:
    """Every check of every row on each of its draws, then one line per
    check; at the first mismatch, the row, the seed and the check, and the
    exception."""
    for row in rows:
        counts, times = [0] * len(row.checks), [0.0] * len(row.checks)
        for seed in row.seeds:
            draw = row.draw(seed)
            for k, check in enumerate(row.checks):
                start = time.perf_counter()
                try:
                    counts[k] += check.run(draw)
                except Exception:
                    print(f"{row.name}, seed {seed}: {check.name}", flush=True)
                    raise
                times[k] += time.perf_counter() - start
        for check, count, wall in zip(row.checks, counts, times):
            print(f"{row.name:8} {count:7} {check.unit:11} {wall:6.2f} s {count / wall:7.0f}/s  "
                  f"{check.name}", flush=True)


if __name__ == "__main__":
    run(ROWS)
