"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
The shared corpus consists of the minimal seed pairs of all 13 group classes,
every one-step equivariant blow-up of them (up to 12 rays), and 200 seeded
random equivariant chains of depth at most 3.
"""

import itertools
import random
import time

import pytest

from oracles import chamber_cohomology

from toric_surface_lab.cohomology import line_bundle_cohomology
from toric_surface_lab.corpus import standard_corpus, subgroup_with_label
from toric_surface_lab.derived import build_collection, verify_collection
from toric_surface_lab.grothendieck import (
    fa_recurrence_check,
    picard,
    standard_permutation_basis,
    verify_klyachko,
    verify_permutation_basis,
)
from toric_surface_lab.intlinalg import mat_inv, mat_mul
from toric_surface_lab.lattice_fan import (
    dp6_fan,
    hirzebruch_fan,
    p2_fan,
    self_intersections,
    square_fan,
)
from toric_surface_lab.minimal_model import (
    TableViolation,
    classify_minimal,
    classify_pair,
    minimalize,
)
from toric_surface_lab.motivic import decompose, decomposition_string
from toric_surface_lab.symmetry import (
    TABLE_GENERATORS,
    SymmetryGroup,
    classify_subgroup,
    compute_aut,
    enumerate_subgroups,
)


@pytest.fixture(scope="module")
def corpus():
    return standard_corpus(seed=0, chains=200)


@pytest.fixture(scope="module")
def corpus_fans(corpus):
    seen = []
    used = set()
    for entry in corpus:
        if entry.fan not in used:
            used.add(entry.fan)
            seen.append(entry.fan)
    return seen


def _finish(num: int, ok: bool, detail: str, elapsed: float, limit: float | None):
    timing = f"{elapsed:.2f}s" + (f" < {limit:.0f}s" if limit else "")
    status = "PASS" if ok and (limit is None or elapsed < limit) else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail} ({timing})")
    assert ok, f"criterion {num} failed: {detail}"
    if limit is not None:
        assert elapsed < limit, f"criterion {num} exceeded {limit}s: {elapsed:.2f}s"


def _random_unimodular(rng, bound=3):
    while True:
        m = (
            (rng.randint(-bound, bound), rng.randint(-bound, bound)),
            (rng.randint(-bound, bound), rng.randint(-bound, bound)),
        )
        if m[0][0] * m[1][1] - m[0][1] * m[1][0] in (1, -1):
            return m


def test_criterion_1_automorphism_orders():
    start = time.perf_counter()
    orders = {
        "plane": compute_aut(p2_fan()).order,
        "quadric": compute_aut(square_fan()).order,
        "hexagon": compute_aut(dp6_fan()).order,
    }
    ruled = {a: compute_aut(hirzebruch_fan(a)).order for a in (2, 3, 4, 5)}
    ok = orders == {"plane": 6, "quadric": 8, "hexagon": 12} and all(
        v == 2 for v in ruled.values()
    )
    _finish(1, ok, f"automorphism orders {orders} and F(a)->2", time.perf_counter() - start, 1.0)


def test_criterion_2_thirteen_classes():
    start = time.perf_counter()
    ok = all(
        classify_subgroup(SymmetryGroup.from_generators(gens)) == label
        for label, gens in TABLE_GENERATORS.items()
    )
    rng = random.Random(2024)
    checked = 0
    for fan in (p2_fan(), square_fan(), dp6_fan()):
        for sub in enumerate_subgroups(compute_aut(fan)):
            label = classify_subgroup(sub)
            for _ in range(100):
                m = _random_unimodular(rng)
                mi = mat_inv(m)
                conj = [mat_mul(m, mat_mul(g, mi)) for g in sub.sorted_elements()]
                if classify_subgroup(conj) != label:
                    ok = False
                checked += 1
    _finish(2, ok, f"13 labels stable under {checked} random conjugations",
            time.perf_counter() - start, 5.0)


def test_criterion_3_minimality_table(corpus):
    start = time.perf_counter()
    ok = True
    violations = 0
    for entry in corpus:
        trace = minimalize(entry.fan, entry.group)
        if len(trace.steps) > entry.fan.n - 3:
            ok = False
        try:
            label = classify_minimal(trace.terminal_fan, trace.terminal_group)
        except TableViolation:
            violations += 1
            continue
        if label.group_label != entry.group_label:
            ok = False
    ok = ok and violations == 0
    _finish(3, ok, f"{len(corpus)} corpus pairs minimalized into their table rows, "
            f"{violations} table violations", time.perf_counter() - start, 60.0)


def test_criterion_4_klyachko_rank(corpus_fans):
    start = time.perf_counter()
    ok = True
    for fan in corpus_fans:
        cert = verify_klyachko(fan)
        if not (cert.rank == fan.n and cert.span_index == 1):
            ok = False
    _finish(4, ok, f"K0 presentation verified on {len(corpus_fans)} fans",
            time.perf_counter() - start, 30.0)


def test_criterion_5_bases(corpus):
    start = time.perf_counter()
    expected = {
        "F": (hirzebruch_fan(2), (1, 1, 1, 1)),
        "P2": (p2_fan(), (1, 1, 1)),
        "P1xP1": (square_fan(), (1, 2, 1)),
        "dP6": (dp6_fan(), (1, 3, 2)),
    }
    ok = True
    for fan, signature in expected.values():
        g = compute_aut(fan)
        basis = standard_permutation_basis(*classify_pair(fan, g), g)
        if basis.orbit_sizes() != signature:
            ok = False
        if not verify_permutation_basis(basis, fan, g).ok:
            ok = False
    transported = 0
    for entry in corpus:
        trace, label = classify_pair(entry.fan, entry.group)
        basis = standard_permutation_basis(trace, label, entry.group)
        cert = verify_permutation_basis(basis, entry.fan, entry.group)
        if not (cert.ok and basis.size == entry.fan.n):
            ok = False
        transported += 1
    _finish(5, ok, f"4 core signatures + {transported} transported bases verified",
            time.perf_counter() - start, None)


def test_criterion_6_recurrence():
    start = time.perf_counter()
    ok = all(fa_recurrence_check(hirzebruch_fan(a), range(6)) for a in (2, 3, 4, 5))
    _finish(6, ok, "ideal-sheaf recurrence holds for a in 2..5, m in 0..5",
            time.perf_counter() - start, None)


def test_criterion_7_cohomology_consistency(corpus_fans):
    start = time.perf_counter()
    rng = random.Random(7)
    ok = True
    samples = 0
    for fan in corpus_fans:
        lat = picard(fan)
        for _ in range(500):
            coeffs = tuple(rng.randint(-4, 4) for _ in range(fan.n))
            forward = line_bundle_cohomology(fan, coeffs)
            if forward.euler != lat.chi(lat.divisor_coords(coeffs)):
                ok = False
            dual = line_bundle_cohomology(fan, tuple(-1 - c for c in coeffs))
            if forward.as_tuple() != (dual.h2, dual.h1, dual.h0):
                ok = False
            samples += 1
    _finish(7, ok, f"Riemann-Roch + duality on {samples} random divisors "
            f"over {len(corpus_fans)} fans", time.perf_counter() - start, 60.0)


def test_criterion_8_collections(corpus):
    start = time.perf_counter()
    ok = True
    for fan in (p2_fan(), hirzebruch_fan(2), square_fan(), dp6_fan()):
        g = compute_aut(fan)
        coll = build_collection(*classify_pair(fan, g))
        if not verify_collection(coll, fan, g).ok:
            ok = False
    verified = 0
    for entry in corpus:
        coll = build_collection(*classify_pair(entry.fan, entry.group))
        if not verify_collection(coll, entry.fan, entry.group).ok:
            ok = False
        verified += 1
    p2 = p2_fan()
    g = compute_aut(p2)
    reversed_cert = verify_collection(
        build_collection(*classify_pair(p2, g)).reversed(), p2, g
    )
    v = reversed_cert.first_violation
    ok = ok and not reversed_cert.ok and v is not None and v.ext == (3, 0, 0)
    _finish(8, ok, f"4 cores + {verified} corpus collections verified; reversed "
            f"plane fails with Ext^0 = 3", time.perf_counter() - start, None)


def test_criterion_9_decomposition_shapes():
    start = time.perf_counter()
    cases = [
        (hirzebruch_fan(2), None, "k×Q×k×Q"),
        (p2_fan(), None, "k×A×A^{⊗2}"),
        (square_fan(), "D8", "k×B×A"),
        (dp6_fan(), "D12", "k×P×Q"),
        (hirzebruch_fan(3), None, "k×k×k×k"),
        (hirzebruch_fan(5), None, "k×k×k×k"),
    ]
    ok = True
    seen = []
    for fan, glabel, expected in cases:
        group = compute_aut(fan) if glabel is None else subgroup_with_label(fan, glabel)
        trace, label = classify_pair(fan, group)
        basis = standard_permutation_basis(trace, label, group)
        got = decomposition_string(decompose(basis, label, group))
        seen.append(got)
        if got != expected:
            ok = False
    _finish(9, ok, "factor strings " + ", ".join(seen), time.perf_counter() - start, None)


def test_criterion_10_oracle_equivalence(corpus_fans):
    start = time.perf_counter()
    ok = True
    for fan in corpus_fans:
        wall = self_intersections(fan)
        lat = picard(fan)
        pairing = tuple(
            lat.pair(lat.ray_coords[i], lat.ray_coords[i]) for i in range(fan.n)
        )
        if wall != pairing:
            ok = False
    checked = 0
    for fan, reps in ((p2_fan(), 3), (hirzebruch_fan(2), 4)):
        for coeffs in itertools.product(range(-3, 4), repeat=reps):
            if line_bundle_cohomology(fan, coeffs).as_tuple() != chamber_cohomology(
                fan, coeffs
            ):
                ok = False
            checked += 1
    _finish(10, ok, f"wall vs pairing self-intersections on {len(corpus_fans)} fans; "
            f"{checked} divisors vs chamber oracle", time.perf_counter() - start, None)
