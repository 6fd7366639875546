import itertools
import json
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from toric_surface_lab.cli import basis_payload
from toric_surface_lab.cohomology import ext_line_bundles, h0, line_bundle_cohomology
from toric_surface_lab.corpus import standard_corpus
from toric_surface_lab.derived import ExceptionalCollection, verify_collection
from toric_surface_lab import grothendieck
from toric_surface_lab.grothendieck import (
    GrothendieckError,
    K0Class,
    PermutationBasis,
    act_on_divisor,
    fa_recurrence_check,
    hirzebruch_marking,
    k0_multiply,
    line_bundle_class,
    picard,
    search_line_bundle_basis,
    standard_permutation_basis,
    structure_class,
    verify_klyachko,
    verify_permutation_basis,
)
from toric_surface_lab.intlinalg import bareiss_det
from toric_surface_lab.lattice_fan import (
    Fan,
    FanError,
    InternalError,
    blow_up,
    dp6_fan,
    hirzebruch_fan,
    p2_fan,
    validate_fan,
)
from toric_surface_lab.minimal_model import classify_pair, minimalize, pullback
from toric_surface_lab.symmetry import SymmetryGroup, compute_aut, trivial_group

import oracles
from oracles import (
    act_on_class,
    bfs_class_orbit,
    bfs_orbit_partition,
    chern_multiply,
    band_product_klyachko,
    ci_fan,
    closure_candidate_orbits,
    full_gram,
    generator_permutations,
    keyed_candidate_reps,
    pairwise_klyachko,
    random_basis,
    rank_pruned_basis_search,
    report_matrices,
    solve2_divisor_coords,
    symmetric_signature,
    triple_loop_bareiss,
)


# A trivial-group 6-ray pair and the divisors of the first basis the
# rank-pruned reference DFS finds on it at bound 1 (in 9-12 s).
PINNED_RAYS = ((1, 0), (1, 1), (0, 1), (-1, 3), (-1, 2), (0, -1))
PINNED_DIVISORS = (
    (0, 0, 0, 0, 0, 0),
    (-1, -1, -1, 0, 0, -1),
    (-1, -1, -1, 0, 0, 0),
    (-1, -1, -1, 0, 1, -1),
    (-1, -1, -1, 0, 1, 0),
    (-1, -1, -1, 1, 0, -1),
)


def as_basis(fan, divisors):
    """`divisors` as a basis of untagged classes, for the verifier."""
    return PermutationBasis(fan, tuple(divisors), (("search", None),) * len(divisors))


def unit_divisor(fan, *idx, sign=-1):
    out = [0] * fan.n
    for i in idx:
        out[i] += sign
    return tuple(out)


class TestPicard:
    def test_p2_rank_and_form(self, p2):
        lat = picard(p2)
        assert len(lat.band) == 1
        assert lat.band == (1,)
        assert full_gram(p2) == [[1]]

    def test_f2_rank_and_named_basis_form(self, f2):
        lat = picard(f2)
        assert len(lat.band) == 2
        fiber_idx, section_idx = hirzebruch_marking(f2)
        fiber = lat.divisor_coords(unit_divisor(f2, fiber_idx, sign=1))
        section = lat.divisor_coords(unit_divisor(f2, section_idx, sign=1))
        form = [
            [lat.pair(fiber, fiber), lat.pair(fiber, section)],
            [lat.pair(section, fiber), lat.pair(section, section)],
        ]
        assert form == [[0, 1], [1, -2]]

    def test_dp6_rank(self, dp6):
        assert len(picard(dp6).band) == 4

    def test_signature_and_unimodularity(self, small_corpus):
        seen = set()
        for entry in small_corpus:
            fan = entry.fan
            if fan in seen:
                continue
            seen.add(fan)
            lat = picard(fan)
            gram = full_gram(fan)
            r = range(len(lat.band))
            assert all(gram[i][j] == gram[j][i] for i in r for j in r)
            assert symmetric_signature(gram) == (1, fan.n - 3)

    def test_band_is_the_full_gram_diagonal_and_unimodular(self):
        """On every corpus fan: `band` is the diagonal of the full form, and
        the full form's Bareiss determinant is +-1, as the continuant in
        `picard` has it."""
        fans = {e.fan.rays: e.fan for e in standard_corpus(max_rays=16)}.values()
        for fan in fans:
            gram = full_gram(fan)
            assert picard(fan).band == tuple(gram[i][i] for i in range(fan.n - 2))
            assert bareiss_det(gram) in (1, -1)
        assert len(fans) > 100

    def test_non_unimodular_form_rejected(self):
        """The continuant check fires on a fan that skipped validation: the
        rays (1, 0), (1, 2), (0, 1), (-1, -1) have a cone of determinant 2."""
        fan = Fan(((1, 0), (1, 2), (0, 1), (-1, -1)))
        with pytest.raises(InternalError, match="determinant"):
            picard(fan)

    def test_canonical_square_is_twelve_minus_n(self, small_corpus):
        for entry in small_corpus:
            lat = picard(entry.fan)
            k = lat.canonical_coords
            assert lat.pair(k, k) == 12 - entry.fan.n

    def test_band_pairing_matches_full_gram(self, small_corpus):
        rng = random.Random(31)
        for entry in small_corpus[:40]:
            lat = picard(entry.fan)
            gram = full_gram(entry.fan)
            for _ in range(5):
                d1 = [rng.randint(-5, 5) for _ in range(len(lat.band))]
                d2 = [rng.randint(-5, 5) for _ in range(len(lat.band))]
                full = sum(
                    d1[i] * d2[j] * gram[i][j]
                    for i in range(len(lat.band))
                    for j in range(len(lat.band))
                )
                assert lat.pair(d1, d2) == full

    def test_ray_pairing_table(self, f2, dp6):
        from toric_surface_lab.lattice_fan import self_intersections

        for fan in (f2, dp6):
            lat = picard(fan)
            a = self_intersections(fan)
            n = fan.n
            rays = [lat.divisor_coords(unit_divisor(fan, i, sign=1)) for i in range(n)]
            for i in range(n):
                for j in range(n):
                    got = lat.pair(rays[i], rays[j])
                    if i == j:
                        assert got == a[i]
                    elif j in ((i + 1) % n, (i - 1) % n):
                        assert got == 1
                    else:
                        assert got == 0


class TestDivisorCoords:
    """The linear map through `first_rays` against a 2x2 solve per divisor."""

    def test_matches_solve2_route_on_corpus(self):
        rng = random.Random(23)
        entries = {e.fan.rays: e for e in standard_corpus(max_rays=16)}
        checked = 0
        for entry in entries.values():
            for fan in (entry.fan, random_basis(rng, entry.fan, entry.group)[0]):
                lat = picard(fan)
                for _ in range(10):
                    c = tuple(rng.randint(-5, 5) for _ in range(fan.n))
                    assert lat.divisor_coords(c) == solve2_divisor_coords(fan, c)
                    checked += 1
        assert checked > 2_000

    def test_wrong_length_rejected(self, p2):
        """Every routine that takes a divisor raises the one FanError of
        `lattice_fan.divisor`, with one message."""
        for c in ((1, 0), (1, 0, 0, 0)):
            coll = ExceptionalCollection(p2, (((0, 0, 0), c),), "wrong length")
            calls = [
                lambda: picard(p2).divisor_coords(c),
                lambda: h0(p2, c),
                lambda: line_bundle_cohomology(p2, c),
                lambda: ext_line_bundles(p2, (0, 0, 0), c),
                lambda: verify_collection(coll, trivial_group()),
            ]
            for call in calls:
                with pytest.raises(FanError) as caught:
                    call()
                assert caught.type is FanError
                assert str(caught.value) == f"expected 3 coefficients, got {len(c)}"

    def test_float_coefficients_raise(self, p2):
        with pytest.raises(TypeError):
            picard(p2).divisor_coords((0.9, 0, 0))

    def test_numpy_integers_accepted(self, dp6):
        c = (1, -2, 0, 3, 0, 1)
        assert picard(dp6).divisor_coords(np.array(c, dtype=np.int64)) == (
            picard(dp6).divisor_coords(c))


class TestDivisorChi:
    """chi of the Picard coordinates of a divisor against its two
    intersection numbers, and the adjunction parity check."""

    def test_matches_chi_of_coords_on_corpus(self):
        rng = random.Random(29)
        entries = {e.fan.rays: e for e in standard_corpus(max_rays=16)}
        checked = 0
        for entry in entries.values():
            for fan in (entry.fan, random_basis(rng, entry.fan, entry.group)[0]):
                lat = picard(fan)
                for _ in range(10):
                    c = [rng.randint(-5, 5) for _ in range(fan.n)]
                    x = lat.divisor_coords(c)
                    twice = lat.pair(x, x) - lat.pair(x, lat.canonical_coords)
                    assert lat.chi(x) == 1 + twice // 2
                    checked += 1
        assert checked > 2_000

    def test_parity_fault_raises(self, dp6):
        """A canonical class moved by D_2 makes x.(x - K) odd for x = D_2,
        whose self-intersection on dP6 is -1."""
        lat = picard(dp6)
        k = lat.canonical_coords
        bad = lat._replace(canonical_coords=(k[0] + 1, *k[1:]))
        d2 = unit_divisor(dp6, 2, sign=1)
        with pytest.raises(InternalError, match="parity"):
            bad.chi(bad.divisor_coords(d2))


class TestLineBundleClass:
    def test_trivial(self, p2):
        assert line_bundle_class(p2, (0, 0, 0)) == structure_class(p2)

    def test_hyperplane(self, p2):
        cls = line_bundle_class(p2, (1, 0, 0))
        assert (cls.rank, cls.c1, cls.chi) == (1, (1,), 3)

    def test_dual_hyperplane(self, p2):
        cls = line_bundle_class(p2, (-1, 0, 0))
        assert (cls.rank, cls.c1, cls.chi) == (1, (-1,), 0)

    def test_chi_matches_cohomology(self, small_corpus):
        rng = random.Random(5)
        for entry in small_corpus[:25]:
            fan = entry.fan
            for _ in range(10):
                coeffs = tuple(rng.randint(-3, 3) for _ in range(fan.n))
                cls = line_bundle_class(fan, coeffs)
                assert cls.chi == line_bundle_cohomology(fan, coeffs).euler


class TestClosedFormProduct:
    """`k0_multiply` (closed form) against `chern_multiply` (Chern character)."""

    @staticmethod
    def cone_classes(fan):
        n = fan.n
        lat = picard(fan)
        one = structure_class(fan)
        o_ray = [
            one - line_bundle_class(fan, tuple(-1 if e == i else 0 for e in range(n)))
            for i in range(n)
        ]
        return [one, *o_ray, *(chern_multiply(lat, o_ray[i], o_ray[j]) for i, j in fan.cones())]

    def test_every_klyachko_cone_product_on_corpus(self):
        fans = {entry.fan.rays: entry.fan for entry in standard_corpus(max_rays=16)}
        products = 0
        for fan in fans.values():
            lat = picard(fan)
            cones = self.cone_classes(fan)
            for i, x in enumerate(cones):
                for y in cones[i:]:
                    assert k0_multiply(lat, x, y) == chern_multiply(lat, x, y)
                    products += 1
        assert products > 10_000

    @pytest.mark.parametrize("make_fan", [p2_fan, lambda: hirzebruch_fan(3), dp6_fan])
    def test_random_triples(self, make_fan):
        """(rank, c1, chi) is a complete invariant and every triple occurs."""
        fan = make_fan()
        rng = random.Random(17)

        def triple():
            return K0Class(rng.randint(-2, 2),
                           tuple(rng.randint(-3, 3) for _ in range(fan.n - 2)),
                           rng.randint(-3, 3))

        lat = picard(fan)
        for _ in range(300):
            x, y = triple(), triple()
            assert k0_multiply(lat, x, y) == chern_multiply(lat, x, y)


class TestMultiplication:
    def test_square_of_hyperplane(self, p2):
        o1 = line_bundle_class(p2, (1, 0, 0))
        sq = k0_multiply(picard(p2), o1, o1)
        assert sq == line_bundle_class(p2, (2, 0, 0))
        assert sq.chi == 6

    def test_unit_law(self, f2):
        one = structure_class(f2)
        x = line_bundle_class(f2, (2, -1, 3, 0))
        assert k0_multiply(picard(f2), x, one) == x

    def test_tensor_on_line_bundles(self, dp6):
        rng = random.Random(9)
        for _ in range(20):
            a = tuple(rng.randint(-2, 2) for _ in range(6))
            b = tuple(rng.randint(-2, 2) for _ in range(6))
            lhs = k0_multiply(picard(dp6), line_bundle_class(dp6, a), line_bundle_class(dp6, b))
            rhs = line_bundle_class(dp6, tuple(x + y for x, y in zip(a, b)))
            assert lhs == rhs

    def test_commutative_associative(self, f2):
        rng = random.Random(1)
        lat = picard(f2)
        classes = [
            line_bundle_class(f2, tuple(rng.randint(-2, 2) for _ in range(4)))
            for _ in range(9)
        ]
        for x, y, z in zip(classes[::3], classes[1::3], classes[2::3]):
            assert k0_multiply(lat, x, y) == k0_multiply(lat, y, x)
            assert (k0_multiply(lat, k0_multiply(lat, x, y), z)
                    == k0_multiply(lat, x, k0_multiply(lat, y, z)))

    def test_group_action_is_ring_automorphism(self, dp6):
        g = compute_aut(dp6)
        lat = picard(dp6)
        rng = random.Random(4)
        for perm in g.ray_permutations.values():
            for _ in range(5):
                a = tuple(rng.randint(-2, 2) for _ in range(6))
                b = tuple(rng.randint(-2, 2) for _ in range(6))
                x, y = line_bundle_class(dp6, a), line_bundle_class(dp6, b)
                lhs = act_on_class(lat, perm, k0_multiply(lat, x, y))
                rhs = k0_multiply(lat, act_on_class(lat, perm, x), act_on_class(lat, perm, y))
                assert lhs == rhs

    def test_integer_times_class_raises(self, p2):
        """`*` neither repeats the tuple nor multiplies: `k0_multiply` does."""
        x = line_bundle_class(p2, (1, 0, 0))
        for k in (2, 0, -1):
            with pytest.raises(TypeError):
                k * x
            with pytest.raises(TypeError):
                x * k
        with pytest.raises(TypeError):
            x * x

    def test_incompatible_fans(self, p2, f2, dp6):
        """A class or coordinates of another rank raise instead of being cut
        to the shorter by `zip`; `pair` is the product's guard."""
        with pytest.raises(FanError, match="expected 1 coordinates, got 1 and 2"):
            k0_multiply(picard(p2), structure_class(p2), structure_class(f2))
        for first, second in ((structure_class(p2), structure_class(f2)),
                              (structure_class(f2), structure_class(p2))):
            with pytest.raises(ValueError, match="zip"):
                first + second
            with pytest.raises(ValueError, match="zip"):
                first - second
        lat = picard(dp6)
        for coords in ((1,), (1, 0, 0, 0, 7, 7)):
            with pytest.raises(FanError, match=f"expected 4 coordinates, got {len(coords)}$"):
                lat.chi(coords)
        for d1, d2 in (((1, 0, 0, 0, 0), (1, 0, 0, 0, 0)), ((1,), (1, 0, 0, 0))):
            with pytest.raises(FanError, match=f"got {len(d1)} and {len(d2)}$"):
                lat.pair(d1, d2)


class TestKlyachko:
    def test_passes_on_standard_fans(self, p2, f2, square, dp6):
        for fan in (p2, f2, square, dp6):
            cert = verify_klyachko(fan)
            assert cert.ok
            assert cert.rank == fan.n
            assert cert.span_index == 1

    def test_p2_ray_classes_coincide(self, p2):
        j = [line_bundle_class(p2, unit_divisor(p2, i)) for i in range(3)]
        assert j[0] == j[1] == j[2]

    def test_fa_relations(self):
        for a in (2, 3, 5):
            fan = hirzebruch_fan(a)
            j = [line_bundle_class(fan, unit_divisor(fan, i)) for i in range(4)]
            f, s = hirzebruch_marking(fan)
            other_fiber = ({0, 1, 2, 3} - {f, s, (s + 2) % 4}).pop()
            assert j[other_fiber] == j[f]
            product = j[s]  # J_f^a J_s
            for _ in range(a):
                product = k0_multiply(picard(fan), j[f], product)
            assert j[(s + 2) % 4] == product

    def test_dp6_cross_relations(self, dp6):
        j = [line_bundle_class(dp6, unit_divisor(dp6, i)) for i in range(6)]
        # Opposite rays pair up as (u_0,u_3), (u_2,u_5), (u_4,u_1); the ratio
        # of a class to its partner is the same for all three pairs.
        pairs = [(0, 3), (2, 5), (4, 1)]
        for a, b in pairs:
            for c, d in pairs:
                assert k0_multiply(picard(dp6), j[a], j[d]) == k0_multiply(picard(dp6), j[c], j[b])

    def test_corpus(self, small_corpus):
        seen = set()
        for entry in small_corpus[:40]:
            if entry.fan in seen:
                continue
            seen.add(entry.fan)
            assert verify_klyachko(entry.fan).ok


DP6_12 = validate_fan(json.loads(
    (Path(__file__).parent / "golden" / "dp6-12.json").read_text())["rays"])


class TestKlyachkoOracle:
    """The ray-pairing table against the pairwise oracle and the band-product
    loop, which evaluate every product relation."""

    def test_matches_pairwise_oracle(self):
        rng = random.Random(15)
        entries = {e.fan.rays: e for e in standard_corpus(max_rays=16)}
        fans = [ci_fan(32), ci_fan(64)]
        for entry in entries.values():
            fans += [entry.fan, random_basis(rng, entry.fan, entry.group)[0]]
        for fan in fans:
            cert = verify_klyachko(fan)
            assert cert == pairwise_klyachko(fan) == band_product_klyachko(fan)
            assert cert.ok
            assert cert.orbit_closure_pairs == 2 * fan.n ** 2 - 2 * fan.n + 1
        assert len(fans) > 250

    def test_recipe_fan_128_matches_band_products(self):
        fan = ci_fan(128)
        cert = verify_klyachko(fan)
        assert cert.ok and cert == band_product_klyachko(fan)

    def test_memory_is_linear_in_the_rays(self):
        """The certificate holds no dense c1 per ray: at 512 rays its
        tracemalloc peak is under 1 MiB, where n ray classes of n - 2
        entries each took about 4 MiB."""
        fan = ci_fan(512)
        tracemalloc.start()
        try:
            assert verify_klyachko(fan).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("fan", [p2_fan(), dp6_fan(), DP6_12], ids=["p2", "dp6", "dp6-12"])
    def test_planted_band_fault(self, monkeypatch, fan):
        """A diagonal entry of the form raised or lowered by 2 fails the
        certificate at every position.  Where the band-product loop fails
        too, the certificates are equal, witness and counts included; where
        it passes (P2 lowered, whose 2-cone class becomes (0, 0, -1)), the
        point class pins the fault.  The pairwise oracle gives the same
        message and counts in every case."""
        real = grothendieck.picard
        kinds = []
        for sign, position in itertools.product((2, -2), range(fan.n - 2)):
            def planted(f, position=position, sign=sign):
                lat = real(f)
                band = list(lat.band)
                band[position] += sign
                return lat._replace(band=tuple(band))

            monkeypatch.setattr(grothendieck, "picard", planted)
            monkeypatch.setattr(oracles, "picard", planted)
            got, old, pairwise = (
                verify_klyachko(fan), band_product_klyachko(fan), pairwise_klyachko(fan))
            monkeypatch.undo()
            assert not got.ok and not pairwise.ok
            assert got._replace(first_violation=None) == pairwise
            witness = got.first_violation
            kinds.append(witness["kind"])
            if not old.ok:
                assert got == old
            else:
                assert witness["kind"] == "point"
                assert got.orbit_closure_pairs == 2 * fan.n ** 2 - 2 * fan.n + 1
                assert witness["cone"] in [sorted(c) for c in fan.cones()]
                assert witness["got"] != [0] * (fan.n - 1) + [1]
            if witness["kind"] == "product":
                first, second = witness["cones"]
                assert not set(first) & set(second)
                assert witness["got"] != witness["expected"]
                assert f"cones {first} and {second} is" in got.error
            assert "Fan(" not in got.error
            if fan == dp6_fan() and (sign, position) == (2, 0):
                assert witness["cones"] == [[0], [2]]
        if fan == p2_fan():
            assert kinds == ["span", "point"]
            assert got.first_violation == {"kind": "point", "cone": [0, 1], "got": [0, 0, -1]}
            assert got.error == (
                "class of cone [0, 1] is [0, 0, -1], expected the point class [0, 0, 1]")
        else:
            assert set(kinds) <= {"span", "product"} and "product" in kinds

    @pytest.mark.parametrize("fan", [p2_fan(), hirzebruch_fan(2), dp6_fan(),
                                     blow_up(dp6_fan(), (0, 1))],
                             ids=["p2", "f2", "dp6", "dp6-7"])
    def test_planted_cone_class_faults(self, monkeypatch, fan):
        """One 2-cone class given rank 1, a c1 entry or chi + 1, on every
        cone: a class with rank or c1 is multiplied out pair by pair, so the
        certificate fails where the band-product loop fails, with the same
        witness and counts."""
        real = grothendieck.k0_multiply
        changes = {
            "rank": lambda z: z._replace(rank=1),
            "c1": lambda z: z._replace(c1=(z.c1[0] + 1, *z.c1[1:])),
            "chi": lambda z: z._replace(chi=z.chi + 1),
        }
        kinds = set()
        for cone, change in itertools.product(range(fan.n), changes.values()):
            def planted():
                calls = []

                def k0_multiply(lat, x, y):
                    calls.append(None)
                    z = real(lat, x, y)
                    return change(z) if len(calls) == cone + 1 else z
                return k0_multiply

            monkeypatch.setattr(grothendieck, "k0_multiply", planted())
            got = verify_klyachko(fan)
            monkeypatch.setattr(oracles, "k0_multiply", planted())
            old = band_product_klyachko(fan)
            monkeypatch.undo()
            assert not got.ok
            if old.ok:
                assert got.first_violation["kind"] == "point"
            else:
                assert got == old
            kinds.add(got.first_violation["kind"])
        assert "product" in kinds

    def test_planted_span_fault(self, monkeypatch, p2):
        """Products off by one in chi give the point classes chi = 2, so the
        cone classes (1, 0, 1), (0, 1, 1) and (0, 0, 2) span index 2.  Both
        routes return a failed certificate there, with the same error."""
        real = grothendieck.k0_multiply

        def off_by_one(lat, x, y):
            z = real(lat, x, y)
            return z._replace(chi=z.chi + 1)

        monkeypatch.setattr(grothendieck, "k0_multiply", off_by_one)
        monkeypatch.setattr(oracles, "k0_multiply", off_by_one)
        cert, expected = verify_klyachko(p2), pairwise_klyachko(p2)
        assert not cert.ok and not expected.ok
        assert cert.error == expected.error == (
            "cone classes span rank 3 with index 2, expected rank 3, index 1")
        assert cert.first_violation == {"kind": "span", "rank": 3, "index": 2}
        assert (cert.orbit_closure_pairs, cert.character_relations) == (0, 0)

    def test_planted_cone_class_c1(self, monkeypatch, dp6):
        """A 2-cone class with c1 != 0 passes the span check and fails the
        product of its two rays, whose c1 is r c1' + r' c1 = 0."""
        real = grothendieck.k0_multiply
        calls = []

        def wrong_first_call(lat, x, y):
            z = real(lat, x, y)
            calls.append(z)
            if len(calls) == 1:
                return z._replace(c1=(z.c1[0] + 1, *z.c1[1:]))
            return z

        monkeypatch.setattr(grothendieck, "k0_multiply", wrong_first_call)
        cert = verify_klyachko(dp6)
        assert not cert.ok
        witness = cert.first_violation
        assert witness["kind"] == "product"
        assert witness["cones"] == [[0], [1]]
        assert witness["got"] == [0, 0, 0, 0, 0, 1]
        assert witness["expected"] == [0, 1, 0, 0, 0, 1]

    def test_character_witness(self, monkeypatch, dp6):
        """A model wrong only off the unit divisors fails the character
        relation of m = (1, 0), and nothing before it."""
        real = grothendieck.line_bundle_class

        def wrong_off_units(fan, coefficients):
            cls = real(fan, coefficients)
            if list(coefficients).count(0) == fan.n - 1:
                return cls
            return cls._replace(chi=cls.chi + 1)

        monkeypatch.setattr(grothendieck, "line_bundle_class", wrong_off_units)
        cert = verify_klyachko(dp6)
        assert not cert.ok
        assert cert.error == "character relation fails for (1, 0)"
        assert cert.first_violation == {"kind": "character", "m": [1, 0]}
        assert cert.orbit_closure_pairs == 2 * dp6.n ** 2 - 2 * dp6.n + 1
        # div(x^m) = sum <m, v_e> D_e is principal: O(-div) is the unit.
        coeffs = tuple(-v[0] for v in dp6.rays)
        assert real(dp6, coeffs) == structure_class(dp6)

    @staticmethod
    def _shifted_canonical(position: int, shift: int):
        def planted(fan):
            lat = picard(fan)  # the module's own, not a planted one
            k = list(lat.canonical_coords)
            k[position] += shift
            return lat._replace(canonical_coords=tuple(k))
        return planted

    @pytest.mark.parametrize("fan", [p2_fan(), hirzebruch_fan(2), dp6_fan()],
                             ids=["p2", "f2", "dp6"])
    def test_planted_canonical_shift(self, monkeypatch, fan):
        """One entry of the canonical class moved by +-2 or +-4 makes chi
        wrong, yet keeps every product, character and point relation, which
        the band-product loop shows.  Only the ray relation sees it: some
        D_i.(D_i + K) is not -2.  The certificate fails there, with every
        count of the honest one, and the pairwise oracle gives the same
        message and counts."""
        honest = verify_klyachko(fan)
        for shift, position in itertools.product((-4, -2, 2, 4), range(fan.n - 2)):
            planted = self._shifted_canonical(position, shift)
            monkeypatch.setattr(grothendieck, "picard", planted)
            monkeypatch.setattr(oracles, "picard", planted)
            got, pairwise, old = (
                verify_klyachko(fan), pairwise_klyachko(fan), band_product_klyachko(fan))
            monkeypatch.undo()
            assert old.ok and not got.ok
            assert got._replace(first_violation=None) == pairwise
            assert got._replace(error=None, first_violation=None) == honest
            witness = got.first_violation
            assert witness.keys() == {"kind", "ray", "adjunction"}
            assert witness["kind"] == "ray" and witness["adjunction"] in (-6, -4, 0, 2)
            assert got.error == (f"ray {witness['ray']} has D.(D + K) = "
                                 f"{witness['adjunction']}, expected -2: its class is not (0, D, 1)")

    def test_planted_canonical_shift_on_p2(self, monkeypatch, p2):
        """K = -3H moved to -H: chi(O(H)) reads 2, not 3, and ray 0 has
        D.(D + K) = 1 - 1 = 0.  An odd shift, once a parity exception,
        fails the ray relation too."""
        monkeypatch.setattr(grothendieck, "picard", self._shifted_canonical(0, 2))
        assert line_bundle_class(p2, (0, 0, 1)).chi == 2
        assert verify_klyachko(p2).first_violation == {"kind": "ray", "ray": 0, "adjunction": 0}
        monkeypatch.setattr(grothendieck, "picard", self._shifted_canonical(0, 1))
        assert verify_klyachko(p2).first_violation == {"kind": "ray", "ray": 0, "adjunction": -1}


class TestRecurrence:
    @pytest.mark.parametrize("a", range(8))
    def test_holds(self, a):
        assert fa_recurrence_check(hirzebruch_fan(a), range(8))

    def test_m_zero_tautology(self):
        assert fa_recurrence_check(hirzebruch_fan(2), [0])

    def test_negative_m_is_rejected(self):
        with pytest.raises(GrothendieckError, match="needs m >= 0, got -1"):
            fa_recurrence_check(hirzebruch_fan(2), [-1])

    def test_marking_needs_four_rays(self, p2):
        with pytest.raises(GrothendieckError, match="not a 4-ray fan"):
            hirzebruch_marking(p2)

    @pytest.mark.parametrize("a", [2, 3, 4, 5])
    def test_planted_product_fails(self, monkeypatch, a):
        """Each planted product fault fails from m = 1 on; m = 0 compares J2
        with O(-S) and is the recurrence's tautology.  A doubled c1 breaks the
        recurrence.  Every J1^m J2 has chi 0 and the recurrence says only that
        J1^m J2 is affine in m, so the faults that keep it affine (chi + 1,
        the sum x + y, a sign-flipped intersection term) are caught by
        comparing J1^m J2 with the line bundle O(-mF - S)."""
        real = grothendieck.k0_multiply
        faults = {
            "doubled c1": lambda lat, x, y, p: p._replace(c1=tuple(2 * c for c in p.c1)),
            "chi + 1": lambda lat, x, y, p: p._replace(chi=p.chi + 1),
            "x + y": lambda lat, x, y, p: x + y,
            "flipped intersection": lambda lat, x, y, p: p._replace(
                chi=p.chi - 2 * lat.pair(x.c1, y.c1)),
        }
        fan = hirzebruch_fan(a)
        for name, fault in faults.items():
            monkeypatch.setattr(grothendieck, "k0_multiply",
                                lambda lat, x, y, f=fault: f(lat, x, y, real(lat, x, y)))
            checks = [fa_recurrence_check(fan, [m]) for m in range(3)]
            assert checks == [True, False, False], name
            assert not fa_recurrence_check(fan, range(6)), name


class TestStandardBasis:
    def test_fa_four_singletons(self):
        fan = hirzebruch_fan(3)
        g = compute_aut(fan)
        trace, label = classify_pair(fan, g)
        basis = standard_permutation_basis(pullback(trace), label)
        cert = verify_permutation_basis(basis, g)
        assert cert.orbit_sizes == (1, 1, 1, 1)
        assert cert.ok

    def test_p2_three_singletons(self, p2, p2_aut):
        trace, label = classify_pair(p2, p2_aut)
        basis = standard_permutation_basis(pullback(trace), label)
        assert verify_permutation_basis(basis, p2_aut).orbit_sizes == (1, 1, 1)
        divisors = set(basis.divisors)
        assert (0, 0, 0) in divisors

    def test_square_signature(self, square, square_aut):
        trace, label = classify_pair(square, square_aut)
        basis = standard_permutation_basis(pullback(trace), label)
        assert verify_permutation_basis(basis, square_aut).orbit_sizes == (1, 2, 1)

    def test_dp6_signature(self, dp6, dp6_aut):
        trace, label = classify_pair(dp6, dp6_aut)
        basis = standard_permutation_basis(pullback(trace), label)
        cert = verify_permutation_basis(basis, dp6_aut)
        assert cert.orbit_sizes == (1, 3, 2)
        assert basis_payload(cert)["stabilizer_indices"] == [1, 3, 2]

    def test_from_minimal_label_directly(self, dp6, dp6_aut):
        from toric_surface_lab.minimal_model import classify_minimal

        label = classify_minimal(dp6, dp6_aut)
        basis = standard_permutation_basis(pullback(minimalize(dp6, dp6_aut)), label)
        cert = verify_permutation_basis(basis, dp6_aut)
        assert cert.orbit_sizes == (1, 3, 2)
        assert cert.ok

    def test_transport_on_corpus(self, small_corpus):
        multi_step = 0
        for entry in small_corpus:
            trace, label = classify_pair(entry.fan, entry.group)
            basis = standard_permutation_basis(pullback(trace), label)
            assert len(basis.divisors) == entry.fan.n
            cert = verify_permutation_basis(basis, entry.group)
            assert cert.ok
            # The core classes come first, then the O(E) of the last step first.
            exc = [("exc", k) for k in reversed(range(len(trace.steps)))
                   for _ in trace.steps[k].contracted]
            core = len(basis.divisors) - len(exc)
            assert basis.tags[core:] == tuple(exc)
            assert all(kind == "core" for kind, _ in basis.tags[:core])
            multi_step += len(trace.steps) > 1
        assert multi_step > 0


class TestBareiss:
    """`bareiss_det` (a row at a time, positive pivots, rows with a zero
    entry left alone) against `triple_loop_bareiss`."""

    def test_random_singular_and_row_swapping_matrices(self):
        rng = random.Random(32)
        seen = {"zero": 0, "swap": 0}
        for trial in range(600):
            n = rng.randint(0, 8)
            m = [[rng.choice((0, 0, 0, 1, -1, 2, -3, rng.randint(-40, 40))) for _ in range(n)]
                 for _ in range(n)]
            if trial % 3 == 1 and n > 1:  # singular: a row is a combination of two others
                m[-1] = [2 * x - y for x, y in zip(m[0], m[1])]
            if trial % 3 == 2 and n > 1:  # the first pivot needs a row swap
                for row in m[:-1]:
                    row[0] = 0
                seen["swap"] += m[-1][0] != 0
            det = bareiss_det(m)
            assert det == triple_loop_bareiss(m), m
            seen["zero"] += det == 0
        assert seen["zero"] > 150 and seen["swap"] > 50

    def test_report_matrices(self):
        rng = random.Random(32)
        entries = {e.fan.rays: e for e in standard_corpus(max_rays=16)}
        pairs = [(ci_fan(n), trivial_group(ci_fan(n))) for n in (64, 128)]
        for entry in entries.values():
            pairs += [(entry.fan, entry.group), random_basis(rng, entry.fan, entry.group)]
        for fan, group in pairs:
            for m in report_matrices(fan, group):
                det = bareiss_det(m)
                assert det in (1, -1) and det == triple_loop_bareiss(m)


class TestVerifyBasis:
    """A set that is not a permutation basis returns a failed certificate
    with its reason and no orbits; the verifier does not raise."""

    def test_rejects_dependent_set(self, f2):
        g = compute_aut(f2)
        divisors = [
            (0, 0, 0, 0),
            unit_divisor(f2, 0),
            unit_divisor(f2, 1),
            unit_divisor(f2, 0, 0),
        ]
        basis = as_basis(f2, divisors)
        cert = verify_permutation_basis(basis, g)
        assert not cert.ok
        assert cert == (basis, 0, (), "coordinate matrix has determinant 0")

    def test_rejects_too_few_classes(self, f2):
        divisors = [(0, 0, 0, 0), unit_divisor(f2, 0), unit_divisor(f2, 1)]
        cert = verify_permutation_basis(as_basis(f2, divisors), compute_aut(f2))
        assert not cert.ok
        assert cert.error == "3 classes cannot form a basis of rank 4"
        assert cert.orbits == ()

    def test_rejects_set_the_group_does_not_permute(self, dp6, dp6_aut):
        """O(-D_3) in place of O(-D_3 - D_4) in the D12 basis keeps the
        determinant +-1, but the rotations move O(-D_3) out of the set."""
        trace, label = classify_pair(dp6, dp6_aut)
        divisors = list(standard_permutation_basis(pullback(trace), label).divisors)
        divisors[divisors.index(unit_divisor(dp6, 3, 4))] = unit_divisor(dp6, 3)
        cert = verify_permutation_basis(as_basis(dp6, divisors), dp6_aut)
        assert not cert.ok
        assert cert.determinant in (1, -1)
        assert cert.orbits == ()
        assert cert.error.startswith("image of basis element (")
        assert cert.error.endswith(") leaves the set")

    def test_accepts_paper_dp6_basis(self, dp6, dp6_aut):
        divisors = [
            (0,) * 6,
            unit_divisor(dp6, 0, 5),
            unit_divisor(dp6, 1, 2),
            unit_divisor(dp6, 3, 4),
            unit_divisor(dp6, 0, 1, 2),
            unit_divisor(dp6, 3, 4, 5),
        ]
        cert = verify_permutation_basis(as_basis(dp6, divisors), dp6_aut)
        assert cert.ok
        assert sorted(cert.orbit_sizes) == [1, 2, 3]

    def test_coefficient_types(self, dp6, dp6_aut):
        """Float coefficients raise; numpy integer rows certify as ints do."""
        divisors = [
            (0,) * 6,
            unit_divisor(dp6, 0, 5),
            unit_divisor(dp6, 1, 2),
            unit_divisor(dp6, 3, 4),
            unit_divisor(dp6, 0, 1, 2),
            unit_divisor(dp6, 3, 4, 5),
        ]
        rows = tuple(np.array(divisors, dtype=np.int64))
        cert = verify_permutation_basis(as_basis(dp6, rows), dp6_aut)
        assert cert[1:] == verify_permutation_basis(as_basis(dp6, divisors), dp6_aut)[1:]
        with pytest.raises(TypeError):
            verify_permutation_basis(
                as_basis(dp6, [tuple(map(float, d)) for d in divisors]), dp6_aut)

    def test_orbits_match_bfs_partition_on_corpus(self):
        """On every corpus pair, in its own and a random lattice basis, the
        certificate's orbits of the standard basis equal the partition by
        closure under the generators."""
        rng = random.Random(43)
        pairs = 0
        for entry in standard_corpus(max_rays=16):
            for fan, group in ((entry.fan, entry.group),
                               random_basis(rng, entry.fan, entry.group)):
                trace, label = classify_pair(fan, group)
                basis = standard_permutation_basis(pullback(trace), label)
                cert = verify_permutation_basis(basis, group)
                assert cert.orbits == bfs_orbit_partition(fan, group, basis.divisors)
                pairs += 1
        assert pairs == 2 * 191


class TestSearch:
    def test_p2_trivial_bound_two(self, p2):
        basis = search_line_bundle_basis(p2, trivial_group(p2), 2)
        assert basis is not None
        cert = verify_permutation_basis(basis, trivial_group(p2))
        assert cert.ok

    def test_f2_order_two_bound_two(self, f2):
        g = compute_aut(f2)
        basis = search_line_bundle_basis(f2, g, 2)
        assert basis is not None
        assert verify_permutation_basis(basis, g).ok

    def test_bound_zero_absent(self, p2):
        assert search_line_bundle_basis(p2, trivial_group(p2), 0) is None

    def test_deterministic(self, p2):
        g = trivial_group(p2)
        b1 = search_line_bundle_basis(p2, g, 2)
        b2 = search_line_bundle_basis(p2, g, 2)
        assert b1.divisors == b2.divisors

    def test_class_orbit_matches_bfs_closure(self, small_corpus):
        """Given the classes of a divisor's images under every group element,
        `_orbit_partition` returns one orbit, whose classes are those of the
        closure under the generators."""
        rng = random.Random(29)
        for entry in small_corpus[:40]:
            lat = picard(entry.fan)
            perms = entry.group.ray_permutations.values()
            generators = generator_permutations(entry.fan, entry.group)
            for _ in range(5):
                d = tuple(rng.randint(-3, 3) for _ in range(entry.fan.n))
                moved = [act_on_divisor(perm, d) for perm in perms]
                images = {lat.divisor_coords(x): x for x in moved}  # one divisor per class
                coords = list(images)
                orbits, leaving = grothendieck._orbit_partition(
                    lat, perms, list(images.values()), coords)
                assert (orbits, leaving) == ((tuple(range(len(coords))),), None)
                assert set(coords) == bfs_class_orbit(lat, generators, d)

    def test_shell_representatives_match_keyed_scan_at_bound_two(self):
        """At bound 2, on every corpus fan of at most 6 rays, the least
        divisor of each class found shell by shell is the one the keyed scan
        of the whole cube keeps.  The representatives do not depend on the
        group; bounds 0 and 1 are compared on every pair in the test below."""
        entries = {e.fan: e for e in standard_corpus(max_rays=16) if e.fan.n <= 6}
        for entry in entries.values():
            rep, _ = grothendieck._candidate_orbits(entry.fan, entry.group, 2)
            assert rep == keyed_candidate_reps(entry.fan, 2)
        assert len(entries) == 42

    def test_one_representative_orbits_match_bfs_closure_in_search(self):
        """On the candidates of bounds 0 and 1, in two bases per pair of at
        most 6 rays, the representatives are those of the keyed scan, the
        orbits from the images of one representative equal the orbits of a
        closure, and the search equals the rank-pruned reference DFS on the
        closure's candidates.  For trivial groups on 6 rays at bound 1, where
        the reference takes seconds per pair, the search's results are
        certified instead; one is pinned to the reference's."""
        rng = random.Random(37)
        searched = certified = 0
        for entry in (e for e in standard_corpus(max_rays=16) if e.fan.n <= 6):
            for fan, group in ((entry.fan, entry.group),
                               random_basis(rng, entry.fan, entry.group)):
                for bound in (0, 1):
                    closure = closure_candidate_orbits(fan, group, bound)
                    assert grothendieck._candidate_orbits(fan, group, bound) == closure
                    basis = search_line_bundle_basis(fan, group, bound)
                    if fan.n == 6 and group.order == 1 and bound == 1:
                        assert verify_permutation_basis(basis, group).ok
                        certified += 1
                        if fan.rays == PINNED_RAYS:
                            assert basis.divisors == PINNED_DIVISORS
                    else:
                        assert rank_pruned_basis_search(fan, *closure) == basis
                    searched += basis is not None
        assert searched > 0 and certified == 34


class TestAction:
    def test_divisor_action_permutes(self, square):
        g = compute_aut(square)
        for perm in g.ray_permutations.values():
            moved = act_on_divisor(perm, (1, 2, 3, 4))
            assert sorted(moved) == [1, 2, 3, 4]

    def test_f1_blowup_transport_matches_known_shape(self):
        f1 = blow_up(p2_fan(), [0])
        g = SymmetryGroup.from_generators([((0, 1), (1, 0))], f1)
        trace, label = classify_pair(f1, g)
        basis = standard_permutation_basis(pullback(trace), label)
        tags = dict(zip(basis.divisors, basis.tags))
        exceptional = [d for d, t in tags.items() if t[0] == "exc"]
        assert exceptional == [(0, 1, 0, 0)]
