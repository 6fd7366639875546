import random

import numpy as np
import pytest

from toric_surface_lab.cli import basis_payload
from toric_surface_lab.cohomology import line_bundle_cohomology
from toric_surface_lab.corpus import standard_corpus
from toric_surface_lab import grothendieck
from toric_surface_lab.grothendieck import (
    GrothendieckError,
    K0Class,
    NotABasis,
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
    blow_up,
    dp6_fan,
    hirzebruch_fan,
    p2_fan,
)
from toric_surface_lab.minimal_model import classify_pair, minimalize
from toric_surface_lab.symmetry import SymmetryGroup, compute_aut, trivial_group

from oracles import (
    act_on_class,
    bfs_class_orbit,
    chern_multiply,
    full_gram,
    random_basis,
    rank_pruned_basis_search,
    solve2_divisor_coords,
    symmetric_signature,
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


def unit_divisor(fan, *idx, sign=-1):
    out = [0] * fan.n
    for i in idx:
        out[i] += sign
    return tuple(out)


class TestPicard:
    def test_p2_rank_and_form(self, p2):
        lat = picard(p2)
        assert lat.rank == 1
        assert lat.band == (1,)
        assert full_gram(p2) == [[1]]

    def test_f2_rank_and_named_basis_form(self, f2):
        lat = picard(f2)
        assert lat.rank == 2
        fiber_idx, section_idx = hirzebruch_marking(f2)
        fiber = lat.ray_coords[fiber_idx]
        section = lat.ray_coords[section_idx]
        form = [
            [lat.pair(fiber, fiber), lat.pair(fiber, section)],
            [lat.pair(section, fiber), lat.pair(section, section)],
        ]
        assert form == [[0, 1], [1, -2]]

    def test_dp6_rank(self, dp6):
        assert picard(dp6).rank == 4

    def test_signature_and_unimodularity(self, small_corpus):
        seen = set()
        for entry in small_corpus:
            fan = entry.fan
            if fan in seen:
                continue
            seen.add(fan)
            lat = picard(fan)
            gram = full_gram(fan)
            assert all(gram[i][j] == gram[j][i] for i in range(lat.rank) for j in range(lat.rank))
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
        with pytest.raises(GrothendieckError, match="determinant"):
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
                d1 = [rng.randint(-5, 5) for _ in range(lat.rank)]
                d2 = [rng.randint(-5, 5) for _ in range(lat.rank)]
                full = sum(
                    d1[i] * d2[j] * gram[i][j]
                    for i in range(lat.rank)
                    for j in range(lat.rank)
                )
                assert lat.pair(d1, d2) == full

    def test_ray_pairing_table(self, f2, dp6):
        from toric_surface_lab.lattice_fan import self_intersections

        for fan in (f2, dp6):
            lat = picard(fan)
            a = self_intersections(fan)
            n = fan.n
            for i in range(n):
                for j in range(n):
                    got = lat.pair(lat.ray_coords[i], lat.ray_coords[j])
                    if i == j:
                        assert got == a[i]
                    elif j in ((i + 1) % n, (i - 1) % n):
                        assert got == 1
                    else:
                        assert got == 0


class TestDivisorCoords:
    """The linear map through `ray_coords` against a 2x2 solve per divisor."""

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
        with pytest.raises(grothendieck.IncompatibleFan):
            picard(p2).divisor_coords((1, 0))

    def test_float_coefficients_raise(self, p2):
        with pytest.raises(TypeError):
            picard(p2).divisor_coords((0.9, 0, 0))

    def test_numpy_integers_accepted(self, dp6):
        c = (1, -2, 0, 3, 0, 1)
        assert picard(dp6).divisor_coords(np.array(c, dtype=np.int64)) == (
            picard(dp6).divisor_coords(c))


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
        one = structure_class(fan)
        o_ray = [
            one - line_bundle_class(fan, tuple(-1 if e == i else 0 for e in range(n)))
            for i in range(n)
        ]
        return [one, *o_ray, *(chern_multiply(o_ray[i], o_ray[j]) for i, j in fan.cones())]

    def test_every_klyachko_cone_product_on_corpus(self):
        fans = {entry.fan.rays: entry.fan for entry in standard_corpus(max_rays=16)}
        products = 0
        for fan in fans.values():
            cones = self.cone_classes(fan)
            for i, x in enumerate(cones):
                for y in cones[i:]:
                    assert k0_multiply(x, y) == chern_multiply(x, y)
                    products += 1
        assert products > 10_000

    @pytest.mark.parametrize("make_fan", [p2_fan, lambda: hirzebruch_fan(3), dp6_fan])
    def test_random_triples(self, make_fan):
        """(rank, c1, chi) is a complete invariant and every triple occurs."""
        fan = make_fan()
        rng = random.Random(17)

        def triple():
            return K0Class(fan, rng.randint(-2, 2),
                           tuple(rng.randint(-3, 3) for _ in range(fan.n - 2)),
                           rng.randint(-3, 3))

        for _ in range(300):
            x, y = triple(), triple()
            assert k0_multiply(x, y) == chern_multiply(x, y)


class TestMultiplication:
    def test_square_of_hyperplane(self, p2):
        o1 = line_bundle_class(p2, (1, 0, 0))
        sq = k0_multiply(o1, o1)
        assert sq == line_bundle_class(p2, (2, 0, 0))
        assert sq.chi == 6

    def test_unit_law(self, f2):
        one = structure_class(f2)
        x = line_bundle_class(f2, (2, -1, 3, 0))
        assert k0_multiply(x, one) == x

    def test_tensor_on_line_bundles(self, dp6):
        rng = random.Random(9)
        for _ in range(20):
            a = tuple(rng.randint(-2, 2) for _ in range(6))
            b = tuple(rng.randint(-2, 2) for _ in range(6))
            lhs = k0_multiply(line_bundle_class(dp6, a), line_bundle_class(dp6, b))
            rhs = line_bundle_class(dp6, tuple(x + y for x, y in zip(a, b)))
            assert lhs == rhs

    def test_commutative_associative(self, f2):
        rng = random.Random(1)
        classes = [
            line_bundle_class(f2, tuple(rng.randint(-2, 2) for _ in range(4)))
            for _ in range(9)
        ]
        for x, y, z in zip(classes[::3], classes[1::3], classes[2::3]):
            assert k0_multiply(x, y) == k0_multiply(y, x)
            assert k0_multiply(k0_multiply(x, y), z) == k0_multiply(x, k0_multiply(y, z))

    def test_group_action_is_ring_automorphism(self, dp6):
        g = compute_aut(dp6)
        rng = random.Random(4)
        for perm in g.ray_permutations.values():
            for _ in range(5):
                a = tuple(rng.randint(-2, 2) for _ in range(6))
                b = tuple(rng.randint(-2, 2) for _ in range(6))
                x, y = line_bundle_class(dp6, a), line_bundle_class(dp6, b)
                lhs = act_on_class(dp6, perm, k0_multiply(x, y))
                rhs = k0_multiply(act_on_class(dp6, perm, x), act_on_class(dp6, perm, y))
                assert lhs == rhs

    def test_integer_times_class_raises(self, p2):
        x = line_bundle_class(p2, (1, 0, 0))
        for k in (2, 0, -1):
            with pytest.raises(TypeError):
                k * x
        assert x * x == k0_multiply(x, x)

    def test_incompatible_fans(self, p2, f2):
        from toric_surface_lab.grothendieck import IncompatibleFan

        with pytest.raises(IncompatibleFan):
            k0_multiply(structure_class(p2), structure_class(f2))


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
            assert j[(s + 2) % 4] == k0_multiply(j[f].power(a), j[s])

    def test_dp6_cross_relations(self, dp6):
        j = [line_bundle_class(dp6, unit_divisor(dp6, i)) for i in range(6)]
        # Opposite rays pair up as (u_0,u_3), (u_2,u_5), (u_4,u_1); the ratio
        # of a class to its partner is the same for all three pairs.
        pairs = [(0, 3), (2, 5), (4, 1)]
        for a, b in pairs:
            for c, d in pairs:
                assert k0_multiply(j[a], j[d]) == k0_multiply(j[c], j[b])

    def test_corpus(self, small_corpus):
        seen = set()
        for entry in small_corpus[:40]:
            if entry.fan in seen:
                continue
            seen.add(entry.fan)
            assert verify_klyachko(entry.fan).ok


class TestRecurrence:
    @pytest.mark.parametrize("a", [2, 3, 4, 5])
    def test_holds(self, a):
        assert fa_recurrence_check(hirzebruch_fan(a), range(6))

    def test_m_zero_tautology(self):
        assert fa_recurrence_check(hirzebruch_fan(2), [0])


class TestStandardBasis:
    def test_fa_four_singletons(self):
        fan = hirzebruch_fan(3)
        g = compute_aut(fan)
        basis = standard_permutation_basis(*classify_pair(fan, g), g)
        assert basis.orbit_sizes() == (1, 1, 1, 1)
        cert = verify_permutation_basis(basis, fan, g)
        assert cert.ok

    def test_p2_three_singletons(self, p2, p2_aut):
        basis = standard_permutation_basis(*classify_pair(p2, p2_aut), p2_aut)
        assert basis.orbit_sizes() == (1, 1, 1)
        divisors = set(basis.divisors)
        assert (0, 0, 0) in divisors

    def test_square_signature(self, square, square_aut):
        basis = standard_permutation_basis(*classify_pair(square, square_aut), square_aut)
        assert basis.orbit_sizes() == (1, 2, 1)

    def test_dp6_signature(self, dp6, dp6_aut):
        basis = standard_permutation_basis(*classify_pair(dp6, dp6_aut), dp6_aut)
        assert basis.orbit_sizes() == (1, 3, 2)
        cert = verify_permutation_basis(basis, dp6, dp6_aut)
        assert basis_payload(basis, cert)["stabilizer_indices"] == [1, 3, 2]

    def test_from_minimal_label_directly(self, dp6, dp6_aut):
        from toric_surface_lab.minimal_model import classify_minimal

        label = classify_minimal(dp6, dp6_aut)
        basis = standard_permutation_basis(minimalize(dp6, dp6_aut), label, dp6_aut)
        assert basis.orbit_sizes() == (1, 3, 2)
        assert verify_permutation_basis(basis, dp6, dp6_aut).ok

    def test_transport_on_corpus(self, small_corpus):
        multi_step = 0
        for entry in small_corpus:
            trace, label = classify_pair(entry.fan, entry.group)
            basis = standard_permutation_basis(trace, label, entry.group)
            assert basis.size == entry.fan.n
            cert = verify_permutation_basis(basis, entry.fan, entry.group)
            assert cert.ok
            # The core classes come first, then the O(E) of the last step first.
            exc = [("exc", k) for k in reversed(range(len(trace.steps)))
                   for _ in trace.steps[k].contracted]
            core = basis.size - len(exc)
            assert basis.tags[core:] == tuple(exc)
            assert all(kind == "core" for kind, _ in basis.tags[:core])
            multi_step += len(trace.steps) > 1
        assert multi_step > 0


class TestVerifyBasis:
    def test_rejects_dependent_set(self, f2):
        g = compute_aut(f2)
        divisors = [
            (0, 0, 0, 0),
            unit_divisor(f2, 0),
            unit_divisor(f2, 1),
            unit_divisor(f2, 0, 0),
        ]
        with pytest.raises(NotABasis):
            verify_permutation_basis(divisors, f2, g)

    def test_accepts_paper_dp6_basis(self, dp6, dp6_aut):
        divisors = [
            (0,) * 6,
            unit_divisor(dp6, 0, 5),
            unit_divisor(dp6, 1, 2),
            unit_divisor(dp6, 3, 4),
            unit_divisor(dp6, 0, 1, 2),
            unit_divisor(dp6, 3, 4, 5),
        ]
        cert = verify_permutation_basis(divisors, dp6, dp6_aut)
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
        cert = verify_permutation_basis(np.array(divisors, dtype=np.int64), dp6, dp6_aut)
        assert cert == verify_permutation_basis(divisors, dp6, dp6_aut)
        with pytest.raises(TypeError):
            verify_permutation_basis([[float(x) for x in d] for d in divisors], dp6, dp6_aut)


class TestSearch:
    def test_p2_trivial_bound_two(self, p2):
        basis = search_line_bundle_basis(p2, trivial_group(p2), 2)
        assert basis is not None
        cert = verify_permutation_basis(basis, p2, trivial_group(p2))
        assert cert.ok

    def test_f2_order_two_bound_two(self, f2):
        g = compute_aut(f2)
        basis = search_line_bundle_basis(f2, g, 2)
        assert basis is not None
        assert verify_permutation_basis(basis, f2, g).ok

    def test_bound_zero_absent(self, p2):
        assert search_line_bundle_basis(p2, trivial_group(p2), 0) is None

    def test_deterministic(self, p2):
        g = trivial_group(p2)
        b1 = search_line_bundle_basis(p2, g, 2)
        b2 = search_line_bundle_basis(p2, g, 2)
        assert b1.divisors == b2.divisors

    def test_class_orbit_matches_bfs_closure(self, small_corpus):
        rng = random.Random(29)
        for entry in small_corpus[:40]:
            lat = picard(entry.fan)
            perms = entry.group.ray_permutations.values()
            for _ in range(5):
                d = tuple(rng.randint(-3, 3) for _ in range(entry.fan.n))
                assert grothendieck._class_orbit(lat, perms, d) == bfs_class_orbit(
                    lat, perms, d)

    def test_one_representative_orbits_match_bfs_closure_in_search(self, monkeypatch):
        """On the candidates of bounds 0 and 1, in two bases per pair of at
        most 6 rays, the orbits from the images of one representative equal
        the orbits of a closure, and the search equals the rank-pruned
        reference DFS on the closure's candidates.  For trivial groups on 6
        rays at bound 1, where the reference takes seconds per pair, the
        search's results are certified instead; one is pinned to the
        reference's."""
        rng = random.Random(37)
        searched = certified = 0
        for entry in (e for e in standard_corpus(max_rays=16) if e.fan.n <= 6):
            for fan, group in ((entry.fan, entry.group),
                               random_basis(rng, entry.fan, entry.group)):
                for bound in (0, 1):
                    candidates = grothendieck._candidate_orbits(fan, group, bound)
                    basis = search_line_bundle_basis(fan, group, bound)
                    monkeypatch.setattr(grothendieck, "_class_orbit", bfs_class_orbit)
                    closure = grothendieck._candidate_orbits(fan, group, bound)
                    assert closure == candidates
                    if fan.n == 6 and group.order == 1 and bound == 1:
                        assert verify_permutation_basis(basis, fan, group).ok
                        certified += 1
                        if fan.rays == PINNED_RAYS:
                            assert basis.divisors == PINNED_DIVISORS
                    else:
                        assert rank_pruned_basis_search(fan, group, *closure) == basis
                    monkeypatch.undo()
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
        basis = standard_permutation_basis(trace, label, g)
        tags = dict(zip(basis.divisors, basis.tags))
        exceptional = [d for d, t in tags.items() if t[0] == "exc"]
        assert exceptional == [(0, 1, 0, 0)]
