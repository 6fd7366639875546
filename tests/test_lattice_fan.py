import copy
import pickle
import random

import pytest

from toric_surface_lab.corpus import standard_corpus
from toric_surface_lab.intlinalg import mat_apply
from toric_surface_lab.lattice_fan import (
    AdjacentContraction,
    apply_matrix,
    Fan,
    FanError,
    NonPrimitiveRay,
    NotComplete,
    NotCounterclockwise,
    NotMinusOneCurve,
    NotSmooth,
    TooFewRays,
    _shift_maps,
    blow_down,
    blow_up,
    dp6_fan,
    fans_isomorphic,
    hirzebruch_fan,
    p2_fan,
    self_intersections,
    square_fan,
    validate_fan,
)
from toric_surface_lab.symmetry import compute_aut

from oracles import (
    angle_order_validate_fan,
    brute_force_isomorphisms,
    candidate_filter_maps,
    unimodular_matrices,
    validate_fan_inputs,
    validate_outcome,
)


class TestValidate:
    def test_p2(self):
        fan = validate_fan([(1, 0), (0, 1), (-1, -1)])
        assert fan.n == 3

    def test_f2(self):
        fan = validate_fan([(1, 0), (0, 1), (-1, 2), (0, -1)])
        assert fan.n == 4
        assert fan == hirzebruch_fan(2)

    def test_nonprimitive(self):
        with pytest.raises(NonPrimitiveRay):
            validate_fan([(2, 0), (0, 1), (-1, -1)])

    def test_zero_ray(self):
        with pytest.raises(NonPrimitiveRay):
            validate_fan([(0, 0), (0, 1), (-1, -1)])

    def test_too_few(self):
        with pytest.raises(TooFewRays):
            validate_fan([(1, 0), (0, 1)])

    def test_not_smooth(self):
        with pytest.raises(NotSmooth):
            validate_fan([(1, 0), (1, 2), (-1, -1)])

    def test_clockwise(self):
        with pytest.raises(NotCounterclockwise):
            validate_fan([(1, 0), (0, -1), (0, 1)])

    def test_double_winding(self):
        rays = [(1, 0), (0, 1), (-1, 0), (0, -1)] * 2
        with pytest.raises(NotComplete):
            validate_fan(rays)

    @pytest.mark.parametrize(
        "rays",
        [
            [(True, False), (0, 1), (-1, -1)],
            [(1.0, 0), (0, 1), (-1, -1)],
            [(1, 0, 0), (0, 1), (-1, -1)],
            [1, 2, 3],
            [None, (0, 1), (-1, -1)],
        ],
        ids=["bools", "floats", "triple", "flat", "none"],
    )
    def test_entry_not_an_int_pair(self, rays):
        with pytest.raises(NonPrimitiveRay):
            validate_fan(rays)

    @pytest.mark.parametrize("rays", [None, "abc", {(1, 0): 1}])
    def test_not_a_ray_list(self, rays):
        with pytest.raises(FanError):
            validate_fan(rays)

    def test_canonical_rotation(self):
        fan = validate_fan([(0, 1), (-1, -1), (1, 0)])
        assert fan.rays[0] == (1, 0)
        assert fan == p2_fan()

    def test_idempotent(self):
        fan = dp6_fan()
        assert validate_fan(fan.rays) == fan

    def test_matches_angle_order_oracle(self):
        """The same Fan, or the same exception type and message, as ordering
        the rays by pairwise angle comparisons: on every 16-ray corpus fan in
        random bases and rotations, and on those ray lists reversed, doubled,
        cut to the upper half-plane, with two rays swapped, and on random
        ray lists (`validate_fan_inputs`, seed 53; the `validate` row of
        `sweeps.py` runs seeds 0-99)."""
        inputs = validate_fan_inputs({e.fan for e in standard_corpus(max_rays=16)}, 53)
        assert len(inputs) == 2322
        kinds = set()
        for rays in inputs:
            got = validate_outcome(validate_fan, rays)
            assert got == validate_outcome(angle_order_validate_fan, rays), rays
            kinds.add(got[0] if isinstance(got, tuple) else Fan)
        assert kinds == {Fan, NonPrimitiveRay, NotComplete, NotCounterclockwise, NotSmooth,
                         TooFewRays}


class TestSelfIntersections:
    def test_p2(self):
        assert self_intersections(p2_fan()) == (1, 1, 1)

    def test_f2(self):
        assert self_intersections(hirzebruch_fan(2)) == (0, -2, 0, 2)

    def test_dp6(self):
        assert self_intersections(dp6_fan()) == (-1,) * 6

    def test_noether_sum(self):
        for fan in (p2_fan(), hirzebruch_fan(4), square_fan(), dp6_fan()):
            assert sum(self_intersections(fan)) == 12 - 3 * fan.n


class TestBlowUp:
    def test_p2_one_cone_gives_f1(self):
        fan = blow_up(p2_fan(), [0])
        assert fan.rays == ((1, 0), (1, 1), (0, 1), (-1, -1))
        assert self_intersections(fan) == (0, -1, 0, 1)

    def test_p2_all_cones_gives_dp6(self):
        fan = blow_up(p2_fan(), [0, 1, 2])
        assert self_intersections(fan) == (-1,) * 6
        assert fans_isomorphic(fan, dp6_fan()) is not None

    def test_neighbours_drop_by_one(self):
        fan = square_fan()
        before = dict(zip(fan.rays, self_intersections(fan)))
        blown = blow_up(fan, [1])
        after = dict(zip(blown.rays, self_intersections(blown)))
        inserted = set(blown.rays) - set(fan.rays)
        (new_ray,) = inserted
        assert after[new_ray] == -1
        assert after[fan.rays[1]] == before[fan.rays[1]] - 1
        assert after[fan.rays[2]] == before[fan.rays[2]] - 1
        assert after[fan.rays[0]] == before[fan.rays[0]]

    def test_blow_up_then_down_roundtrip(self):
        rng = random.Random(7)
        fan = dp6_fan()
        for _ in range(25):
            k = rng.randint(1, fan.n)
            cones = rng.sample(range(fan.n), k)
            blown = blow_up(fan, cones)
            inserted = [i for i, v in enumerate(blown.rays) if v not in set(fan.rays)]
            assert blow_down(blown, inserted) == fan

    def test_invalid_cone_index(self):
        from toric_surface_lab.lattice_fan import InvalidConeIndex

        with pytest.raises(InvalidConeIndex):
            blow_up(p2_fan(), [5])

    @pytest.mark.parametrize("index", [True, 1.0, "1", None])
    @pytest.mark.parametrize("surgery", [blow_up, blow_down])
    def test_index_must_be_an_int(self, surgery, index):
        """A bool is not read as 0 or 1, and a float, a string or None is
        refused as an index rather than failing inside the comparison."""
        from toric_surface_lab.lattice_fan import InvalidConeIndex

        with pytest.raises(InvalidConeIndex):
            surgery(dp6_fan(), [index])


class TestBlowDown:
    def test_f1_to_p2(self):
        f1 = blow_up(p2_fan(), [0])
        assert blow_down(f1, [1]) == p2_fan()

    def test_dp6_to_square(self):
        fan = dp6_fan()
        idx = [fan.rays.index((1, 1)), fan.rays.index((-1, -1))]
        assert blow_down(fan, idx) == square_fan()

    def test_not_minus_one(self):
        with pytest.raises(NotMinusOneCurve):
            blow_down(hirzebruch_fan(2), [1])

    def test_adjacent(self):
        with pytest.raises(AdjacentContraction):
            blow_down(dp6_fan(), [0, 1])


class TestIsomorphism:
    def test_relabeled_p2(self):
        m = ((0, -1), (1, -1))
        f2 = apply_matrix(m, p2_fan())
        got = fans_isomorphic(p2_fan(), f2)
        assert got is not None
        assert {mat_apply(got, v) for v in p2_fan().rays} == set(f2.rays)

    def test_different_ray_count(self):
        assert fans_isomorphic(p2_fan(), hirzebruch_fan(2)) is None

    def test_square_self_maps(self):
        fan = square_fan()
        got = fans_isomorphic(fan, fan)
        assert got is not None
        oracle = brute_force_isomorphisms(fan, fan, bound=2)
        assert len(oracle) == 8
        assert got in oracle

    def test_matches_brute_force_on_small_fans(self):
        fans = [p2_fan(), square_fan(), hirzebruch_fan(2), dp6_fan()]
        for fa in fans:
            for fb in fans:
                got = fans_isomorphic(fa, fb)
                oracle = brute_force_isomorphisms(fa, fb, bound=2)
                assert (got is not None) == bool(oracle)
                if got is not None:
                    target = set(fb.rays)
                    assert all(mat_apply(got, v) in target for v in fa.rays)

    def test_f2_not_isomorphic_to_square(self):
        assert fans_isomorphic(hirzebruch_fan(2), square_fan()) is None

    def test_lattice_maps_match_candidate_filter_on_corpus(self):
        """The matrices of `_shift_maps`, behind `fans_isomorphic` and the
        automorphisms, are the same in the same order as filtering every
        candidate by its images, on each 16-ray corpus fan and a random-basis
        image of it, and on a non-isomorphic fan of the same ray count (one
        with the same multiset of self-intersections where the corpus has
        one)."""
        fans = list({e.fan.rays: e.fan for e in standard_corpus(max_rays=16)}.values())
        pool = unimodular_matrices(3)
        rng = random.Random(41)
        same_multiset = 0
        for fan in fans:
            image = apply_matrix(rng.choice(pool), fan)
            pairs = [(fan, fan), (image, image), (fan, image), (image, fan)]
            others = [f for f in fans if f.n == fan.n and not candidate_filter_maps(fan, f)]
            others.sort(key=lambda f: sorted(self_intersections(f))
                        != sorted(self_intersections(fan)))
            if others:
                same_multiset += sorted(self_intersections(others[0])) == sorted(
                    self_intersections(fan))
                pairs += [(fan, others[0]), (image, others[0])]
            for f1, f2 in pairs:
                assert [m for _, _, m in _shift_maps(f1, f2)] == candidate_filter_maps(f1, f2)
        assert same_multiset > 0


class TestProperties:
    def test_noether_on_random_chains(self, small_corpus):
        for entry in small_corpus:
            assert sum(self_intersections(entry.fan)) == 12 - 3 * entry.fan.n

    def test_selfint_invariant_under_aut(self, small_corpus):
        for entry in small_corpus[:40]:
            fan = entry.fan
            a = self_intersections(fan)
            aut = compute_aut(fan)
            for perm in aut.ray_permutations.values():
                assert all(a[perm[i]] == a[i] for i in range(fan.n))

    def test_hirzebruch_twist_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            hirzebruch_fan(-1)

    def test_fan_values_are_hashable_and_equal(self):
        assert hash(p2_fan()) == hash(validate_fan([(0, 1), (-1, -1), (1, 0)]))
        assert Fan(p2_fan().rays) == p2_fan()


class TestHashOnce:
    """The hash is computed once per Fan; equal fans must still hash equal."""

    @pytest.mark.parametrize("make_fan", [p2_fan, lambda: hirzebruch_fan(3), dp6_fan])
    def test_equal_fans_built_different_ways(self, make_fan):
        from toric_surface_lab.intlinalg import mat_inv

        fan = make_fan()
        m = ((2, 1), (1, 1))
        rotated = list(fan.rays[2:] + fan.rays[:2])
        twins = [
            validate_fan(rotated),
            Fan(tuple(tuple(v) for v in fan.rays)),
            apply_matrix(mat_inv(m), apply_matrix(m, fan)),
            pickle.loads(pickle.dumps(fan)),
            copy.deepcopy(fan),
            copy.copy(fan),
        ]
        for twin in twins:
            assert twin == fan
            assert hash(twin) == hash(fan) == hash(fan.rays)
            assert len({twin, fan}) == 1
