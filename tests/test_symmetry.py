import pickle
import random

import pytest

from toric_surface_lab.corpus import standard_corpus
from toric_surface_lab.intlinalg import mat_inv, mat_mul, xgcd
from toric_surface_lab.lattice_fan import (
    apply_matrix,
    blow_up,
    dp6_fan,
    hirzebruch_fan,
    p2_fan,
    self_intersections,
    square_fan,
)
from toric_surface_lab.minimal_model import minimalize
from toric_surface_lab.symmetry import (
    CONJUGACY_LABELS,
    TABLE_GENERATORS,
    GEN_A,
    NotFinite,
    SymmetryError,
    SymmetryGroup,
    _conjugator_pool,
    classify_subgroup,
    compute_aut,
    element_order,
    enumerate_subgroups,
    trivial_group,
)

from oracles import (
    bfs_cone_orbits,
    bfs_ray_orbits,
    brute_force_subgroups,
    closure_subgroups,
    unimodular_matrices,
)


def random_unimodular(rng: random.Random, bound: int = 3):
    while True:
        m = (
            (rng.randint(-bound, bound), rng.randint(-bound, bound)),
            (rng.randint(-bound, bound), rng.randint(-bound, bound)),
        )
        if m[0][0] * m[1][1] - m[0][1] * m[1][0] in (1, -1):
            return m


def large_unimodular(rng: random.Random, bound: int = 10**6):
    """A GL(2,Z) matrix with entries up to `bound`: a coprime first column
    (a, c), the second column (b, d) from xgcd, then a random shear and sign."""
    while True:
        a, c = rng.randint(-bound, bound), rng.randint(-bound, bound)
        g, s, t = xgcd(a, c)  # s a + t c = g
        if g != 1:
            continue
        k = rng.randint(-3, 3)
        sign = rng.choice((1, -1))
        m = ((a, sign * (k * a - t)), (c, sign * (k * c + s)))
        if all(abs(x) <= bound for row in m for x in row):
            return m


class TestComputeAut:
    def test_orders(self):
        assert compute_aut(p2_fan()).order == 6
        assert compute_aut(square_fan()).order == 8
        assert compute_aut(dp6_fan()).order == 12
        for a in (2, 3, 4, 5):
            assert compute_aut(hirzebruch_fan(a)).order == 2

    def test_closure_and_identity(self):
        g = compute_aut(dp6_fan())
        elems = g.elements
        assert ((1, 0), (0, 1)) in elems
        for a in elems:
            assert mat_inv(a) in elems
            for b in elems:
                assert mat_mul(a, b) in elems

    def test_ray_permutations_bijective(self):
        g = compute_aut(square_fan())
        for perm in g.ray_permutations.values():
            assert sorted(perm) == list(range(4))

    def test_conjugation_equivariance(self):
        rng = random.Random(3)
        fan = dp6_fan()
        aut = compute_aut(fan).elements
        for _ in range(10):
            m = random_unimodular(rng, 2)
            image_fan = apply_matrix(m, fan)
            conj = compute_aut(image_fan).elements
            mi = mat_inv(m)
            assert conj == frozenset(mat_mul(m, mat_mul(g, mi)) for g in aut)

    def test_generators_generate(self):
        g = compute_aut(dp6_fan())
        assert SymmetryGroup.from_generators(g.generators).elements == g.elements

    @pytest.mark.parametrize(
        "generators",
        ["x", None, [[[1.5, 0], [0, 1]]], [[[True, 0], [0, 1]]], [[1, 0]], [[[1, 0]]]],
        ids=["string", "none", "float", "bool", "vector", "one-row"],
    )
    def test_from_generators_rejects_non_matrices(self, generators):
        with pytest.raises(SymmetryError):
            SymmetryGroup.from_generators(generators)


class TestClassify:
    def test_table_representatives_self_classify(self):
        for label, gens in TABLE_GENERATORS.items():
            assert classify_subgroup(SymmetryGroup.from_generators(gens)) == label

    def test_quarter_turn_is_c4(self):
        assert classify_subgroup([((0, -1), (1, 0))]) == "C4"

    def test_swap_vs_flip(self):
        assert classify_subgroup([((0, 1), (1, 0))]) == "D2"
        assert classify_subgroup([((1, 0), (0, -1))]) == "D2'"

    def test_shear_reflection_is_d2(self):
        # Eigenlattice of index 2 marks the swap type.
        m = ((1, 1), (0, -1))
        assert classify_subgroup([m]) == "D2"

    def test_not_finite(self):
        with pytest.raises(NotFinite):
            classify_subgroup([((1, 1), (0, 1))])

    def test_conjugation_invariance(self):
        """Conjugates by small matrices (entries <= 3) and by large ones
        (entries up to 10^6) keep the label of their class."""
        for draw, seed, per_class in ((random_unimodular, 11, 25), (large_unimodular, 13, 100)):
            rng = random.Random(seed)
            for label, gens in TABLE_GENERATORS.items():
                for _ in range(per_class):
                    m = draw(rng)
                    mi = mat_inv(m)
                    conj = [mat_mul(m, mat_mul(g, mi)) for g in gens]
                    assert classify_subgroup(conj) == label

    def test_conjugator_pool_is_the_oracle_sequence(self):
        """Built shell by shell, the pool is still every matrix with entries
        bounded by the bound, in the oracle's order, so the first matching
        conjugator, and with it the label, is the same."""
        for bound in range(6):
            assert list(_conjugator_pool(bound)) == unimodular_matrices(bound)

    def test_labels_mutually_exclusive(self):
        assert len(set(CONJUGACY_LABELS)) == 13

    def test_aut_labels(self):
        assert classify_subgroup(compute_aut(p2_fan())) == "D6"
        assert classify_subgroup(compute_aut(square_fan())) == "D8"
        assert classify_subgroup(compute_aut(dp6_fan())) == "D12"
        assert classify_subgroup(compute_aut(hirzebruch_fan(2))) == "D2'"
        assert classify_subgroup(compute_aut(hirzebruch_fan(3))) == "D2"


class TestSubgroups:
    def test_counts(self):
        assert len(enumerate_subgroups(compute_aut(p2_fan()))) == 6
        assert len(enumerate_subgroups(compute_aut(square_fan()))) == 10
        assert len(enumerate_subgroups(compute_aut(dp6_fan()))) == 16

    def test_trivial(self):
        subs = enumerate_subgroups(trivial_group())
        assert len(subs) == 1
        assert subs[0].order == 1

    def test_matches_subset_closure_oracle(self):
        for fan in (p2_fan(), square_fan(), dp6_fan()):
            group = compute_aut(fan)
            got = {s.elements for s in enumerate_subgroups(group)}
            assert got == brute_force_subgroups(group.elements)

    def test_generators_regenerate(self):
        for sub in enumerate_subgroups(compute_aut(square_fan())):
            assert SymmetryGroup.from_generators(sub.generators).elements == sub.elements

    def test_table_closure_matches_oracles_on_corpus(self):
        """Every 16-ray corpus automorphism group, in its own and two random bases."""
        def described(subs):
            return [(s.elements, s.generators, s.fan, s.ray_permutations) for s in subs]

        fans = {e.fan.rays: e.fan for e in standard_corpus(max_rays=16)}
        rng = random.Random(29)
        for fan in fans.values():
            images = [fan] + [apply_matrix(random_unimodular(rng), fan) for _ in range(2)]
            for image in images:
                aut = compute_aut(image)
                got = enumerate_subgroups(aut)
                assert described(got) == described(closure_subgroups(aut))
                for sub in got:
                    fresh = SymmetryGroup(sub.elements, sub.generators).attach(image)
                    assert sub.ray_permutations == fresh.ray_permutations
                assert {s.elements for s in got} == brute_force_subgroups(aut.elements)
            # The last basis again, unattached and attached without ray permutations.
            for bare in (
                SymmetryGroup(aut.elements, aut.generators),
                SymmetryGroup(aut.elements, aut.generators, fan=images[-1]),
            ):
                assert described(enumerate_subgroups(bare)) == described(
                    closure_subgroups(bare)
                )

    def test_rejects_element_set_that_is_not_a_group(self):
        with pytest.raises(SymmetryError):
            enumerate_subgroups(SymmetryGroup(frozenset({GEN_A}), (GEN_A,)))


class TestOrbits:
    def test_orbits_match_bfs_closure_on_corpus(self):
        """Ray and cone orbits from the images of one member equal the BFS
        closure's, for every 16-ray corpus pair and its full automorphism
        group, in the pair's own basis and in a random one."""
        rng = random.Random(43)
        for entry in standard_corpus(max_rays=16):
            m = random_unimodular(rng)
            mi = mat_inv(m)
            image = apply_matrix(m, entry.fan)
            conj = [mat_mul(m, mat_mul(g, mi)) for g in entry.group.generators]
            for group in (
                entry.group,
                compute_aut(entry.fan),
                SymmetryGroup.from_generators(conj, image),
                compute_aut(image),
            ):
                assert group.ray_orbits() == bfs_ray_orbits(group)
                assert group.cone_orbits() == bfs_cone_orbits(group)


class TestInvariants:
    def test_element_orders_divide_group_order(self):
        for fan in (p2_fan(), square_fan(), dp6_fan()):
            g = compute_aut(fan)
            for m in g.elements:
                assert g.order % element_order(m) == 0

    def test_aut_preserves_self_intersections(self):
        for fan in (p2_fan(), hirzebruch_fan(3), dp6_fan()):
            a = self_intersections(fan)
            g = compute_aut(fan)
            for perm in g.ray_permutations.values():
                assert tuple(a[perm[i]] for i in range(fan.n)) == a

    def test_all_thirteen_realized(self):
        realized = set()
        for fan in (p2_fan(), square_fan(), dp6_fan(), hirzebruch_fan(2), hirzebruch_fan(3)):
            for sub in enumerate_subgroups(compute_aut(fan)):
                realized.add(classify_subgroup(sub))
        assert realized == set(CONJUGACY_LABELS)


class TestRecords:
    """Fan and SymmetryGroup are immutable slots classes."""

    def test_attribute_assignment_raises(self):
        fan = dp6_fan()
        group = compute_aut(fan)
        for record, name in ((fan, "rays"), (fan, "n"), (fan, "extra"),
                             (group, "elements"), (group, "ray_permutations"),
                             (group, "extra")):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert fan == dp6_fan() and group == compute_aut(fan)

    def test_group_equality_ignores_ray_permutations(self):
        fan = dp6_fan()
        aut = compute_aut(fan)
        bare = SymmetryGroup(aut.elements, aut.generators, fan)
        assert bare.ray_permutations is None
        for twin in (bare, bare.attach(fan), aut.attach(fan), aut.on(fan),
                     SymmetryGroup(aut.elements, aut.generators, fan, {})):
            assert twin == aut and aut == twin
            assert not (twin != aut) and not (aut != twin)
            assert hash(twin) == hash(aut)
        assert len(aut.generators) > 1
        for other in (SymmetryGroup(aut.elements, aut.generators),
                      SymmetryGroup(aut.elements, aut.generators[::-1], fan),
                      (aut.elements, aut.generators, fan)):
            assert other != aut and aut != other
            assert not (other == aut) and not (aut == other)

    def test_pickle_round_trip(self):
        blown = blow_up(dp6_fan(), range(6))
        aut = compute_aut(blown)
        trace = minimalize(blown, aut)
        assert trace.steps and trace.terminal_group.order == 12
        for record in (blown, aut, trace):
            twin = pickle.loads(pickle.dumps(record))
            assert twin == record and hash(twin) == hash(record)
        assert pickle.loads(pickle.dumps(aut)).ray_permutations == aut.ray_permutations
        terminal = pickle.loads(pickle.dumps(trace)).terminal_group
        assert terminal.ray_permutations == trace.terminal_group.ray_permutations
