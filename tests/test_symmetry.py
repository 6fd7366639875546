import itertools
import pickle
import random

import pytest

from toric_surface_lab import symmetry
from toric_surface_lab.corpus import standard_corpus
from toric_surface_lab.intlinalg import mat_det, mat_inv, mat_mul, xgcd
from toric_surface_lab.lattice_fan import (
    InternalError,
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
    GEN_B,
    IDENTITY,
    NotFinite,
    SymmetryError,
    SymmetryGroup,
    _close,
    _rotation_and_reflection,
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
    conjugate_group,
    greedy_generating_set,
    invariant_form_reduction,
    loop_classify,
    pairwise_close,
    random_basis,
    random_unimodular,
    unimodular_matrices,
)


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


NON_MATRICES = pytest.mark.parametrize(
    "generators",
    ["x", None, [[[1.5, 0], [0, 1]]], [[[True, 0], [0, 1]]], [[1, 0]], [[[1, 0]]],
     [[[0.0, 1], [1, 0]]], [[[1, 0, 0], [0, 1, 0]]]],
    ids=["string", "none", "float", "bool", "vector", "one-row", "float-swap",
         "three-entry-rows"],
)


def conjugated(group: SymmetryGroup, m) -> SymmetryGroup:
    """m G m^-1, closed from the conjugated generators."""
    mi = mat_inv(m)
    return SymmetryGroup.from_generators([mat_mul(m, mat_mul(g, mi)) for g in group.generators])


def table_conjugates():
    """(label, conjugated generators) for each class representative: 25
    conjugates by matrices with entries <= 3 and 100 with entries up to 10^6."""
    for draw, seed, per_class in ((random_unimodular, 11, 25), (large_unimodular, 13, 100)):
        rng = random.Random(seed)
        for label, gens in TABLE_GENERATORS.items():
            for _ in range(per_class):
                m = draw(rng)
                mi = mat_inv(m)
                yield label, [mat_mul(m, mat_mul(g, mi)) for g in gens]


def closure_outcome(close, gens):
    """The closure of `gens`, or NotFinite if `close` raises it."""
    try:
        return close(gens)
    except NotFinite:
        return NotFinite


def first_label(elems, conjugators):
    """The label of the first representative that a conjugator carries
    `elems` onto, or None."""
    labels = {_close(gens): label for label, gens in TABLE_GENERATORS.items()}
    for p in conjugators:
        label = labels.get(conjugate_group(elems, p))
        if label is not None:
            return label
    return None


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

    def test_generators_match_greedy_closure_oracle_on_corpus(self):
        """Every 16-ray corpus fan, in its own basis and in three random ones."""
        fans = {e.fan.rays: e.fan for e in standard_corpus(max_rays=16)}
        rng = random.Random(31)
        for fan in fans.values():
            aut = compute_aut(fan)
            images = [fan] + [random_basis(rng, fan, aut)[0] for _ in range(3)]
            for image in images:
                got = compute_aut(image)
                assert got.generators == greedy_generating_set(got.elements), image

    @pytest.mark.parametrize("det, m", [(0, ((0, 0), (0, 0))), (2, ((2, 0), (0, 1))),
                                        (-3, ((1, 2), (2, 1)))], ids=["0", "2", "-3"])
    def test_from_generators_rejects_determinant_other_than_unit(self, det, m):
        """Caught before the closure, so the message names the determinant and
        not an infinite order."""
        for gens in ([m], [GEN_A, m]):
            with pytest.raises(SymmetryError) as excinfo:
                SymmetryGroup.from_generators(gens)
            assert excinfo.type is SymmetryError
            assert str(excinfo.value) == f"generator {m} has determinant {det}, not 1 or -1"

    @NON_MATRICES
    def test_from_generators_rejects_non_matrices(self, generators):
        with pytest.raises(SymmetryError):
            SymmetryGroup.from_generators(generators)


class TestClose:
    def test_matches_pairwise_close_on_corpus_generators(self):
        """Every 16-ray corpus automorphism group and each of its subgroups,
        closed from its generators."""
        fans = {e.fan.rays: e.fan for e in standard_corpus(max_rays=16)}
        for fan in fans.values():
            aut = compute_aut(fan)
            assert _close(aut.generators) == pairwise_close(aut.generators) == aut.elements
            for sub in enumerate_subgroups(aut):
                assert _close(sub.generators) == pairwise_close(sub.generators) == sub.elements

    def test_matches_pairwise_close_on_unit_entry_sets(self):
        """Every set of at most two 2x2 matrices with entries in {-1, 0, 1},
        singular and infinite-order ones included: the same group, or
        NotFinite from both."""
        mats = [((a, b), (c, d)) for a, b, c, d in itertools.product((-1, 0, 1), repeat=4)]
        sets = itertools.chain([()], ((m,) for m in mats), itertools.combinations(mats, 2))
        groups = set()
        for gens in sets:
            got = closure_outcome(_close, gens)
            assert got == closure_outcome(pairwise_close, gens), gens
            if got is not NotFinite:
                groups.add(got)
        assert len(groups) == 32


def rotation_and_reflection_picks(elems) -> tuple:
    """(r,) or (r, s): a largest-order rotation, the least reflection."""
    ordered = sorted(elems)
    r = max((g for g in ordered if mat_det(g) == 1),
            key=lambda g: element_order(g) or 0, default=IDENTITY)
    return (r, *[g for g in ordered if mat_det(g) == -1][:1])


def closure_verdict(elems):
    """Whether r and s as `_rotation_and_reflection` picks them close to
    exactly `elems` by `_close`: True, SymmetryError, or NotFinite for an r
    or s of infinite order."""
    gens = rotation_and_reflection_picks(elems)
    if any(element_order(g) is None for g in gens):
        return NotFinite
    return True if closure_outcome(_close, gens) == elems else SymmetryError


def presentation_verdict(elems):
    """True if `_rotation_and_reflection` accepts `elems`, else the class of
    the exception it raises."""
    try:
        _rotation_and_reflection(elems)
    except SymmetryError as exc:
        return type(exc)
    return True


class TestPresentation:
    def test_matches_closure_on_corpus_subgroups(self):
        """Every subgroup of every 16-ray corpus automorphism group, in two
        random bases, and each with its last element dropped and with the
        first element of the group outside it added."""
        fans = {e.fan.rays: e.fan for e in standard_corpus(max_rays=16)}
        rng = random.Random(37)
        verdicts = set()
        for fan in fans.values():
            aut = compute_aut(fan)
            for _ in range(2):
                image_aut = compute_aut(random_basis(rng, fan, aut)[0])
                for sub in enumerate_subgroups(image_aut):
                    members = sorted(sub.elements)
                    outside = sorted(image_aut.elements - sub.elements)
                    sets = [sub.elements, frozenset(members[:-1])]
                    sets += [sub.elements | {outside[0]}] if outside else []
                    for elems in sets:
                        verdict = presentation_verdict(elems)
                        assert verdict == closure_verdict(elems), members
                        verdicts.add(verdict)
        assert verdicts == {True, SymmetryError}

    def test_planted_non_groups(self):
        """The two sets of test_rejects_element_set_that_is_not_a_group, D12
        with each reflection replaced by a reflection outside it, and D12
        without I."""
        s = ((1, 1), (0, -1))
        rotations = SymmetryGroup.from_generators([GEN_B]).elements
        d12 = SymmetryGroup.from_generators(TABLE_GENERATORS["D12"]).elements
        assert s not in d12 and element_order(s) == 2
        planted = [frozenset({GEN_A}), rotations | {mat_mul(g, s) for g in rotations},
                   d12 - {IDENTITY}]
        planted += [(d12 - {g}) | {s} for g in sorted(d12) if mat_det(g) == -1]
        assert len(planted) == 9
        for elems in planted:
            assert closure_verdict(elems) is SymmetryError
            with pytest.raises(SymmetryError) as excinfo:
                _rotation_and_reflection(elems)
            assert excinfo.type is SymmetryError
            assert str(excinfo.value) == f"the elements are not a group: {sorted(elems)}"

    @pytest.mark.parametrize("elems", [
        frozenset({((1, 1), (0, 1))}),
        frozenset({IDENTITY, ((1, 1), (1, 0))}),
        frozenset({IDENTITY, GEN_A, ((2, 1), (1, 0))}),
    ], ids=["shear-rotation", "reflection-of-trace-1", "reflection-of-trace-2"])
    def test_infinite_rotation_or_reflection(self, elems):
        """NotFinite, with the message `_close` gives for the same r and s."""
        assert closure_verdict(elems) is NotFinite
        with pytest.raises(NotFinite) as want:
            _close(rotation_and_reflection_picks(elems))
        with pytest.raises(NotFinite) as got:
            _rotation_and_reflection(elems)
        assert str(got.value) == str(want.value)


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

    @NON_MATRICES
    def test_rejects_non_matrices(self, generators):
        """A list of generators goes through the same checks as
        SymmetryGroup.from_generators."""
        with pytest.raises(SymmetryError):
            classify_subgroup(generators)

    def test_conjugation_invariance(self):
        """Conjugates by small matrices (entries <= 3) and by large ones
        (entries up to 10^6) keep the label of their class."""
        for label, conj in table_conjugates():
            assert classify_subgroup(conj) == label

    def test_loop_classify_reduces_to_unit_entries(self):
        """The search oracle on the same conjugates: each reduced group has
        entries in {-1, 0, 1}, where its 40 conjugators reach the label."""
        for label, conj in table_conjugates():
            elems = SymmetryGroup.from_generators(conj).elements
            reduced = conjugate_group(elems, invariant_form_reduction(elems))
            assert {x for g in reduced for row in g for x in row} <= {-1, 0, 1}
            assert loop_classify(SymmetryGroup(elems, tuple(conj))) == label

    def test_unit_entry_conjugators_suffice(self):
        """Every finite group generated by at most two finite-order matrices
        with entries in {-1, 0, 1} (a superset of the reduced groups) gets
        the same label from the closed form as from the first of the 616
        matrices with entries up to 5 that carries it onto a class
        representative."""
        finite = [m for m in unimodular_matrices(1) if element_order(m) is not None]
        groups = set()
        for gens in itertools.chain(
            [()], ((a,) for a in finite), itertools.combinations(finite, 2)
        ):
            try:
                groups.add(_close(gens))
            except NotFinite:
                continue
        assert len(groups) == 32
        pool = unimodular_matrices(5)
        assert len(pool) == 616
        for elems in groups:
            label = first_label(elems, pool)
            assert label is not None
            assert classify_subgroup(SymmetryGroup(elems, tuple(sorted(elems)))) == label

    def test_matches_uncached_oracle_on_corpus_subgroups(self):
        """Every subgroup of every 16-ray corpus pair's automorphism group, in
        its own basis and in 3 seeded random bases."""
        rng = random.Random(61)
        for entry in standard_corpus(max_rays=16):
            for sub in enumerate_subgroups(compute_aut(entry.fan)):
                for group in [sub] + [conjugated(sub, random_unimodular(rng)) for _ in range(3)]:
                    assert classify_subgroup(group) == loop_classify(group)

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
        """{A} lacks the identity.  <B> with the coset <B>s, s = [[1,1],[0,-1]],
        has the dihedral shape but is not closed: s B s = [[1,2],[-1,-1]] is
        not in <B>."""
        s = ((1, 1), (0, -1))
        rotations = SymmetryGroup.from_generators([GEN_B]).elements
        coset = rotations | {mat_mul(g, s) for g in rotations}
        assert len(coset) == 8 and mat_mul(s, mat_mul(GEN_B, s)) not in rotations
        for elems in (frozenset({GEN_A}), coset):
            group = SymmetryGroup(elems, tuple(sorted(elems)))
            for f in (enumerate_subgroups, classify_subgroup):
                with pytest.raises(SymmetryError):
                    f(group)


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


def corpus_fans_in_three_bases(seed):
    """Each distinct 16-ray corpus fan in its own basis and in two random ones."""
    rng = random.Random(seed)
    fans = {e.fan.rays: e.fan for e in standard_corpus(max_rays=16)}
    for fan in fans.values():
        yield fan
        for _ in range(2):
            yield apply_matrix(random_unimodular(rng), fan)


def count_certifications(monkeypatch) -> list:
    """The element sets `_rotation_and_reflection` is called on from now on."""
    calls = []
    real = symmetry._rotation_and_reflection
    monkeypatch.setattr(symmetry, "_rotation_and_reflection",
                        lambda elems: calls.append(elems) or real(elems))
    return calls


class TestCarriedPresentation:
    """compute_aut reads the presentation and the ray permutations off the
    lattice-map shifts, and each subgroup inherits its presentation: checked
    against attach, against certification of the bare element set, and
    against the search of loop_classify."""

    def test_aut_ray_permutations_match_attach(self):
        for fan in corpus_fans_in_three_bases(71):
            aut = compute_aut(fan)
            bare = SymmetryGroup(aut.elements, aut.generators).attach(fan)
            assert list(aut.ray_permutations.items()) == list(bare.ray_permutations.items())

    def test_shift_that_misreads_the_images_is_an_internal_error(self, monkeypatch):
        real = symmetry._shift_maps
        monkeypatch.setattr(symmetry, "_shift_maps",
                            lambda f1, f2: ((j + 1, sign, g) for j, sign, g in real(f1, f2)))
        with pytest.raises(InternalError):
            compute_aut(dp6_fan())

    def test_subgroup_labels_agree_with_bare_rebuild_and_loop_oracle(self):
        for fan in corpus_fans_in_three_bases(73):
            aut = compute_aut(fan)
            for sub in [aut, *enumerate_subgroups(aut)]:
                r, s = sub.presentation
                assert mat_det(r) == 1 and (s is None or mat_det(s) == -1)
                assert _close([r] + [s] * (s is not None)) == sub.elements
                bare = SymmetryGroup(sub.elements, sub.generators)
                assert bare.presentation is None
                assert classify_subgroup(sub) == classify_subgroup(bare) == loop_classify(sub)

    def test_pickle_attach_and_descent_keep_it_and_equality_ignores_it(self):
        for fan in corpus_fans_in_three_bases(79):
            aut = compute_aut(fan)
            for group in [aut, *enumerate_subgroups(aut)]:
                twin = pickle.loads(pickle.dumps(group))
                assert twin.presentation == group.presentation is not None
                assert twin.ray_permutations == group.ray_permutations
                assert group.attach(fan).presentation == group.presentation
                bare = SymmetryGroup(group.elements, group.generators, fan,
                                     group.ray_permutations)
                assert bare.presentation is None
                assert bare == group and group == bare and hash(bare) == hash(group)
        blown = blow_up(dp6_fan(), range(6))
        aut = compute_aut(blown)
        trace = minimalize(blown, aut)
        assert trace.steps and trace.terminal_group.presentation == aut.presentation

    def test_aut_subgroups_are_labelled_without_certifying(self, monkeypatch):
        calls = count_certifications(monkeypatch)
        labels = [classify_subgroup(s) for s in enumerate_subgroups(compute_aut(dp6_fan()))]
        assert len(labels) == 16 and calls == []

    def test_bare_group_is_certified_once(self, monkeypatch):
        aut = compute_aut(dp6_fan())
        want = [classify_subgroup(s) for s in enumerate_subgroups(aut)]
        calls = count_certifications(monkeypatch)
        assert classify_subgroup(SymmetryGroup(aut.elements, aut.generators)) == "D12"
        assert calls == [aut.elements]
        calls.clear()
        subs = enumerate_subgroups(SymmetryGroup(aut.elements, aut.generators))
        assert [classify_subgroup(s) for s in subs] == want and calls == [aut.elements]

    def test_group_from_generators_is_certified_once(self, monkeypatch):
        """The closure is certified when it is built; classifying it and
        listing its subgroups read the presentation it carries."""
        calls = count_certifications(monkeypatch)
        group = SymmetryGroup.from_generators(TABLE_GENERATORS["D12"], dp6_fan())
        assert calls == [group.elements] and group.presentation is not None
        assert classify_subgroup(group) == "D12"
        assert len(enumerate_subgroups(group)) == 16
        assert calls == [group.elements]

    def test_planted_non_group_from_bare_elements_raises(self, monkeypatch):
        s = ((1, 1), (0, -1))
        rotations = SymmetryGroup.from_generators([GEN_B]).elements
        coset = rotations | {mat_mul(g, s) for g in rotations}
        calls = count_certifications(monkeypatch)
        for f in (enumerate_subgroups, classify_subgroup):
            with pytest.raises(SymmetryError):
                f(SymmetryGroup(coset, tuple(sorted(coset))))
        assert calls == [coset, coset]


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

    def test_repr_shows_every_slot(self, p2_aut):
        text = repr(p2_aut)
        assert text.startswith("SymmetryGroup(elements=frozenset({")
        assert all(f"{name}=" in text for name in SymmetryGroup.__slots__)
        assert f"fan={p2_aut.fan!r}" in text

    def test_orbits_need_a_fan(self):
        bare = SymmetryGroup.from_generators([((0, 1), (1, 0))])
        assert bare.fan is None and bare.order == 2
        with pytest.raises(SymmetryError, match="not attached to a fan"):
            bare.ray_orbits()

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
