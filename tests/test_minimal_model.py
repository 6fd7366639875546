import random

import pytest

from toric_surface_lab.lattice_fan import (
    apply_matrix,
    blow_up,
    dp6_fan,
    fans_isomorphic,
    hirzebruch_fan,
    p2_fan,
    square_fan,
)
from toric_surface_lab.minimal_model import (
    TABLE,
    NotMinimal,
    _descend,
    classify_minimal,
    classify_pair,
    contractible_orbits,
    is_g_minimal,
    minimalize,
    pullback,
)
from toric_surface_lab.symmetry import (
    TABLE_GENERATORS,
    SymmetryGroup,
    compute_aut,
    enumerate_subgroups,
    trivial_group,
)
from toric_surface_lab.corpus import minimal_seed_pairs, standard_corpus, subgroup_with_label
from toric_surface_lab.grothendieck import core_blocks, picard

from oracles import ci_fan, stepwise_pullback


@pytest.fixture
def f1():
    return blow_up(p2_fan(), [0])


@pytest.fixture
def f1_swap(f1):
    # The reflection swapping the two fiber rays of the blown-up plane.
    return SymmetryGroup.from_generators([((0, 1), (1, 0))], f1)


class TestContractibleOrbits:
    def test_f1_with_swap(self, f1, f1_swap):
        orbits = contractible_orbits(f1, f1_swap)
        assert orbits == [(f1.rays.index((1, 1)),)]

    def test_dp6_full_group_has_none(self):
        fan = dp6_fan()
        assert contractible_orbits(fan, compute_aut(fan)) == []

    def test_dp6_trivial_six_singletons(self):
        fan = dp6_fan()
        orbits = contractible_orbits(fan, trivial_group(fan))
        assert orbits == [(i,) for i in range(6)]

    def test_adjacent_orbit_excluded(self):
        # On the hexagon, the central symmetry pairs opposite (disjoint)
        # rays: all three orbits are contractible.
        fan = dp6_fan()
        c2 = SymmetryGroup.from_generators([((-1, 0), (0, -1))], fan)
        orbits = contractible_orbits(fan, c2)
        assert all(len(o) == 2 for o in orbits)
        assert len(orbits) == 3


class TestIsMinimal:
    def test_square_with_c2(self):
        fan = square_fan()
        c2 = SymmetryGroup.from_generators([((-1, 0), (0, -1))], fan)
        assert is_g_minimal(fan, c2)

    def test_f1_not_minimal(self, f1, f1_swap):
        assert not is_g_minimal(f1, f1_swap)

    def test_many_rays_with_free_rotation_not_minimal(self):
        # One equivariant blow-up of the hexagon under the order-6 rotation:
        # 12 rays > max(4, 6), so a free orbit of (-1)-rays must exist.
        fan = dp6_fan()
        c6 = subgroup_with_label(fan, "C6")
        blown = blow_up(fan, range(6))
        c6b = SymmetryGroup(elements=c6.elements, generators=c6.generators).attach(blown)
        assert not is_g_minimal(blown, c6b)


class TestMinimalize:
    def test_dp6_trivial_three_steps_to_plane(self):
        fan = dp6_fan()
        trace = minimalize(fan, trivial_group(fan))
        assert len(trace.steps) == 3
        assert trace.terminal_fan.n == 3
        assert fans_isomorphic(trace.terminal_fan, p2_fan()) is not None

    def test_minimal_input_empty_trace(self):
        fan = square_fan()
        trace = minimalize(fan, compute_aut(fan))
        assert trace.steps == ()
        assert trace.terminal_fan == fan

    def test_dp6_full_group_empty_trace(self):
        fan = dp6_fan()
        assert minimalize(fan, compute_aut(fan)).steps == ()

    def test_step_budget_and_terminal_minimality(self, small_corpus):
        for entry in small_corpus:
            trace = minimalize(entry.fan, entry.group)
            assert len(trace.steps) <= entry.fan.n - 3
            assert is_g_minimal(trace.terminal_fan, trace.terminal_group)
            counts = [s.before.n for s in trace.steps]
            assert counts == sorted(counts, reverse=True)

    def test_contracted_sets_are_orbits(self, small_corpus):
        for entry in small_corpus[:30]:
            trace = minimalize(entry.fan, entry.group)
            for step in trace.steps:
                g = SymmetryGroup(
                    elements=entry.group.elements, generators=entry.group.generators
                ).attach(step.before)
                members = {step.before.rays.index(v) for v in step.contracted}
                for perm in g.ray_permutations.values():
                    assert {perm[i] for i in members} == members

    def test_derived_permutations_match_attach(self):
        """Every step's permutations, derived by dropping the contracted
        indices, equal a fresh attach to the step's fan, in the same order."""
        steps = 0
        for entry in standard_corpus(max_rays=16):
            trace = minimalize(entry.fan, entry.group)
            g = entry.group.on(entry.fan)
            for step in trace.steps:
                g = _descend(g, step.after)
                fresh = g.attach(step.after)
                assert list(g.ray_permutations.items()) == list(
                    fresh.ray_permutations.items()
                ), (entry.fan, step.contracted)
                steps += 1
            assert trace.terminal_group.fan == trace.terminal_fan
            assert trace.terminal_group.ray_permutations == g.ray_permutations
        assert steps > 100

    def test_conjugation_commutes(self):
        fan = blow_up(dp6_fan(), [0, 2, 4])
        group = trivial_group(fan)
        trace = minimalize(fan, group)
        m = ((2, 1), (1, 1))
        image = apply_matrix(m, fan)
        image_trace = minimalize(image, trivial_group(image))
        assert len(trace.steps) == len(image_trace.steps)
        assert fans_isomorphic(trace.terminal_fan, image_trace.terminal_fan) is not None


class TestClassifyMinimal:
    def test_p2_with_full_group(self):
        fan = p2_fan()
        label = classify_minimal(fan, compute_aut(fan))
        assert (label.kind, label.group_label, label.row.index) == ("P2", "D6", "(ii)")

    def test_f4_under_flip(self):
        fan = hirzebruch_fan(4)
        label = classify_minimal(fan, compute_aut(fan))
        assert (label.kind, label.group_label) == ("F(4)", "D2'")
        assert label.row.index == "(i)"

    def test_square_with_full_group(self):
        fan = square_fan()
        label = classify_minimal(fan, compute_aut(fan))
        assert (label.kind, label.group_label, label.row.index) == ("P1xP1", "D8", "(iii)")

    def test_dp6_rows(self):
        fan = dp6_fan()
        for glabel in ("C6", "D6'", "D12"):
            sub = subgroup_with_label(fan, glabel)
            label = classify_minimal(fan, sub)
            assert (label.kind, label.group_label, label.row.index) == ("dP6", glabel, "(iv)")

    def test_f0_is_f0_under_flip_row(self):
        fan = square_fan()
        d2p = subgroup_with_label(fan, "D2'")
        label = classify_minimal(fan, d2p)
        assert label.kind == "F(0)"
        assert label.row.index == "(i)"

    def test_f0_is_quadric_under_c2(self):
        fan = square_fan()
        c2 = subgroup_with_label(fan, "C2")
        assert classify_minimal(fan, c2).kind == "P1xP1"

    def test_not_minimal_raises(self):
        f1 = blow_up(p2_fan(), [0])
        with pytest.raises(NotMinimal):
            classify_minimal(f1, trivial_group(f1))

    def test_trivial_group_endpoints_are_classical(self, small_corpus):
        for entry in small_corpus:
            if entry.group_label != "C1":
                continue
            trace = minimalize(entry.fan, entry.group)
            label = classify_minimal(trace.terminal_fan, trace.terminal_group)
            assert label.kind == "P2" or label.kind == "P1xP1" or (
                label.kind.startswith("F(") and label.hirzebruch_a != 1
            )


def test_classification_table_agrees_across_modules():
    """The table's rows cover the 13 group classes, each core block names a
    factor slot of its row, and every (row, group) pair of the table is
    realized by a minimal pair: among the subgroups on P2, P1xP1, dP6, F(2)
    and F(3), and among the corpus seeds of each group class.
    """
    assert set().union(*(row.groups for row in TABLE)) == set(TABLE_GENERATORS) == {
        "C1", "C2", "C3", "C4", "C6",
        "D2", "D2'", "D4", "D4'", "D6", "D6'", "D8", "D12",
    }
    for row in TABLE:
        for block in row.blocks:
            assert all(slot in row.slots for _, _, slot in block), row.kind

    def realized(pairs):
        rows = set()
        for fan, group in pairs:
            label = classify_minimal(fan, group)
            rows.add((label.row, label.group_label))
        return rows

    allowed = {(row, g) for row in TABLE for g in row.groups}
    fans = (p2_fan(), square_fan(), dp6_fan(), hirzebruch_fan(2), hirzebruch_fan(3))
    subgroups = [
        (fan, sub)
        for fan in fans
        for sub in enumerate_subgroups(compute_aut(fan))
        if is_g_minimal(fan, sub)
    ]
    assert realized(subgroups) == allowed
    seeds = [(e.fan, e.group) for g in TABLE_GENERATORS for e in minimal_seed_pairs(g)]
    assert realized(seeds) == allowed


class TestPullback:
    def test_sums_of_pulled_rays_match_stepwise_pullback(self):
        """`Pullback.total` sums the pulled-back terminal ray divisors; on
        every 16-ray corpus pair it equals the step-by-step pullback of the
        summed divisor, for every core slot of the pair's table row and for
        seeded random multisets of rays."""
        rng = random.Random(47)
        checked = 0
        for entry in standard_corpus(max_rays=16):
            trace, label = classify_pair(entry.fan, entry.group)
            pulled = pullback(trace)
            assert pulled.fan == trace.initial_fan
            assert len(pulled.exceptional) == len(trace.steps)
            m = trace.terminal_fan.n
            multisets = [rays for block in core_blocks(label) for _, rays in block]
            multisets += [[rng.randrange(m) for _ in range(rng.randrange(5))] for _ in range(4)]
            for rays in multisets:
                divisor = [rays.count(i) for i in range(m)]
                assert pulled.total(rays) == stepwise_pullback(trace, divisor), (entry, rays)
                checked += 1
        assert checked > 1000

    @staticmethod
    def _check_each_class(trace) -> int:
        """Each pulled-back terminal ray divisor and each exceptional class
        against `stepwise_pullback`; the classes O(E) of step k live on the
        fan before it, so they go along the sub-trace that ends there."""
        pulled = pullback(trace)
        m = trace.terminal_fan.n
        for i in range(m):
            assert pulled.rays[i] == stepwise_pullback(trace, [int(e == i) for e in range(m)])
        for k, (step, block) in enumerate(zip(trace.steps, pulled.exceptional)):
            sub = trace._replace(steps=trace.steps[:k], terminal_fan=step.before)
            units = [[int(v == ray) for v in step.before.rays] for ray in step.contracted]
            assert list(block) == [stepwise_pullback(sub, u) for u in units], k
        return m + sum(map(len, pulled.exceptional))

    def test_each_class_matches_stepwise_pullback_on_corpus(self):
        checked = 0
        for entry in standard_corpus(max_rays=16):
            checked += self._check_each_class(minimalize(entry.fan, entry.group))
        assert checked > 1000

    @pytest.mark.parametrize("n", [64, 128])
    def test_each_class_matches_stepwise_pullback_on_recipe_fans(self, n):
        """The CI recipe fans contract one ray per step down to P2."""
        fan = ci_fan(n)
        trace = minimalize(fan, trivial_group(fan))
        assert len(trace.steps) == n - 3
        assert self._check_each_class(trace) == n

    def test_projection_formula_on_corpus(self):
        """pi*D.pi*D' = D.D', pi*D.E = 0 and E_i.E_j = -delta_ij for the ray
        divisors D, D' of the minimal model and every exceptional class E, on
        each 16-ray corpus pair with at least one contraction step (170).
        The formula cannot tell E from -E or one step's E from another's, so
        each E is also read on its own ray."""
        checked = 0
        for entry in standard_corpus(max_rays=16):
            trace = minimalize(entry.fan, entry.group)
            if not trace.steps:
                continue
            down, up = picard(trace.terminal_fan), picard(trace.initial_fan)
            n = trace.terminal_fan.n
            rays = [tuple(int(e == i) for e in range(n)) for i in range(n)]
            _, transforms, exceptional = pullback(trace)
            # E_k keeps coefficient 1 on its own ray, which survives to step k.
            for step, block in zip(trace.steps, exceptional):
                own = [trace.initial_fan.rays.index(v) for v in step.contracted]
                assert [[x[i] for i in own] for x in block] == [
                    [int(i == j) for i in own] for j in own]
            d = [down.divisor_coords(r) for r in rays]
            pd = [up.divisor_coords(t) for t in transforms]
            e = [up.divisor_coords(x) for block in exceptional for x in block]
            for i in range(n):
                for j in range(n):
                    assert up.pair(pd[i], pd[j]) == down.pair(d[i], d[j])
                assert all(up.pair(pd[i], x) == 0 for x in e)
            for i, x in enumerate(e):
                assert [up.pair(x, y) for y in e] == [-(i == j) for j in range(len(e))]
            checked += 1
        assert checked > 0
