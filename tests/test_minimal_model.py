import random
from collections import Counter

import pytest

from toric_surface_lab import lattice_fan, minimal_model
from toric_surface_lab.lattice_fan import (
    Fan,
    InternalError,
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
from toric_surface_lab.corpus import (
    CorpusEntry,
    equivariant_blowups,
    minimal_seed_pairs,
    standard_corpus,
    subgroup_with_label,
)
from toric_surface_lab.grothendieck import core_blocks, picard

import classification_sweep
from classification_sweep import COUNTS, sweep
from oracles import (
    all_fans,
    canonical_sequence,
    check_each_class,
    ci_fan,
    random_basis,
    sequence_fans,
    stepwise_minimalize,
    stepwise_pullback,
)


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
            gone = [v for step in trace.steps for v in step.contracted]
            assert len(set(gone)) == len(gone)
            assert trace.terminal_fan.n == entry.fan.n - len(gone)

    def test_contracted_sets_are_orbits(self, small_corpus):
        for entry in small_corpus[:30]:
            trace = minimalize(entry.fan, entry.group)
            perms = entry.group.on(entry.fan).ray_permutations.values()
            for step in trace.steps:
                own = list(step.contracted)
                assert own == sorted({p[own[0]] for p in perms})

    def test_steps_hold_indices_and_one_fan_is_built(self, monkeypatch):
        """No step keeps a fan: on the 128-ray recipe fan (125 steps) the
        contraction builds the terminal fan with one `validate_fan` and never
        calls `blow_down`, looked up in either module."""
        fan = ci_fan(128)
        group = trivial_group(fan)
        calls = Counter()

        def counted(name, real):
            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        for module in (lattice_fan, minimal_model):
            for name in ("validate_fan", "blow_down"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        trace = minimalize(fan, group)
        assert len(trace.steps) == 125
        assert calls == {"validate_fan": 1}
        assert not any(isinstance(field, Fan) for step in trace.steps for field in step)

    @pytest.mark.parametrize("fan, fake, message", [
        (p2_fan(), (-1, 1, 1), "is not"),
        (square_fan(), (0, 0, 0, 1), "disagree"),
    ], ids=["not-a-sum", "terminal-disagrees"])
    def test_bookkeeping_faults_are_internal_errors(self, monkeypatch, fan, fake, message):
        """Self-intersections read wrong at the start show up as a contracted
        ray that is not the sum of its parents, or as tracked numbers that
        disagree with the terminal fan: an InternalError, not a FanError
        that would blame the input."""
        fakes = [fake]
        real = minimal_model.self_intersections
        monkeypatch.setattr(minimal_model, "self_intersections",
                            lambda f: fakes.pop() if fakes else real(f))
        with pytest.raises(InternalError, match=message):
            minimalize(fan, trivial_group(fan))

    @staticmethod
    def _check_against_stepwise(fan, group) -> int:
        """The trace agrees with `stepwise_minimalize`: the contracted rays of
        each step, the terminal fan, and the terminal group's permutations
        (in order) and presentation; each parent pair is the contracted ray's
        two neighbours on the fan before its step, and sums to it."""
        trace, oracle = minimalize(fan, group), stepwise_minimalize(fan, group)
        rays = fan.rays
        assert len(trace.steps) == len(oracle.steps)
        for step, slow in zip(trace.steps, oracle.steps):
            assert tuple(rays[i] for i in step.contracted) == slow.contracted
            before, m = slow.before.rays, slow.before.n
            for v, (u, w) in zip(step.contracted, step.parents):
                k = before.index(rays[v])
                assert (rays[u], rays[w]) == (before[k - 1], before[(k + 1) % m])
                assert rays[v] == (rays[u][0] + rays[w][0], rays[u][1] + rays[w][1])
        assert trace.terminal_fan == oracle.terminal_fan
        got, want = trace.terminal_group, oracle.terminal_group
        assert got.fan == trace.terminal_fan
        assert list(got.ray_permutations.items()) == list(want.ray_permutations.items())
        assert got.presentation == want.presentation
        return len(trace.steps)

    def test_matches_stepwise_contraction_on_corpus(self):
        """Every 16-ray corpus pair, in its own basis and two random ones."""
        rng = random.Random(31)
        steps = 0
        for entry in standard_corpus(max_rays=16):
            steps += self._check_against_stepwise(entry.fan, entry.group)
            for _ in range(2):
                steps += self._check_against_stepwise(*random_basis(rng, entry.fan, entry.group))
        assert steps > 300

    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_matches_stepwise_contraction_on_recipe_fans(self, n):
        fan = ci_fan(n)
        assert self._check_against_stepwise(fan, trivial_group(fan)) == n - 3

    @pytest.mark.parametrize("generators, steps", [
        ([((1, -1), (1, 0)), ((0, 1), (1, 0))], 16),
        ([((1, -1), (1, 0))], 31),
    ], ids=["D12", "C6"])
    def test_matches_stepwise_contraction_on_dp6_192(self, generators, steps):
        """dP6 blown up at every cone five times, under D12 and C6."""
        fan = dp6_fan()
        for _ in range(5):
            fan = blow_up(fan, range(fan.n))
        group = SymmetryGroup.from_generators(generators, fan)
        assert self._check_against_stepwise(fan, group) == steps

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


class TestCorpus:
    def test_a_label_the_group_lacks_has_no_subgroup(self):
        assert subgroup_with_label(p2_fan(), "C4") is None

    def test_blowups_past_max_rays_are_skipped(self):
        """Each cone of P2 is its own orbit under the trivial group: at most
        4 rays keeps the three one-cone blow-ups of the seven unions."""
        fan = p2_fan()
        blowups = equivariant_blowups(CorpusEntry(fan, trivial_group(fan), "C1"), max_rays=4)
        assert [e.fan for e in blowups] == [blow_up(fan, [i]) for i in range(3)]
        assert len(equivariant_blowups(CorpusEntry(fan, trivial_group(fan), "C1"))) == 7


class TestEverySmallFan:
    """The classification theorem on every fan of at most 10 rays with each
    |a_i| <= 4; CI runs tests/classification_sweep.py at 12 rays and 5."""

    def test_blow_up_closure_matches_the_sequences_rebuilt_into_rays(self):
        keys = [{canonical_sequence(lattice_fan.self_intersections(f)) for f in route(7, 3)}
                for route in (all_fans, sequence_fans)]
        assert keys[0] == keys[1]
        assert len(keys[0]) == 28

    def test_every_pair_classifies_into_the_table_and_certifies(self):
        """All 666 (fan, subgroup) pairs contract into a table row with no
        TableViolation and pass every check of the sweep, the certificates,
        the stepwise contraction and the correspondence of blocks with
        orbits included, and together they realise each of the table's 18
        (row, group) entries."""
        result = sweep(10, 4)
        assert result.counts == COUNTS[10, 4] == (585, 666, 25)
        assert result.failures == []
        realised = {(row, g) for row, seen in result.realised.items() for g in seen}
        table = {(row, g) for row in TABLE for g in row.groups}
        assert realised == table and len(table) == 18

    def test_split_block_fails_the_correspondence(self, monkeypatch, capsys):
        """The first block of two or more objects split in two is no longer
        one orbit, nor group-closed: each pair with such a block fails the
        correspondence checks and the collection certificate, and the
        command line exits 1."""
        real = classification_sweep.build_collection

        def split(pulled, label):
            coll = real(pulled, label)
            b = next((b for b, block in enumerate(coll.blocks) if len(block) > 1), None)
            if b is None:
                return coll
            block = coll.blocks[b]
            return coll._replace(blocks=coll.blocks[:b] + (block[:1], block[1:]) + coll.blocks[b + 1:])

        monkeypatch.setattr(classification_sweep, "build_collection", split)
        result = sweep(7, 3)
        names = Counter(line.split(": ")[-1] for line in result.failures)
        assert set(names) == {"collection certificate", "blocks are orbits",
                              "block sizes are basis orbit sizes"}
        assert len(set(names.values())) == 1 and 0 < names["blocks are orbits"] < result.pairs
        assert classification_sweep.main(["7", "3"]) == 1
        assert "blocks are orbits" in capsys.readouterr().out


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
            oracle = stepwise_minimalize(entry.fan, entry.group)
            pulled = pullback(trace)
            assert pulled.fan == trace.initial_fan
            assert len(pulled.exceptional) == len(trace.steps)
            m = trace.terminal_fan.n
            multisets = [rays for block in core_blocks(label) for _, rays in block]
            multisets += [[rng.randrange(m) for _ in range(rng.randrange(5))] for _ in range(4)]
            for rays in multisets:
                divisor = [rays.count(i) for i in range(m)]
                assert pulled.total(rays) == stepwise_pullback(oracle, divisor), (entry, rays)
                checked += 1
        assert checked > 1000

    def test_each_class_matches_stepwise_pullback_on_corpus(self):
        checked = 0
        for entry in standard_corpus(max_rays=16):
            checked += check_each_class(entry.fan, entry.group)
        assert checked > 1000

    @pytest.mark.parametrize("n", [64, 128])
    def test_each_class_matches_stepwise_pullback_on_recipe_fans(self, n):
        """The CI recipe fans contract one ray per step down to P2."""
        fan = ci_fan(n)
        assert check_each_class(fan, trivial_group(fan)) == n

    def test_each_class_matches_stepwise_pullback_on_dp6_192(self):
        """dP6 blown up at every cone five times, under D12 (the CI recipe):
        16 steps, 15 of them contracting a 12-ray orbit and the last a 6-ray
        one, so most steps' parents are rays that a later step contracts."""
        fan = dp6_fan()
        for _ in range(5):
            fan = blow_up(fan, range(fan.n))
        group = SymmetryGroup.from_generators([((1, -1), (1, 0)), ((0, 1), (1, 0))], fan)
        trace = minimalize(fan, group)
        assert [len(step.contracted) for step in trace.steps] == [12] * 15 + [6]
        assert check_each_class(fan, group) == 192

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
                own = list(step.contracted)
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
