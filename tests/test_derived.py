import functools
import itertools
import random
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from toric_surface_lab import cohomology, derived, grothendieck
from toric_surface_lab.cohomology import (
    CohomologyVector,
    _ample_weights,
    ext_line_bundles,
    line_bundle_cohomology,
)
from toric_surface_lab.derived import (
    ExceptionalCollection,
    ExtViolation,
    build_collection,
    verify_collection,
)
from toric_surface_lab.grothendieck import (
    PermutationBasis,
    core_blocks,
    line_bundle_class,
    search_line_bundle_basis,
    verify_permutation_basis,
)
from toric_surface_lab.lattice_fan import blow_up, dp6_fan, hirzebruch_fan, p2_fan
from toric_surface_lab.minimal_model import classify_pair, pullback
from toric_surface_lab.symmetry import (
    SymmetryGroup,
    compute_aut,
    enumerate_subgroups,
    trivial_group,
)
from toric_surface_lab.corpus import (
    minimal_seed_pairs,
    standard_corpus,
    subgroup_with_label,
)

import sweeps
from oracles import (
    certified_pair,
    ci_fan,
    column_h0,
    merge_blocks_by_orbits,
    pairwise_verify_collection,
    random_basis,
)


def collection_for(fan, group):
    trace, label = classify_pair(fan, group)
    return build_collection(pullback(trace), label)


@functools.lru_cache(maxsize=None)
def large_pair(name: str):
    """(fan, group, collection, standard basis certificate) of "recipe-n",
    `ci_fan(n)` under the trivial group, or of "dp6-192-d12", dP6 blown up
    at every cone five times under D12 (the CI recipe)."""
    if name == "dp6-192-d12":
        fan = dp6_fan()
        for _ in range(5):
            fan = blow_up(fan, range(fan.n))
        group = SymmetryGroup.from_generators([((1, -1), (1, 0)), ((0, 1), (1, 0))], fan)
    else:
        fan = ci_fan(int(name.removeprefix("recipe-")))
        group = trivial_group(fan)
    return (fan, group, *certified_pair(fan, group))


def scan_pairs(blocks) -> list[tuple]:
    """The (kind, source, target) pairs of distinct objects in scan order."""
    scan = [("block", a, b) for blk in blocks
            for i, a in enumerate(blk) for j, b in enumerate(blk) if i != j]
    return scan + [("order", a, b) for s in range(1, len(blocks)) for t in range(s)
                   for a in blocks[s] for b in blocks[t]]


def flat_objects(coll) -> tuple:
    return tuple(d for block in coll.blocks for d in block)


def model_rows(fan, divisors) -> list[list[int]]:
    return [list(line_bundle_class(fan, d).model_vector()) for d in divisors]


def counted_pairs(blocks) -> int:
    """Self, block and order pairs of the scan, counted one kind at a time."""
    self_pairs = sum(len(block) for block in blocks)
    block_pairs = sum(len(block) * (len(block) - 1) for block in blocks)
    order_pairs = sum(len(blocks[s]) * len(blocks[t])
                      for s in range(len(blocks)) for t in range(s))
    return self_pairs + block_pairs + order_pairs


class TestCores:
    def test_plane_blocks(self, p2, p2_aut):
        coll = collection_for(p2, p2_aut)
        assert coll.blocks == (
            ((0, 0, 0),),
            ((1, 0, 0),),
            ((2, 0, 0),),
        )
        assert verify_collection(coll, p2_aut).ok

    def test_ruled_blocks(self, f2):
        g = compute_aut(f2)
        coll = collection_for(f2, g)
        assert [len(b) for b in coll.blocks] == [1, 1, 1, 1]
        assert verify_collection(coll, g).ok

    def test_quadric_blocks(self, square, square_aut):
        coll = collection_for(square, square_aut)
        assert [len(b) for b in coll.blocks] == [1, 2, 1]
        assert verify_collection(coll, square_aut).ok

    def test_hexagon_blocks(self, dp6, dp6_aut):
        coll = collection_for(dp6, dp6_aut)
        assert [len(b) for b in coll.blocks] == [1, 3, 2]
        cert = verify_collection(coll, dp6_aut)
        assert cert.ok
        assert cert.determinant in (1, -1)

    def test_hexagon_blocks_under_c6(self, dp6):
        c6 = subgroup_with_label(dp6, "C6")
        coll = collection_for(dp6, c6)
        assert [len(b) for b in coll.blocks] == [1, 3, 2]
        assert verify_collection(coll, c6).ok

    def test_split_orbit_block_is_not_group_closed(self, dp6, dp6_aut):
        """Splitting the 3-orbit block keeps every Ext check (its objects are
        mutually orthogonal) but the blocks are no longer unions of orbits."""
        coll = collection_for(dp6, dp6_aut)
        head, orbit, tail = coll.blocks
        split = ExceptionalCollection(
            fan=dp6, blocks=(head, *((d,) for d in orbit), tail), provenance="split"
        )
        cert = verify_collection(split, dp6_aut)
        assert cert == pairwise_verify_collection(split, dp6_aut)
        assert cert.first_violation is None
        assert not cert.blocks_group_closed
        assert not cert.ok
        assert verify_collection(split, trivial_group(dp6)).ok


    def test_orbit_split_behind_closed_orbits_is_not_group_closed(self, dp6, dp6_aut):
        """Each block opens with a whole orbit and then holds part of the
        3-orbit, so only the second orbit of a block shows the split."""
        coll = collection_for(dp6, dp6_aut)
        (o,), (a, b, c), tail = coll.blocks
        split = ExceptionalCollection(
            fan=dp6, blocks=((o, a, b), (*tail, c)), provenance="split behind orbits"
        )
        cert = verify_collection(split, dp6_aut)
        assert cert == pairwise_verify_collection(split, dp6_aut)
        assert not cert.blocks_group_closed
        assert verify_collection(split, trivial_group(dp6)).blocks_group_closed


class TestBlocksAreOrbits:
    def test_union_find_from_singletons_rebuilds_the_blocks(self):
        """Every block is exactly one group orbit of classes, on every corpus
        fan with every subgroup of its automorphism group, in its own and a
        random lattice basis: the orbit union-find started from one block
        per object gives back the blocks, in order."""
        rng = random.Random(41)
        fans = {e.fan.rays: e.fan for e in standard_corpus(max_rays=16)}.values()
        pairs = fused = 0
        for fan in fans:
            for sub in enumerate_subgroups(compute_aut(fan)):
                for f, g in ((fan, sub), random_basis(rng, fan, sub)):
                    trace, label = classify_pair(f, g)
                    blocks = [list(b) for b in build_collection(pullback(trace), label).blocks]
                    singletons = [[d] for block in blocks for d in block]
                    assert merge_blocks_by_orbits(f, g, singletons) == blocks, (f, label)
                    pairs += 1
                    fused += label.kind == "P1xP1" and len(blocks[-2]) == 2
        assert pairs == 2 * 337
        assert fused > 0

    def test_ruling_swap_fuses_only_on_the_quadric(self):
        """P1xP1 rows whose group swaps the rulings fuse the fiber and
        section bundles; the D2 rows of odd ruled surfaces keep them apart."""
        shapes = {}
        for label in ("C1", "C2", "C4", "D2", "D4", "D4'", "D8"):
            for entry in (e for e in minimal_seed_pairs(label) if e.fan.n == 4):
                _, minimal = classify_pair(entry.fan, entry.group)
                coll = collection_for(entry.fan, entry.group)
                shapes[str(minimal)] = [len(b) for b in coll.blocks]
        assert shapes == {
            "P1xP1/C1": [1, 1, 1, 1],
            "F(2)/C1": [1, 1, 1, 1],
            "F(3)/C1": [1, 1, 1, 1],
            "P1xP1/C2": [1, 1, 1, 1],
            "P1xP1/C4": [1, 2, 1],
            "P1xP1/D2": [1, 2, 1],
            "F(3)/D2": [1, 1, 1, 1],
            "F(5)/D2": [1, 1, 1, 1],
            "P1xP1/D4": [1, 2, 1],
            "P1xP1/D4'": [1, 1, 1, 1],
            "P1xP1/D8": [1, 2, 1],
        }


class TestReversed:
    def test_reversed_plane_fails_with_known_pair(self, p2, p2_aut):
        coll = collection_for(p2, p2_aut).reversed()
        cert = verify_collection(coll, p2_aut)
        assert cert == pairwise_verify_collection(coll, p2_aut)
        assert not cert.ok
        v = cert.first_violation
        assert v.kind == "order"
        assert v.source == (1, 0, 0)
        assert v.target == (2, 0, 0)
        assert v.ext == (3, 0, 0)

    @pytest.mark.parametrize("fan, pairs", [
        (p2_fan(), 6),
        (ci_fan(32), 528),
        (blow_up(dp6_fan(), range(6)), 97),
    ], ids=["p2", "recipe-32", "dp6-blown-up"])
    def test_scan_stops_at_the_first_violation(self, monkeypatch, fan, pairs):
        """The first violation and `pairs_checked` are the pairwise oracle's
        (which scans every pair), but the Ext of a pair is computed only up
        to the failing one: one call for the self pairs, then one per pair."""
        group = compute_aut(fan)
        coll = collection_for(fan, group).reversed()
        want = pairwise_verify_collection(coll, group)
        scan = scan_pairs(coll.blocks)
        calls = []
        real = derived._cohomology
        monkeypatch.setattr(derived, "_cohomology", lambda *a: calls.append(a) or real(*a))
        cert = verify_collection(coll, group)
        assert cert == want and cert.pairs_checked == pairs
        v = cert.first_violation
        assert len(calls) == 1 + scan.index((v.kind, v.source, v.target)) + 1 < 1 + len(scan)


class TestBlowUps:
    def test_one_point_blowup_of_plane(self):
        f1 = blow_up(p2_fan(), [0])
        g = trivial_group(f1)
        coll = collection_for(f1, g)
        # O, then the exceptional class, then pullbacks of O(1), O(2).
        assert coll.blocks == (
            ((0, 0, 0, 0),),
            ((0, 1, 0, 0),),
            ((1, 1, 0, 0),),
            ((2, 2, 0, 0),),
        )
        assert verify_collection(coll, g).ok

    def test_exceptional_blocks_outermost_first(self, dp6):
        g = trivial_group(dp6)
        coll = collection_for(dp6, g)
        cert = verify_collection(coll, g)
        assert cert.ok
        # 3 contraction steps: O, three exceptional blocks, then the core.
        assert len(coll.blocks) == 1 + 3 + 2

    def test_corpus_collections_verify(self, small_corpus):
        for entry in small_corpus:
            coll = collection_for(entry.fan, entry.group)
            cert = verify_collection(coll, entry.group)
            assert cert.ok, (entry.fan, entry.group_label, cert.first_violation)
            assert cert.determinant in (1, -1)


class TestBlockExchange:
    def test_swapping_mutually_orthogonal_blocks_keeps_passing(self, small_corpus):
        swaps_tested = 0
        for entry in small_corpus[:25]:
            coll = collection_for(entry.fan, entry.group)
            if not verify_collection(coll, entry.group).ok:
                continue
            blocks = list(coll.blocks)
            for i, j in itertools.combinations(range(len(blocks)), 2):
                mutual = all(
                    ext_line_bundles(entry.fan, a, b).as_tuple() == (0, 0, 0)
                    and ext_line_bundles(entry.fan, b, a).as_tuple() == (0, 0, 0)
                    for a in blocks[i]
                    for b in blocks[j]
                )
                if not mutual:
                    continue
                swapped = list(blocks)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                cert = verify_collection(
                    ExceptionalCollection(
                        fan=coll.fan,
                        blocks=tuple(tuple(b) for b in swapped),
                        provenance=coll.provenance + " (block swap)",
                    ),
                    entry.group,
                )
                assert cert.ok
                swaps_tested += 1
        assert swaps_tested > 0


class TestFullness:
    def test_collection_classes_form_basis(self, small_corpus):
        for entry in small_corpus[:30]:
            coll = collection_for(entry.fan, entry.group)
            classes = [line_bundle_class(entry.fan, d) for block in coll.blocks for d in block]
            assert len(classes) == entry.fan.n
            assert len(set(classes)) == entry.fan.n


class TestPairwiseOracle:
    """The certificate against one `ext_line_bundles` call per pair and the
    group images of every object: every field, the first violation included."""

    def test_corpus_pairs_in_both_orders(self):
        """With and without the standard basis's certificate to read."""
        entries = standard_corpus(max_rays=16)
        assert len(entries) == 191
        failed = multi = 0
        for entry in entries:
            coll, basis = certified_pair(entry.fan, entry.group)
            for c in (coll, coll.reversed()):
                cert = verify_collection(c, entry.group)
                assert cert == verify_collection(c, entry.group, basis)
                assert cert == pairwise_verify_collection(c, entry.group), (
                    entry.fan, entry.group_label, c.provenance)
                assert cert.pairs_checked == counted_pairs(c.blocks)
                failed += not cert.ok
            multi += any(len(block) > 1 for block in coll.blocks)
        assert failed > 0 and multi == 106

    def test_classes_that_are_no_basis_are_not_group_closed(self, p2, p2_aut, dp6, dp6_aut):
        """Closure is certified only for a basis of K0.  P2 with its last
        block dropped, or with a class repeated in a second block, keeps
        each block closed but fails, as do dP6 with an object dropped and
        the empty collection; the oracle agrees."""
        (o,), (h,), (h2,) = collection_for(p2, p2_aut).blocks
        (e,), orbit, tail = collection_for(dp6, dp6_aut).blocks
        cases = [
            (p2, p2_aut, ((o,), (h,))),
            (dp6, dp6_aut, ((e,), orbit, tail[:1])),
            (p2, p2_aut, ((o,), (h,), ((0, 1, 0),))),  # D1 ~ D0 on P2
            (p2, p2_aut, ()),
        ]
        for fan, group, blocks in cases:
            coll = ExceptionalCollection(fan=fan, blocks=blocks, provenance="no basis")
            cert = verify_collection(coll, group)
            assert cert == pairwise_verify_collection(coll, group), blocks
            assert cert.determinant == 0 and not cert.blocks_group_closed and not cert.ok
        assert verify_collection(ExceptionalCollection(p2, ((o,), (h,), (h2,)), ""), p2_aut).ok

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_recipe_fans(self, n):
        """Both orders up to 64 rays; the normal order at 128 (the oracle
        takes about a second per order there)."""
        fan = ci_fan(n)
        g = trivial_group(fan)
        coll = collection_for(fan, g)
        for c in (coll, coll.reversed())[:1 if n > 64 else 2]:
            assert verify_collection(c, g) == pairwise_verify_collection(c, g)
        assert verify_collection(coll, g).pairs_checked == n * (n + 1) // 2


class TestPlantedExtFault:
    """A block planted in front of a valid collection fails the scan at its
    first order pair, Ext(O, O(D)) = H*(D), on either path of a pair's Ext:
    the closed form (0, -chi, 0) when D and K - D both have negative degree,
    the cohomology routine otherwise.  The certificate, first violation
    included, is the pairwise oracle's."""

    @pytest.mark.parametrize("fan", [hirzebruch_fan(2), dp6_fan(), ci_fan(64)],
                             ids=["f2", "dp6", "recipe-64"])
    def test_each_path(self, monkeypatch, fan):
        group = trivial_group(fan)
        coll = collection_for(fan, group)
        structure_sheaf = coll.blocks[0][0]
        a, weights, k_degree = _ample_weights(fan)
        # -2 D_v with a_v <= 0 has chi = a_v - 1 < 0, and degree -2 H.D_v < 0;
        # K + 2 D_v has negative degree when 2 H.D_v < -K.H.
        v = next(v for v in range(fan.n) if a[v] <= 0 and 2 * weights[v] < -k_degree)
        unit = tuple(int(e == v) for e in range(fan.n))
        for planted, closed_form in (tuple(-2 * c for c in unit), True), (unit, False):
            planted_coll = ExceptionalCollection(fan, ((planted,), *coll.blocks), "planted")
            calls = {}
            real = derived._cohomology

            def shim(table, coeffs, degree, chi):
                calls[tuple(coeffs)] = chi
                return real(table, coeffs, degree, chi)

            monkeypatch.setattr(derived, "_cohomology", shim)
            cert = verify_collection(planted_coll, group)
            monkeypatch.undo()
            # Each walked pair is handed the chi that `_chi` takes in O(n).
            assert all(chi == cohomology._chi(a, c) for c, chi in calls.items())
            assert cert == pairwise_verify_collection(planted_coll, group)
            violation = cert.first_violation
            assert violation[:3] == ("order", structure_sheaf, planted)
            degree = sum(map(mul, weights, planted))
            assert (degree < 0 and k_degree - degree < 0) == closed_form
            assert (planted in calls) != closed_form
            assert (violation.ext == (0, 1 - a[v], 0)) if closed_form else (violation.ext[0] > 0)
            assert cert.pairs_checked == counted_pairs(planted_coll.blocks)


class TestSelfPairs:
    """Every self pair has Ext(V, V) = H*(O_X), computed once.  A wrong
    H*(O_X) fails the self pair of the first object in scan order, that of
    the first non-empty block, and the scan stops there; `pairs_checked`
    still counts every pair, from the block sizes."""

    @pytest.mark.parametrize("fan", [hirzebruch_fan(2), dp6_fan(), ci_fan(64)],
                             ids=["f2", "dp6", "recipe-64"])
    def test_wrong_structure_sheaf_cohomology_fails_the_first_self_pair(self, monkeypatch, fan):
        group = trivial_group(fan)
        coll = collection_for(fan, group)
        honest = verify_collection(coll, group)
        assert honest.ok
        planted = CohomologyVector(1, 1, 0)
        calls = []
        real, real_oracle = derived._cohomology, oracles.line_bundle_cohomology

        def wrong(table, coeffs, degree, chi):
            calls.append((tuple(coeffs), chi))
            return planted if not any(coeffs) else real(table, coeffs, degree, chi)

        monkeypatch.setattr(derived, "_cohomology", wrong)
        monkeypatch.setattr(oracles, "line_bundle_cohomology",
                            lambda f, c: planted if not any(c) else real_oracle(f, c))
        for blocks in (coll.blocks, ((), *coll.blocks), (*coll.blocks[1:], coll.blocks[0])):
            planted_coll = ExceptionalCollection(fan, blocks, "planted")
            calls.clear()
            cert = verify_collection(planted_coll, group)
            assert cert == pairwise_verify_collection(planted_coll, group)
            source = next(block[0] for block in blocks if block)
            assert cert.first_violation == ("self", source, source, (1, 1, 0))
            assert cert.pairs_checked == honest.pairs_checked == counted_pairs(blocks)
            assert cert.determinant in (1, -1) and cert.blocks_group_closed
            assert calls == [((0,) * fan.n, 1)]
        empty = verify_collection(ExceptionalCollection(fan, ((), ()), "empty"), group)
        assert (empty.first_violation, empty.pairs_checked) == (None, 0)


class TestOneChiPerPair:
    """The Ext scan takes each pair's chi once, by Riemann-Roch, and hands
    it to the cohomology kernel with the pairs that it walks."""

    @pytest.mark.parametrize("name, walked", [("recipe-256", 636), ("dp6-192-d12", 8000)])
    def test_closed_form_chi_runs_once(self, monkeypatch, name, walked):
        """On a verified collection `_chi` runs once, at the end of the
        H*(O_X) walk, whose h0 is chi(O_X): every other walked side ends at
        h0 = 0 before `_reduce` reaches it.  With or without the basis
        certificate, which takes no cohomology."""
        _, group, coll, basis = large_pair(name)
        chis, kernel = [], []
        real_chi, real_kernel = cohomology._chi, derived._cohomology
        monkeypatch.setattr(cohomology, "_chi", lambda a, c: chis.append(1) or real_chi(a, c))
        monkeypatch.setattr(derived, "_cohomology",
                            lambda *args: kernel.append(1) or real_kernel(*args))
        for certificate in (None, basis):
            chis.clear()
            kernel.clear()
            assert verify_collection(coll, group, certificate).ok
            assert (len(chis), len(kernel)) == (1, walked)

    @pytest.mark.parametrize("fan", [hirzebruch_fan(2), dp6_fan(), ci_fan(64)],
                             ids=["f2", "dp6", "recipe-64"])
    def test_planted_chi_fails_its_first_pair_on_either_route(self, monkeypatch, fan):
        """chi(D) of one object lowered by one in `_euler_terms` fails the
        scan at the object's first pair as a target, with Ext (0, 1, 0),
        whether the kernel walks that pair or the closed form settles it:
        both read the scan's chi."""
        group = trivial_group(fan)
        coll = collection_for(fan, group)
        _, weights, k_degree = _ample_weights(fan)
        first_as_target = {}
        for pair in scan_pairs(coll.blocks):
            first_as_target.setdefault(pair[2], pair)

        def walked(pair):
            degree = sum(map(mul, weights, pair[2])) - sum(map(mul, weights, pair[1]))
            return degree >= 0 or k_degree - degree >= 0

        real = derived._euler_terms
        for route in (True, False):
            kind, source, target = next(
                p for p in first_as_target.values() if walked(p) == route)

            def planted(a, d):
                chi, chi_neg, support = real(a, d)
                return chi - (d == target), chi_neg, support

            monkeypatch.setattr(derived, "_euler_terms", planted)
            cert = verify_collection(coll, group)
            monkeypatch.undo()
            assert cert.first_violation == ExtViolation(kind, source, target, (0, 1, 0))


class TestClassesFromBasis:
    """The objects' determinant and orbits read off the standard basis's
    certificate are those of the objects' own certificate, and both
    determinants are the triple-loop Bareiss oracle's.  What cannot be read
    off it is certified from scratch, with the same verdict and witness."""

    @staticmethod
    def assert_read_off(coll, group, basis):
        fan, objects = coll.fan, flat_objects(coll)
        tags = tuple(("block", b) for b, block in enumerate(coll.blocks) for _ in block)
        full = verify_permutation_basis(PermutationBasis(fan, objects, tags), group)
        assert full.ok
        assert derived._classes_from_basis(fan, basis, objects) == (full.determinant, full.orbits)
        assert full.determinant == oracles.triple_loop_bareiss(model_rows(fan, objects))

    def test_corpus_pairs_in_three_bases_and_both_orders(self):
        rng = random.Random(37)
        cases = 0
        for entry in standard_corpus(max_rays=16):
            for _ in range(3):
                fan, group = random_basis(rng, entry.fan, entry.group)
                coll, basis = certified_pair(fan, group)
                assert basis.determinant == oracles.triple_loop_bareiss(
                    model_rows(fan, basis.basis.divisors))
                for c in (coll, coll.reversed()):
                    self.assert_read_off(c, group, basis)
                    cases += 1
        assert cases == 1146

    @pytest.mark.parametrize("name", ["recipe-64", "recipe-128", "dp6-192-d12"])
    def test_large_fans_in_both_orders(self, name):
        """The recipe fans under the trivial group, and dP6 blown up at every
        cone five times under D12 (the CI recipe), whose 19 orbits of rows
        map onto orbits of objects."""
        fan, group, coll, basis = large_pair(name)
        assert basis.determinant == oracles.triple_loop_bareiss(
            model_rows(fan, basis.basis.divisors))
        for c in (coll, coll.reversed()):
            self.assert_read_off(c, group, basis)
        assert len(basis.orbits) == (19 if name == "dp6-192-d12" else fan.n)

    def test_duality_on_each_core_has_determinant_minus_one_to_the_rank(self):
        """det(beta) = (-1)^t: on the terminal surface of every corpus pair,
        in a random basis, the t rows O(D) and the t rows O(-D) of the slots
        of `core_blocks` are bases of K0 whose determinants differ by that
        sign."""
        rng = random.Random(43)
        ranks = set()
        for entry in standard_corpus(max_rays=16):
            _, label = classify_pair(*random_basis(rng, entry.fan, entry.group))
            core, t = label.fan, label.fan.n
            slots = [rays for block in core_blocks(label) for _, rays in block]
            plus, minus = (oracles.triple_loop_bareiss(model_rows(
                core, [tuple(sign * rays.count(e) for e in range(t)) for rays in slots]))
                for sign in (1, -1))
            assert minus in (1, -1) and plus == (-1) ** t * minus, label
            ranks.add(t)
        assert ranks == {3, 4, 6}

    def test_non_unimodular_core_row_fails_only_its_own_certificate(self, dp6, dp6_aut):
        """A core object doubled matches no row: the objects are certified
        from scratch and fail, and the basis passes.  A core row of the basis
        doubled fails the basis, and the collection, which reads no failed
        certificate, keeps its own verdict and passes."""
        coll, basis = certified_pair(dp6, dp6_aut)
        head, orbit, (q, q2) = coll.blocks
        planted = ExceptionalCollection(dp6, (head, orbit, (q, tuple(2 * c for c in q2))), "")
        cert = verify_collection(planted, dp6_aut, basis)
        assert cert == verify_collection(planted, dp6_aut)
        assert cert.determinant not in (1, -1) and not cert.ok and basis.ok
        rows = list(basis.basis.divisors)
        rows[-1] = tuple(2 * c for c in rows[-1])
        failed = verify_permutation_basis(basis.basis._replace(divisors=tuple(rows)), dp6_aut)
        assert failed.determinant not in (1, -1) and not failed.ok
        assert verify_collection(coll, dp6_aut, failed) == verify_collection(coll, dp6_aut)
        assert verify_collection(coll, dp6_aut, failed).ok

    def test_failed_basis_leaves_the_full_verdict(self, dp6, dp6_aut):
        """A basis certificate with an error is not read, in either order:
        the reversed collection keeps its first violated pair."""
        coll, basis = certified_pair(dp6, dp6_aut)
        failed = basis._replace(orbits=(), error="planted failure")
        for c in (coll, coll.reversed()):
            cert = verify_collection(c, dp6_aut, failed)
            assert cert == verify_collection(c, dp6_aut) == pairwise_verify_collection(c, dp6_aut)
        assert cert.first_violation is not None

    def test_split_block_or_dropped_object_keeps_the_certificate(self, dp6, dp6_aut):
        """A split block still reads the basis (its objects are the rows),
        and is not group-closed; a dropped object matches no full set of
        rows and is certified from scratch, determinant 0.  Either way the
        certificate, witness included, is the pairwise oracle's."""
        coll, basis = certified_pair(dp6, dp6_aut)
        (o,), (a, b, c), tail = coll.blocks
        cases = {
            "split": ((o,), (a,), (b, c), tail),
            "split behind orbits": ((o, a, b), (*tail, c)),
            "dropped": ((o,), (a, b, c), tail[:1]),
            "dropped, reversed": (tail[:1], (a, b, c), (o,)),
        }
        for name, blocks in cases.items():
            planted = ExceptionalCollection(dp6, blocks, name)
            cert = verify_collection(planted, dp6_aut, basis)
            assert cert == verify_collection(planted, dp6_aut), name
            assert cert == pairwise_verify_collection(planted, dp6_aut), name
            assert not cert.blocks_group_closed and not cert.ok
            read = derived._classes_from_basis(dp6, basis, flat_objects(planted))
            assert (read is None) == name.startswith("dropped")
        assert cert.determinant == 0 and cert.first_violation.kind == "order"

    def test_orbit_of_mixed_signs_is_not_read(self):
        """An exceptional row of the 6-orbit of dP6 blown up at its six
        cones, re-tagged as a core row and matched by its negated object,
        leaves an orbit of two signs: the objects are certified from
        scratch, and the group does not permute them."""
        fan = blow_up(dp6_fan(), range(6))
        group = compute_aut(fan)
        coll, basis = certified_pair(fan, group)
        k = basis.basis.tags.index(("exc", 0))
        tags = list(basis.basis.tags)
        tags[k] = ("core", "planted")
        planted_basis = basis._replace(basis=basis.basis._replace(tags=tuple(tags)))
        e = basis.basis.divisors[k]
        blocks = tuple(tuple(tuple(-c for c in d) if d == e else d for d in block)
                       for block in coll.blocks)
        planted = ExceptionalCollection(fan, blocks, "negated exceptional object")
        assert derived._classes_from_basis(fan, planted_basis, flat_objects(planted)) is None
        cert = verify_collection(planted, group, planted_basis)
        assert cert == verify_collection(planted, group)
        assert cert.orbits == () and not cert.blocks_group_closed

    def test_basis_of_another_kind_or_fan_is_not_read(self, dp6, dp6_aut):
        """The collection's objects are not the rows of a searched basis, and
        a basis certified on the pair in another lattice basis names another
        fan."""
        coll, basis = certified_pair(dp6, dp6_aut)
        searched = verify_permutation_basis(search_line_bundle_basis(dp6, dp6_aut, 1), dp6_aut)
        _, moved = certified_pair(*random_basis(random.Random(5), dp6, dp6_aut))
        for other in (searched, moved):
            assert other.ok
            assert derived._classes_from_basis(dp6, other, flat_objects(coll)) is None
            assert verify_collection(coll, dp6_aut, other) == verify_collection(coll, dp6_aut)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_differential_slice_on_chains_of_17_to_24_rays(seed):
    """The Tier-1 slice of the chains row of `sweeps.py`: its cohomology and
    collection checks on a chain of 17-24 rays in a random lattice basis.
    Budget: 100 examples, under 3 s, which reach all 13 group classes."""
    draw = sweeps.chain(seed)
    assert 17 <= draw.fan.n <= 24
    sweeps.pairs(draw.fan, draw.small, column_h0)
    sweeps.collection(draw.fan, draw.group)


def test_sweeps_at_seed_0(monkeypatch, capsys):
    """Every row of `sweeps.py` passes at seed 0 with one line per check, the
    `pairs` row on its 666 pairs of 585 fans, 25 G-minimal, and all 18 table
    entries.  A planted h0 fault fails the chains row first, and a dropped
    candidate orbit the search row, each naming the seed and the check."""
    rows = [row._replace(seeds=range(1)) for row in sweeps.ROWS]
    sweeps.run(rows)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == sum(len(row.checks) for row in rows)
    assert [ln.split()[1] for ln in lines if ln[:5] == "pairs"] == ["666", "585", "666", "25", "18"]
    monkeypatch.setattr(oracles, "column_h0", lambda fan, coeffs: -1)
    with pytest.raises(AssertionError, match="oracles"):
        sweeps.run(rows[1:])
    assert capsys.readouterr().out == "chains, seed 0: cohomology, |c| <= 6, against column_h0\n"
    candidates = grothendieck._candidate_orbits
    monkeypatch.setattr(grothendieck, "_candidate_orbits", lambda *args: (
        candidates(*args)[0], candidates(*args)[1][1:]))
    with pytest.raises(AssertionError):
        sweeps.run(rows[4:])
    assert capsys.readouterr().out.startswith("search, seed 0: _candidate_orbits against")
