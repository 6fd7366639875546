import itertools

from toric_surface_lab.cohomology import ext_line_bundles
from toric_surface_lab.derived import (
    ExceptionalCollection,
    build_collection,
    verify_collection,
)
from toric_surface_lab.grothendieck import line_bundle_class
from toric_surface_lab.lattice_fan import blow_up, p2_fan
from toric_surface_lab.minimal_model import classify_pair
from toric_surface_lab.symmetry import compute_aut, trivial_group
from toric_surface_lab.corpus import subgroup_with_label


def collection_for(fan, group):
    return build_collection(*classify_pair(fan, group), group)


class TestCores:
    def test_plane_blocks(self, p2, p2_aut):
        coll = collection_for(p2, p2_aut)
        assert coll.blocks == (
            ((0, 0, 0),),
            ((1, 0, 0),),
            ((2, 0, 0),),
        )
        assert verify_collection(coll, p2, p2_aut).ok

    def test_ruled_blocks(self, f2):
        g = compute_aut(f2)
        coll = collection_for(f2, g)
        assert [len(b) for b in coll.blocks] == [1, 1, 1, 1]
        assert verify_collection(coll, f2, g).ok

    def test_quadric_blocks(self, square, square_aut):
        coll = collection_for(square, square_aut)
        assert [len(b) for b in coll.blocks] == [1, 2, 1]
        assert verify_collection(coll, square, square_aut).ok

    def test_hexagon_blocks(self, dp6, dp6_aut):
        coll = collection_for(dp6, dp6_aut)
        assert [len(b) for b in coll.blocks] == [1, 3, 2]
        cert = verify_collection(coll, dp6, dp6_aut)
        assert cert.ok
        assert cert.determinant in (1, -1)

    def test_hexagon_blocks_under_c6(self, dp6):
        c6 = subgroup_with_label(dp6, "C6")
        coll = collection_for(dp6, c6)
        assert [len(b) for b in coll.blocks] == [1, 3, 2]
        assert verify_collection(coll, dp6, c6).ok

    def test_split_orbit_block_is_not_group_closed(self, dp6, dp6_aut):
        """Splitting the 3-orbit block keeps every Ext check (its objects are
        mutually orthogonal) but the blocks are no longer unions of orbits."""
        coll = collection_for(dp6, dp6_aut)
        head, orbit, tail = coll.blocks
        split = ExceptionalCollection(
            fan=dp6, blocks=(head, *((d,) for d in orbit), tail), provenance="split"
        )
        cert = verify_collection(split, dp6, dp6_aut)
        assert cert.self_ext_ok and cert.block_ok and cert.order_ok
        assert not cert.blocks_group_closed
        assert not cert.ok
        assert verify_collection(split, dp6, trivial_group(dp6)).ok


class TestReversed:
    def test_reversed_plane_fails_with_known_pair(self, p2, p2_aut):
        coll = collection_for(p2, p2_aut).reversed()
        cert = verify_collection(coll, p2, p2_aut)
        assert not cert.ok
        v = cert.first_violation
        assert v.kind == "order"
        assert v.source == (1, 0, 0)
        assert v.target == (2, 0, 0)
        assert v.ext == (3, 0, 0)


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
        assert verify_collection(coll, f1, g).ok

    def test_exceptional_blocks_outermost_first(self, dp6):
        g = trivial_group(dp6)
        coll = collection_for(dp6, g)
        cert = verify_collection(coll, dp6, g)
        assert cert.ok
        # 3 contraction steps: O, three exceptional blocks, then the core.
        assert len(coll.blocks) == 1 + 3 + 2

    def test_corpus_collections_verify(self, small_corpus):
        for entry in small_corpus:
            coll = collection_for(entry.fan, entry.group)
            cert = verify_collection(coll, entry.fan, entry.group)
            assert cert.ok, (entry.fan, entry.group_label, cert.first_violation)
            assert cert.determinant in (1, -1)


class TestBlockExchange:
    def test_swapping_mutually_orthogonal_blocks_keeps_passing(self, small_corpus):
        swaps_tested = 0
        for entry in small_corpus[:25]:
            coll = collection_for(entry.fan, entry.group)
            if not verify_collection(coll, entry.fan, entry.group).ok:
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
                    entry.fan,
                    entry.group,
                )
                assert cert.ok
                swaps_tested += 1
        assert swaps_tested > 0


class TestFullness:
    def test_collection_classes_form_basis(self, small_corpus):
        for entry in small_corpus[:30]:
            coll = collection_for(entry.fan, entry.group)
            classes = [line_bundle_class(entry.fan, d) for d in coll.objects()]
            assert len(classes) == entry.fan.n
            assert len(set(classes)) == entry.fan.n
