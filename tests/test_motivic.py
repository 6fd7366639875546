import pytest

from toric_surface_lab.grothendieck import (
    BasisCertificate,
    standard_permutation_basis,
    verify_permutation_basis,
)
from toric_surface_lab.lattice_fan import blow_up, hirzebruch_fan
from toric_surface_lab.minimal_model import classify_minimal, classify_pair, pullback
from toric_surface_lab.motivic import decompose, decomposition_string
from toric_surface_lab.symmetry import compute_aut, trivial_group
from toric_surface_lab.corpus import subgroup_with_label


def certified(fan, group):
    """The certificate of the pair's standard basis, and the label."""
    trace, label = classify_pair(fan, group)
    basis = standard_permutation_basis(pullback(trace), label)
    return verify_permutation_basis(basis, group), label


def pipeline(fan, group):
    return decompose(*certified(fan, group))


class TestFamilyStrings:
    def test_even_ruled(self, f2):
        dec = pipeline(f2, compute_aut(f2))
        assert decomposition_string(dec) == "k×Q×k×Q"

    def test_odd_ruled_collapses(self):
        fan = hirzebruch_fan(3)
        dec = pipeline(fan, compute_aut(fan))
        assert decomposition_string(dec) == "k×k×k×k"
        assert any("odd" in n for n in dec.family.notes)

    def test_plane(self, p2, p2_aut):
        dec = pipeline(p2, p2_aut)
        assert decomposition_string(dec) == "k×A×A^{⊗2}"

    def test_quadric(self, square, square_aut):
        dec = pipeline(square, square_aut)
        assert decomposition_string(dec) == "k×B×A"

    def test_hexagon(self, dp6, dp6_aut):
        dec = pipeline(dp6, dp6_aut)
        assert decomposition_string(dec) == "k×P×Q"
        assert dec.factors[1].base_degree == 3
        assert dec.factors[2].base_degree == 2
        assert any("orbit sizes" in n for n in dec.family.notes)


class TestFactorData:
    def test_counts_and_degrees(self, small_corpus):
        for entry in small_corpus[:30]:
            cert, label = certified(entry.fan, entry.group)
            dec = decompose(cert, label)
            orbits = cert.orbits
            assert len(dec.factors) == len(orbits)
            assert sum(f.base_degree for f in dec.factors) == entry.fan.n
            for factor, orbit in zip(dec.factors, orbits):
                assert factor.base_degree == len(orbit)

    def test_unit_orbit_is_split(self, small_corpus):
        for entry in small_corpus[:30]:
            cert, label = certified(entry.fan, entry.group)
            dec = decompose(cert, label)
            unit_index = next(
                i for i, d in enumerate(cert.basis.divisors) if all(c == 0 for c in d)
            )
            for factor in dec.factors:
                if unit_index in factor.source_orbit:
                    assert factor.brauer_label == "k"

    def test_blowup_adds_etale_factor_per_orbit(self, dp6):
        c6 = subgroup_with_label(dp6, "C6")
        blown = blow_up(dp6, range(6))
        from toric_surface_lab.symmetry import SymmetryGroup

        group = SymmetryGroup(elements=c6.elements, generators=c6.generators).attach(blown)
        cert, label = certified(blown, group)
        dec = decompose(cert, label)
        core = pipeline(dp6, c6)
        exceptional = [f for f in dec.factors
                       if cert.basis.tags[f.source_orbit[0]][0] == "exc"]
        assert len(dec.factors) == len(core.factors) + len(exceptional)
        assert all(f.brauer_label == "k" for f in exceptional)
        assert sum(f.base_degree for f in exceptional) == 6


class TestAnnotateFamily:
    def test_quadric_slots(self, square, square_aut):
        fam = classify_minimal(square, square_aut).row
        assert fam.index == "(iii)"
        assert fam.slots == ("k", "B", "A")
        assert "quadratic" in fam.description

    def test_hexagon_slots(self, dp6, dp6_aut):
        fam = classify_minimal(dp6, dp6_aut).row
        assert fam.index == "(iv)"
        assert fam.slots == ("k", "P", "Q")

    def test_plane_slots(self, p2):
        c3 = subgroup_with_label(p2, "C3")
        fam = classify_minimal(p2, c3).row
        assert fam.index == "(ii)"
        assert fam.slots == ("k", "A", "A^{⊗2}")

    def test_odd_ruled_slots(self):
        fan = hirzebruch_fan(5)
        label = classify_minimal(fan, compute_aut(fan))
        assert label.row.slots == ("k", "k", "k", "k")


class TestStability:
    def test_relabeling_leaves_factor_string_unchanged(self, dp6, dp6_aut):
        from toric_surface_lab.intlinalg import mat_inv, mat_mul
        from toric_surface_lab.lattice_fan import apply_matrix
        from toric_surface_lab.symmetry import SymmetryGroup

        base = decomposition_string(pipeline(dp6, dp6_aut))
        m = ((2, 1), (1, 1))
        image = apply_matrix(m, dp6)
        mi = mat_inv(m)
        conj = SymmetryGroup.from_generators(
            [mat_mul(m, mat_mul(g, mi)) for g in dp6_aut.generators], image
        )
        assert decomposition_string(pipeline(image, conj)) == base


class TestErrors:
    def test_unverified_basis_rejected(self, f2):
        """A failed certificate is the caller's verdict; passing it to
        decompose is a bug."""
        g = trivial_group(f2)
        good, label = certified(f2, g)
        tampered = good.basis._replace(divisors=good.basis.divisors[:-1] + ((0, 0, 0, 0),))
        cert = verify_permutation_basis(tampered, g)
        assert not cert.ok
        with pytest.raises(ValueError, match="decompose needs a certified basis: "):
            decompose(cert, label)

    def test_factors_read_the_certified_basis_tags(self, dp6, dp6_aut):
        """The certificate of a basis whose tags name the Q role on the
        3-orbit and the R role on the 2-orbit decomposes with those slots:
        the factors come from `cert.basis`."""
        std, label = certified(dp6, dp6_aut)
        assert std.orbits == ((0,), (1, 2, 3), (4, 5))
        planted = std.basis._replace(tags=(("core", "one"),) + (("core", "Q"),) * 3
                                     + (("core", "R"),) * 2)
        cert = verify_permutation_basis(planted, dp6_aut)
        assert cert.ok and cert.basis is planted
        assert decomposition_string(decompose(cert, label)) == "k×Q×P"
        assert decomposition_string(decompose(std, label)) == "k×P×Q"

    def test_certificate_of_a_degenerate_basis_is_not_decomposed(self, dp6, dp6_aut):
        """The all-zero divisors on dP6 under D12 fail their own certificate,
        and decompose refuses that certificate."""
        std, label = certified(dp6, dp6_aut)
        bad = std.basis._replace(divisors=((0,) * 6,) * 6)
        cert = verify_permutation_basis(bad, dp6_aut)
        assert not cert.ok
        assert cert.error == "coordinate matrix has determinant 0"
        with pytest.raises(ValueError, match="decompose needs a certified basis: coordinate"):
            decompose(cert, label)

    def test_orbit_mixing_exceptional_and_core_classes_is_refused(self, dp6, dp6_aut):
        """The group permutes exceptional classes among themselves and core
        pullbacks among themselves, so an orbit holding both is a trace bug:
        a hand-built passing certificate with such an orbit raises instead
        of naming an invented factor."""
        std, label = certified(dp6, dp6_aut)
        tags = list(std.basis.tags)
        tags[2] = ("exc", 0)
        cert = BasisCertificate(std.basis._replace(tags=tuple(tags)), std.determinant,
                                std.orbits)
        assert cert.ok and cert.orbits[1] == (1, 2, 3)
        mixed = r"orbit \(1, 2, 3\) mixes tag kinds \['core', 'exc'\]"
        with pytest.raises(ValueError, match=mixed):
            decompose(cert, label)
