import itertools
import random
import time

import numpy as np
import pytest

from toric_surface_lab.cohomology import (
    CohomologyVector,
    _ample_weights,
    _cohomology,
    ext_line_bundles,
    h0,
    line_bundle_cohomology,
)
from toric_surface_lab.corpus import standard_corpus
from toric_surface_lab.derived import ExceptionalCollection, verify_collection
from toric_surface_lab.grothendieck import line_bundle_class, picard
from toric_surface_lab.lattice_fan import (
    apply_matrix,
    blow_up,
    dp6_fan,
    hirzebruch_fan,
    p2_fan,
    self_intersections,
)
from toric_surface_lab.symmetry import trivial_group

import sweeps
from oracles import (
    box_h0,
    chamber_cohomology,
    ci_fan,
    column_h0,
    doubling_ample_weights,
    floor_sum_h0,
    two_pass_cohomology,
    unimodular_matrices,
    walk_h0,
)


class TestExamples:
    def test_structure_sheaf(self, p2, f2, dp6):
        for fan in (p2, f2, dp6):
            assert line_bundle_cohomology(fan, (0,) * fan.n).as_tuple() == (1, 0, 0)

    def test_hyperplane_on_plane(self, p2):
        assert line_bundle_cohomology(p2, (1, 0, 0)).as_tuple() == (3, 0, 0)

    def test_adjoint_on_plane(self, p2):
        assert line_bundle_cohomology(p2, (-1, -1, -1)).as_tuple() == (0, 0, 1)

    def test_ext_forward(self, p2):
        assert ext_line_bundles(p2, (0, 0, 0), (1, 0, 0)).as_tuple() == (3, 0, 0)

    def test_ext_backward_vanishes(self, p2):
        assert ext_line_bundles(p2, (1, 0, 0), (0, 0, 0)).as_tuple() == (0, 0, 0)

    def test_ext_rejects_length_mismatch(self, p2):
        """A divisor of the wrong length is an error, not cut to the shorter,
        in each routine that takes one."""
        for first, second in (((0, 0, 0), (1, 0, 0, 5)), ((1, 0, 0, 5), (0, 0, 0))):
            with pytest.raises(ValueError, match="expected 3 coefficients"):
                ext_line_bundles(p2, first, second)
        for d in ((1, 0), (1, 0, 0, 5)):
            coll = ExceptionalCollection(p2, (((0, 0, 0),), (d,)), "wrong length")
            for call in (lambda: h0(p2, d), lambda: line_bundle_cohomology(p2, d),
                         lambda: verify_collection(coll, trivial_group())):
                with pytest.raises(ValueError, match=f"expected 3 coefficients, got {len(d)}"):
                    call()

    def test_self_ext(self, f2):
        rng = random.Random(2)
        for _ in range(10):
            d = tuple(rng.randint(-3, 3) for _ in range(4))
            assert ext_line_bundles(f2, d, d).as_tuple() == (1, 0, 0)


class TestCoefficientTypes:
    """Coefficients are integers: a float raises instead of being truncated,
    and numpy integers are accepted."""

    def test_float_coefficients_raise(self, p2):
        with pytest.raises(TypeError):
            line_bundle_cohomology(p2, [0.9, 0, 0])
        with pytest.raises(TypeError):
            ext_line_bundles(p2, (0, 0, 0), (2.9, 0, 0))
        with pytest.raises(TypeError):
            h0(p2, [1.0, 0, 0])

    def test_numpy_integers_accepted(self, p2):
        two_h = np.array([2, 0, 0], dtype=np.int64)
        assert line_bundle_cohomology(p2, two_h) == (6, 0, 0)
        assert ext_line_bundles(p2, np.zeros(3, dtype=np.int64), two_h) == (6, 0, 0)
        assert h0(p2, two_h) == 6

    def test_vector_is_a_named_tuple(self):
        v = CohomologyVector(3, 1, 0)
        assert v == (3, 1, 0) == v.as_tuple()
        assert (v.h0, v.h1, v.h2, v.euler) == (3, 1, 0, 2)
        assert repr(v) == "CohomologyVector(h0=3, h1=1, h2=0)"


class TestDualityAndEuler:
    def test_serre_duality(self, small_corpus):
        rng = random.Random(6)
        for entry in small_corpus[:30]:
            fan = entry.fan
            for _ in range(20):
                d = tuple(rng.randint(-4, 4) for _ in range(fan.n))
                forward = line_bundle_cohomology(fan, d)
                dual = line_bundle_cohomology(fan, tuple(-1 - c for c in d))
                assert forward.as_tuple() == (dual.h2, dual.h1, dual.h0)

    def test_euler_matches_riemann_roch(self, small_corpus):
        rng = random.Random(8)
        for entry in small_corpus[:30]:
            fan = entry.fan
            for _ in range(20):
                d = tuple(rng.randint(-4, 4) for _ in range(fan.n))
                assert (
                    line_bundle_cohomology(fan, d).euler
                    == line_bundle_class(fan, d).chi
                )


class TestSections:
    def test_empty_polytope(self, p2):
        assert h0(p2, (-1, 0, 0)) == 0

    def test_monotone_under_effective(self, dp6):
        rng = random.Random(10)
        for _ in range(30):
            d = [rng.randint(-3, 3) for _ in range(6)]
            bigger = list(d)
            bigger[rng.randrange(6)] += 1
            assert h0(dp6, bigger) >= h0(dp6, d)

    def test_h1_nonnegative(self, small_corpus):
        rng = random.Random(12)
        for entry in small_corpus[:30]:
            fan = entry.fan
            for _ in range(15):
                d = tuple(rng.randint(-4, 4) for _ in range(fan.n))
                assert line_bundle_cohomology(fan, d).h1 >= 0

    def test_kernel_raises_on_negative_h1(self, p2, f2, dp6):
        """The kernel itself, handed chi(O_X) + 1 = 2 for the zero divisor,
        raises instead of returning h1 = -1."""
        for fan in (p2, f2, dp6):
            zero = (0,) * fan.n
            with pytest.raises(ArithmeticError) as info:
                _cohomology(_ample_weights(fan), zero, 0, 2)
            assert str(info.value) == f"negative h1 = -1 for divisor {zero}: h0=1, h2=0, chi=2"


class TestChamberOracle:
    def test_plane_sample(self):
        fan = p2_fan()
        for c in itertools.product(range(-2, 3), repeat=3):
            assert line_bundle_cohomology(fan, c).as_tuple() == chamber_cohomology(fan, c)

    def test_ruled_sample(self):
        fan = hirzebruch_fan(2)
        rng = random.Random(3)
        for _ in range(150):
            c = tuple(rng.randint(-3, 3) for _ in range(4))
            assert line_bundle_cohomology(fan, c).as_tuple() == chamber_cohomology(fan, c)

    def test_hexagon_sample(self):
        fan = dp6_fan()
        rng = random.Random(4)
        for _ in range(60):
            c = tuple(rng.randint(-2, 2) for _ in range(6))
            assert line_bundle_cohomology(fan, c).as_tuple() == chamber_cohomology(fan, c)


class TestBoxOracle:
    """The facet-length reduction against the lattice-point box scan, and the
    column count against both."""

    def _check_band(self, small_corpus, bound, samples, seed):
        rng = random.Random(seed)
        fans = [entry.fan for entry in small_corpus]
        for _ in range(samples):
            fan = rng.choice(fans)
            d = tuple(rng.randint(-bound, bound) for _ in range(fan.n))
            for c in (d, tuple(-1 - x for x in d)):
                assert h0(fan, c) == box_h0(fan, c) == column_h0(fan, c), (fan, c)
            lat = picard(fan)
            assert line_bundle_cohomology(fan, d).euler == lat.chi(lat.divisor_coords(d))

    def test_small_band(self, small_corpus):
        self._check_band(small_corpus, 4, 400, 21)

    def test_large_band(self, small_corpus):
        self._check_band(small_corpus, 24, 300, 22)

    def test_ruled_surfaces(self):
        rng = random.Random(23)
        for a in (0, 1, 2, 5, 40):
            fan = hirzebruch_fan(a)
            for _ in range(40):
                c = tuple(rng.randint(-6, 6) for _ in range(4))
                assert h0(fan, c) == box_h0(fan, c), (a, c)


class TestFloorSumOracle:
    """`oracles.floor_sum_h0`, whose cost does not grow with the polygon,
    against the column count on the corpus fans, and against the kernel at
    coefficients up to 10^9 and on F(2^40)."""

    @pytest.fixture(scope="class")
    def corpus_fans(self):
        return list({e.fan.rays: e.fan for e in standard_corpus(max_rays=16)}.values())

    def test_matches_column_h0_on_corpus(self, corpus_fans):
        rng = random.Random(25)
        for fan in corpus_fans:
            for bound in (3, 12):
                d = tuple(rng.randint(-bound, bound) for _ in range(fan.n))
                for c in (d, tuple(-1 - x for x in d)):
                    assert floor_sum_h0(fan, c) == column_h0(fan, c), (fan, c)

    def test_matches_kernel_at_large_coefficients(self, corpus_fans):
        rng = random.Random(26)
        for fan in corpus_fans:
            for bound in (10**6, 10**9):
                d = tuple(rng.randint(-bound // 8, bound) for _ in range(fan.n))
                assert sweeps.mismatch(fan, d, floor_sum_h0) is None

    def test_huge_twist(self):
        fan = hirzebruch_fan(2**40)
        assert floor_sum_h0(fan, (0, 0, 0, 1)) == h0(fan, (0, 0, 0, 1)) == 2**40 + 2


class TestHugeTwist:
    """F(2^40): its polytopes have about 2^40 lattice points."""

    def test_structure_sheaf(self):
        fan = hirzebruch_fan(2**40)
        assert line_bundle_cohomology(fan, (0, 0, 0, 0)).as_tuple() == (1, 0, 0)

    def test_positive_section(self):
        fan = hirzebruch_fan(2**40)
        assert h0(fan, (0, 0, 0, 1)) == 2**40 + 2

    def test_large_coefficients_are_fast(self):
        fan = dp6_fan()
        fan = blow_up(fan, range(6))
        fan = blow_up(fan, (0, 1))
        assert fan.n == 14
        rng = random.Random(24)
        lat = picard(fan)
        start = time.perf_counter()
        for _ in range(5):
            d = tuple(rng.randint(-10**4, 10**4) for _ in range(fan.n))
            forward = line_bundle_cohomology(fan, d)
            dual = line_bundle_cohomology(fan, tuple(-1 - c for c in d))
            assert forward.as_tuple() == (dual.h2, dual.h1, dual.h0)
            assert forward.euler == lat.chi(lat.divisor_coords(d))
        assert time.perf_counter() - start < 1.0


class TestOnePass:
    """One D.H for both sides against the two-h0 composition it replaced."""

    TWISTS = (10, 10**2, 10**3, 10**4, 10**5, 2**40)

    def _cases(self):
        """(fan, D, sample): every corpus fan in its own basis and in a seeded
        random one, |c| <= 4 and |c| <= 24; then F(a), one D per s = c1 + c3.
        `sample` marks the small slice that box_h0 can count."""
        rng = random.Random(71)
        pool = unimodular_matrices(3)
        fans = {e.fan.rays: e.fan for e in standard_corpus(max_rays=16)}.values()
        for fan in fans:
            for image in (fan, apply_matrix(rng.choice(pool), fan)):
                for bound in (4, 24):
                    for k in range(6):
                        d = tuple(rng.randint(-bound, bound) for _ in range(image.n))
                        yield image, d, bound == 4 and k == 0
        for a in self.TWISTS:
            fan = hirzebruch_fan(a)
            for s in range(-8, 9):
                c1 = rng.randint(max(-4, s - 4), min(4, s + 4))
                yield fan, (rng.randint(-4, 4), c1, rng.randint(-4, 4), s - c1), False

    def test_matches_two_pass(self):
        signs = set()
        boxed = 0
        for fan, d, sample in self._cases():
            dual = tuple(-1 - x for x in d)
            _, weights, k_degree = _ample_weights(fan)
            degree = sum(w * x for w, x in zip(weights, d))
            signs.add((degree < 0, k_degree - degree < 0))
            h = line_bundle_cohomology(fan, d)
            assert h.as_tuple() == two_pass_cohomology(fan, d), (fan, d)
            assert (h.h0, h.h2) == (h0(fan, d), h0(fan, dual)), (fan, d)
            if sample:
                assert (h.h0, h.h2) == (box_h0(fan, d), box_h0(fan, dual)), (fan, d)
                boxed += 1
        # (D.H < 0, (K - D).H < 0): each branch of the kernel was taken.  The
        # two degrees sum to K.H = -sum H.D_e < 0, so both >= 0 cannot occur.
        assert signs == {(True, True), (True, False), (False, True)}
        assert boxed > 100


class TestAmpleClass:
    """The H of a closing relation against the doubling construction it
    replaced, on every corpus fan and on the 64- and 128-ray recipe fans."""

    @staticmethod
    def _fans():
        fans = {e.fan.rays: e.fan for e in standard_corpus(max_rays=16)}.values()
        return [*fans, ci_fan(64), ci_fan(128)]

    def test_closing_relation(self):
        """sum l_e v_e = 0 with every l_e >= 1, and l_e = H.D_e for the
        divisor H of the polygon with those edge lengths, by the Picard
        lattice's own intersection form."""
        for fan in [*self._fans(), ci_fan(256)]:
            a, weights, k_degree = _ample_weights(fan)
            assert a == self_intersections(fan)
            assert min(weights) >= 1 and k_degree == -sum(weights)
            vertex, coeffs = (0, 0), []
            for (x, y), length in zip(fan.rays, weights):
                coeffs.append(-(vertex[0] * x + vertex[1] * y))
                vertex = (vertex[0] + length * y, vertex[1] - length * x)
            assert vertex == (0, 0), fan  # the polygon closes: sum l_e v_e = 0
            lat = picard(fan)
            h = lat.divisor_coords(coeffs)
            units = [[int(e == i) for e in range(fan.n)] for i in range(fan.n)]
            assert [lat.pair(h, lat.divisor_coords(u)) for u in units] == list(weights)

    def test_small_at_256_rays(self):
        """The doubling construction's weights have about n bits; these
        stay small."""
        assert max(_ample_weights(ci_fan(256))[1]) < 2**20

    def test_h0_matches_doubling_ample_class(self):
        """h0 does not depend on H: `h0` against `_reduce` under the
        doubling table (`walk_h0`), for D and K - D."""
        rng = random.Random(83)
        values = set()
        for fan in self._fans():
            for _ in range(12 if fan.n <= 16 else 40):
                d = [rng.randint(-2, 4) for _ in range(fan.n)]
                for c in (d, [-1 - x for x in d]):
                    h = h0(fan, c)
                    assert h == walk_h0(fan, c, doubling_ample_weights), (fan, c)
                    values.add(min(h, 2))
        assert values == {0, 1, 2}
