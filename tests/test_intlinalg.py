import pytest

from toric_surface_lab.intlinalg import mat_inv, solve2


def test_mat_inv_rejects_a_matrix_that_is_not_unimodular():
    assert mat_inv(((2, 1), (1, 1))) == ((1, -1), (-1, 2))
    with pytest.raises(ValueError, match=r"not unimodular \(det 2\)"):
        mat_inv(((2, 0), (0, 1)))


def test_solve2_rejects_a_pair_that_is_not_a_basis():
    assert solve2((1, 0), (1, 1), (3, 5)) == (3, 2)
    with pytest.raises(ValueError, match="not a lattice basis"):
        solve2((1, 0), (1, 2), (0, 0))
