import sys
from fractions import Fraction as F

import pytest

from orbitrr.linalg import kernel_basis, mat_det, mat_inv, num_str, solve_exact, vec, vec_str


def _exact(values):
    return all(type(x) in (int, F) for x in values)


def test_vec_gives_ints_where_integral_and_fractions_otherwise():
    v = vec([2, F(4, 2), F(1, 2), "3/3"])
    assert v == (2, 2, F(1, 2), 1) and _exact(v)
    assert [type(x) for x in v] == [int, int, F, int]
    assert vec_str(v) == "2,2,1/2,1" and vec_str(vec(["-2"])) == "-2"


def test_num_str_renders_exact_numbers_of_any_length():
    # str() refuses past the interpreter's int-to-str limit, which guards
    # parsing; rendering has no limit and leaves that limit alone
    limit = sys.get_int_max_str_digits()
    n = -(10 ** 4999 + 7)
    q = F(10 ** 4999 + 1, 3 * 10 ** 4999 + 7)
    texts = (num_str(n), num_str(q), vec_str((n, q, 2)))
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        assert len(str(n)) == 5001 and len(str(q.denominator)) == 5000 > limit > 0
        assert texts == (str(n), str(q), "%s,%s,2" % (n, q))
    finally:
        sys.set_int_max_str_digits(limit)
    # below the limit the text is str()'s
    for x in (0, -3, 10 ** 30, F(-5, 3), F(6, 3), F(1, 10 ** 20)):
        assert num_str(x) == str(x)


def test_det_of_int_matrix_is_exact_and_flips_sign_under_row_swap():
    d = mat_det(((2, 1), (1, 1)))
    assert d == 1 and _exact([d])
    swapped = mat_det(((1, 1), (2, 1)))
    assert swapped == -1 and _exact([swapped])
    assert mat_det(((0, 1, 0), (1, 0, 0), (0, 0, 3))) == -3
    assert mat_det(((1, 2), (2, 4))) == 0


def test_inverse_of_int_matrix_is_exact_and_singular_input_raises():
    inv = mat_inv(((2, 1), (1, 1)))
    assert inv == ((1, -1), (-1, 2))
    assert _exact([x for row in inv for x in row])
    assert mat_inv(((2, 0), (0, 3))) == ((F(1, 2), 0), (0, F(1, 3)))
    with pytest.raises(ZeroDivisionError):
        mat_inv(((1, 2), (2, 4)))


def test_solve_exact_on_int_input():
    sol = solve_exact(((2, 1), (1, 3)), [(1, 2)])
    assert sol == [(F(1, 5), F(3, 5))]
    assert _exact(sol[0])
    # rank-deficient but consistent: free variable set to zero
    assert solve_exact(((1, 1), (2, 2)), [(3, 6)]) == [(3, 0)]
    # inconsistent
    assert solve_exact(((1, 1), (2, 2)), [(1, 3)]) is None


def test_kernel_of_rank_deficient_int_matrix():
    basis = kernel_basis(((2, 4),))
    assert basis == [(-2, 1)]
    assert _exact(basis[0])
    basis = kernel_basis(((1, 2, 3), (2, 4, 6)))
    assert basis == [(-2, 1, 0), (-3, 0, 1)]
    assert all(_exact(v) for v in basis)
    assert kernel_basis(((1, 0), (0, 1))) == []
