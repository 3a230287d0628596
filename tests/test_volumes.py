from fractions import Fraction as F

import pytest

from orbitrr.volumes import partition_fiber_volume


def W(*pairs):
    return [tuple(F(c) for c in p) for p in pairs]


def test_single_weight_line():
    assert partition_fiber_volume(W((1,)), (F(5),)) == 1
    assert partition_fiber_volume(W((2,)), (F(5),)) == F(1, 2)
    assert partition_fiber_volume(W((1,)), (F(-1),)) == 0


def test_repeated_weight_gives_simplex_volume():
    # n copies of the same 1-d weight: volume p^{n-1}/(n-1)!
    assert partition_fiber_volume(W((1,), (1,)), (F(3),)) == 3
    assert partition_fiber_volume(W((1,), (1,), (1,)), (F(3),)) == F(9, 2)
    # fiber dimensions 3 and 4: 3^3/3! and 2^4/4!
    assert partition_fiber_volume(W((1,), (1,), (1,), (1,)), (F(3),)) == F(9, 2)
    assert partition_fiber_volume(W((1,), (1,), (1,), (1,), (1,)), (F(2),)) == F(2, 3)
    # a product of simplices, fiber dimension 3: (2^2/2!) (3^1/1!)
    assert partition_fiber_volume(W((1, 0), (1, 0), (1, 0), (0, 1), (0, 1)), (F(2), F(3))) == 6


def test_square_system_is_inverse_determinant():
    assert partition_fiber_volume(W((1, 0), (0, 1)), (F(2), F(3))) == 1
    assert partition_fiber_volume(W((2, 0), (0, 3)), (F(2), F(3))) == F(1, 6)
    assert partition_fiber_volume(W((1, 0), (0, 1)), (F(-1), F(1))) == 0


def test_three_weights_piecewise_linear():
    weights = W((1, 0), (0, 1), (1, 1))
    # min(p1, p2) on the cone
    assert partition_fiber_volume(weights, (F(2), F(1))) == 1
    assert partition_fiber_volume(weights, (F(1), F(2))) == 1
    assert partition_fiber_volume(weights, (F(3), F(3))) == 3
    assert partition_fiber_volume(weights, (F(5), F(2))) == 2


def test_two_dimensional_fiber_polygon():
    weights = W((1, 0), (0, 1), (1, 1), (1, 2))
    value = partition_fiber_volume(weights, (F(2), F(3)))
    # hand integration: vol(p) = integral over t4 of the three-weight
    # volume min(2 - t4, 3 - 2 t4), t4 in [0, 3/2], breakpoint at t4 = 1:
    # integral_0^1 (2 - t) dt + integral_1^{3/2} (3 - 2t) dt = 3/2 + 1/4
    assert value == F(3, 2) + F(1, 4)
    # a repeated weight repeats a facet of the fiber, which counts once:
    # the integral over t4 in [0, 2] of the three-weight volume
    # min(2 - t4, 2 - t4) is 2
    assert partition_fiber_volume(W((1, 0), (0, 1), (1, 1), (1, 1)), (F(2), F(2))) == 2


def test_infeasible_and_degenerate_targets():
    weights = W((1, 0), (0, 1), (1, 1))
    assert partition_fiber_volume(weights, (F(-1), F(1))) == 0
    # on the boundary ray the fiber degenerates to a point of a lower
    # dimension: the honest volume there is 0
    assert partition_fiber_volume(weights, (F(2), F(0))) == 0


def test_unbounded_fiber_is_refused():
    with pytest.raises(ValueError):
        partition_fiber_volume(W((1, 0), (-1, 0), (0, 1)), (F(0), F(1)))


def test_non_spanning_weights_are_refused():
    with pytest.raises(ValueError):
        partition_fiber_volume(W((1, 0), (2, 0)), (F(1), F(0)))


@pytest.mark.parametrize("weights,p,message", [
    ([(1, 0), (1,)], (1, 1), "weights of lengths 2 and 1"),
    ([(1, 0), (0, 1)], (1,), "target of length 1 for weights of length 2"),
    ([(1, 0), (0, 1), (1, 1)], (1, 1, 1), "target of length 3 for weights of length 2"),
], ids=["ragged-weights", "short-target", "long-target"])
def test_mismatched_lengths_are_refused(weights, p, message):
    with pytest.raises(ValueError, match=message):
        partition_fiber_volume(weights, p)
