from fractions import Fraction
from itertools import product

import pytest

from orbitrr.characters import weyl_dim
from orbitrr.linalg import vec_add, vec_sub
from orbitrr.multiplicities import (_dominant_weights_below, _weight_multiplicities_cached,
                                    tensor_multiplicity, weight_count_dimension,
                                    weight_multiplicities)
from orbitrr.roots import build_root_system, enumerate_weyl_group


def test_su2_weight_string():
    rs = build_root_system("A", 1)
    assert weight_multiplicities(rs, (3,)) == {(3,): 1, (1,): 1, (-1,): 1, (-3,): 1}


def test_adjoint_of_a2_has_double_zero_weight():
    rs = build_root_system("A", 2)
    wm = weight_multiplicities(rs, (1, 1))
    assert wm[(0, 0)] == 2
    assert sum(wm.values()) == 8
    # the six roots each occur once
    assert sum(1 for v in wm.values() if v == 1) == 6


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2"])
def test_dimension_by_weight_count_matches_weyl_formula(label):
    rs = build_root_system(label[0], int(label[1]))
    for labels in product(range(3), repeat=rs.rank):
        assert weight_count_dimension(rs, labels) == weyl_dim(rs, labels)


def test_tensor_examples():
    a1 = build_root_system("A", 1)
    assert tensor_multiplicity(a1, [(1,), (1,)], (0,)) == 1
    assert tensor_multiplicity(a1, [(2,), (2,), (2,)], (2,)) == 3
    a2 = build_root_system("A", 2)
    assert tensor_multiplicity(a2, [(1, 1), (1, 1)], (1, 1)) == 2


def test_su2_clebsch_gordan_ladder():
    a1 = build_root_system("A", 1)
    for j1 in range(4):
        for j2 in range(4):
            for target in range(8):
                expect = 1 if (abs(j1 - j2) <= target <= j1 + j2
                               and (j1 + j2 - target) % 2 == 0) else 0
                assert tensor_multiplicity(a1, [(j1,), (j2,)], (target,)) == expect


def test_triple_product_multiplicities():
    a1 = build_root_system("A", 1)
    for k in range(1, 7):
        assert tensor_multiplicity(a1, [(k,)] * 3, (k,)) == k + 1


def test_parity_zero():
    a1 = build_root_system("A", 1)
    assert tensor_multiplicity(a1, [(1,), (1,)], (1,)) == 0


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3", "B4",
                                   "C2", "C3", "C4", "D4", "G2"])
def test_adjoint_weight_diagram(label):
    # highest weight = highest root: every root once, the zero weight rank times
    rs = build_root_system(label[0], int(label[1]))
    roots = rs.positive_roots + tuple(tuple(-c for c in g) for g in rs.positive_roots)
    expected = {g: 1 for g in roots}
    expected[(0,) * rs.rank] = rs.rank
    assert weight_multiplicities(rs, rs.positive_roots[-1]) == expected


def test_freudenthal_memo_is_bounded():
    # one entry per distinct highest weight: 312 small diagrams, not the
    # 300 A1 diagrams of labels 0-299, whose Freudenthal sums take seconds
    for label, bound in (("A1", 40), ("A2", 8), ("B2", 8), ("C2", 8), ("G2", 4), ("A3", 4)):
        rs = build_root_system(label[0], int(label[1]))
        for labels in product(range(bound), repeat=rs.rank):
            weight_multiplicities(rs, labels)
    assert _weight_multiplicities_cached.cache_info().currsize <= 256


def _dominantize(rs, v):
    while True:
        for i, c in enumerate(v):
            if c < 0:
                # reflect through the i-th simple wall
                v = vec_sub(v, tuple(c * x for x in rs.simple_roots[i]))
                break
        else:
            return v


def _reference_diagram(rs, lam):
    # Freudenthal on the dominant weights alone, each string weight reflected
    # back into the dominant chamber, then the orbits expanded in a second pass
    lam_rho = vec_add(lam, rs.rho)
    norm_top = rs.pairing(lam_rho, lam_rho)
    mult = {}
    for mu in _dominant_weights_below(rs, lam):
        if mu == lam:
            mult[mu] = 1
            continue
        mu_rho = vec_add(mu, rs.rho)
        acc = Fraction(0)
        for g in rs.positive_roots:
            j = 1
            while True:
                nu = vec_add(mu, tuple(j * c for c in g))
                m = mult.get(_dominantize(rs, nu), 0)
                if m == 0:
                    break
                acc += m * rs.pairing(nu, g)
                j += 1
        value = 2 * acc / (norm_top - rs.pairing(mu_rho, mu_rho))
        assert value.denominator == 1 and value >= 0
        if value:
            mult[mu] = int(value)
    full = {}
    for mu, m in mult.items():
        for w in enumerate_weyl_group(rs):
            full[w.act(mu)] = m
    return full


@pytest.mark.parametrize("label, top", [("A1", 60), ("A2", 3), ("B2", 3), ("C2", 3), ("G2", 3),
                                        ("A3", 2), ("B3", 2), ("C3", 2), ("A4", 1), ("B4", 1),
                                        ("C4", 1), ("D4", 1)])
def test_weight_diagram_matches_the_dominant_chamber_walk(label, top):
    # the orbit-filled diagram has the reference's weights, values and order
    rs = build_root_system(label[0], int(label[1]))
    for labels in product(range(top + 1), repeat=rs.rank):
        diagram = weight_multiplicities(rs, labels)
        expected = _reference_diagram(rs, labels)
        assert diagram == expected
        assert list(diagram.items()) == list(expected.items())
