from fractions import Fraction as F
from itertools import product

import pytest

from orbitrr.characters import character_series, orbit_volume, weyl_denominator, weyl_dim
from orbitrr.errors import DegenerateOrbitError, InternalInconsistencyError
from orbitrr.multiplicities import weight_multiplicities
from orbitrr.roots import build_root_system, enumerate_weyl_group
from orbitrr.series import TruncatedSeries

GROUPS = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2"]


def test_weyl_dim_examples():
    assert weyl_dim(build_root_system("A", 1), (3,)) == 4
    assert weyl_dim(build_root_system("A", 2), (1, 1)) == 8
    for label in ("A1", "B2", "G2"):
        rs = build_root_system(label[0], int(label[1]))
        assert weyl_dim(rs, (0,) * rs.rank) == 1


def test_weyl_dim_rejects_bad_weights():
    rs = build_root_system("A", 2)
    with pytest.raises(ValueError):
        weyl_dim(rs, (-1, 0))
    with pytest.raises(ValueError):
        weyl_dim(rs, (F(1, 2), 0))


def test_orbit_volume_examples():
    assert orbit_volume(build_root_system("A", 1), (1,)) == 1
    assert orbit_volume(build_root_system("A", 2), (1, 1)) == 1
    assert orbit_volume(build_root_system("A", 2), (2, 1)) == 3


def test_orbit_volume_allows_rational_points():
    # Lambda = rho/2 scales each of the three root pairings by 1/2
    rs = build_root_system("A", 2)
    assert orbit_volume(rs, (F(1, 2), F(1, 2))) == F(1, 8)


def test_orbit_volume_wall_error():
    with pytest.raises(DegenerateOrbitError):
        orbit_volume(build_root_system("A", 2), (1, 0))


def test_orbit_volume_refuses_a_non_dominant_point():
    # (1,-3) has an even number of negative root pairings, so the sign of
    # their product alone cannot tell it from a dominant point
    rs = build_root_system("A", 2)
    for labels in ((2, -1), (1, -3)):
        with pytest.raises(ValueError, match="not dominant"):
            orbit_volume(rs, labels)


def test_character_series_su2_example():
    rs = build_root_system("A", 1)
    s = character_series(rs, (2,), 2)
    assert s.to_text() == "3 + 4 * x1^2"


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2"])
def test_character_series_self_check_catches_a_bad_weyl_group(monkeypatch, label):
    rs = build_root_system(label[0], int(label[1]))
    group = enumerate_weyl_group(rs)
    monkeypatch.setattr("orbitrr.characters.enumerate_weyl_group", lambda _: group[:-1])
    with pytest.raises(InternalInconsistencyError, match="root product"):
        character_series(rs, (1,) * rs.rank, 2)


def test_character_series_monomial_bound(monkeypatch):
    # A2 has 3 positive roots: trunc 2 builds C(7, 2) = 21 monomials, trunc 3 C(8, 2) = 28
    rs = build_root_system("A", 2)
    monkeypatch.setattr("orbitrr.characters.MAX_CHARACTER_MONOMIALS", 21)
    assert character_series(rs, (1, 1), 2).constant_term() == 8
    with pytest.raises(ValueError, match="^truncation degree 3 for A2 expands to more than 21 "):
        character_series(rs, (1, 1), 3)


def test_character_series_constant_terms():
    rs = build_root_system("A", 1)
    for lam in range(5):
        assert character_series(rs, (lam,), 0).constant_term() == lam + 1
    assert character_series(build_root_system("A", 2), (1, 1), 0).constant_term() == 8


@pytest.mark.parametrize("label", ["A1", "A2", "B2"])
def test_character_constant_equals_dimension(label):
    rs = build_root_system(label[0], int(label[1]))
    for labels in product(range(3), repeat=rs.rank):
        s = character_series(rs, labels, 0)
        assert s.constant_term() == weyl_dim(rs, labels)


@pytest.mark.parametrize("label", ["A1", "A2", "B2"])
def test_character_series_weyl_invariance(label):
    rs = build_root_system(label[0], int(label[1]))
    labels = (2,) * rs.rank
    s = character_series(rs, labels, 4)
    # the transposed label matrices, over the whole group, are the coroot
    # matrices of the inverses
    for w in enumerate_weyl_group(rs):
        assert s.substitute_linear(tuple(zip(*w.matrix))) == s


def _finite_difference_vanishes(values, order):
    diffs = list(values)
    for _ in range(order):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return all(x == 0 for x in diffs)


def test_character_coefficients_polynomial_in_labels():
    # each truncated coefficient is polynomial in the Dynkin labels of
    # degree at most trunc + (number of positive roots)
    rs = build_root_system("A", 1)
    trunc, m = 2, 1
    order = trunc + m + 1
    monos = [(j,) for j in range(trunc + 1)]
    for mono in monos:
        values = [character_series(rs, (lam,), trunc).coeffs.get(mono, F(0))
                  for lam in range(order + 2)]
        assert _finite_difference_vanishes(values, order)

    rs = build_root_system("A", 2)
    trunc, m = 1, 3
    order = trunc + m + 1
    for mono in [(0, 0), (1, 0), (0, 1)]:
        for fixed in (0, 1):
            values = [character_series(rs, (lam, fixed), trunc).coeffs.get(mono, F(0))
                      for lam in range(order + 2)]
            assert _finite_difference_vanishes(values, order)


def _exp(series):
    """exp of a truncated series without constant term, as its power sum."""
    out = power = TruncatedSeries.constant(1, series.num_vars, series.trunc)
    for k in range(1, series.trunc + 1):
        power = power * series * F(1, k)
        out = out + power
    return out


@pytest.mark.parametrize("label", GROUPS)
def test_weyl_denominator_equals_the_root_product(label):
    # prod over gamma > 0 of (e^{gamma/2} - e^{-gamma/2}) through degree m + 2
    rs = build_root_system(label[0], int(label[1]))
    m = len(rs.positive_roots)
    literal = TruncatedSeries.constant(1, rs.rank, None)
    for k, g in enumerate(rs.positive_roots, 1):
        half = tuple(F(c, 2) for c in g)
        # every factor has minimal degree 1, so degrees above 3 in one
        # factor, or above k + 2 after k factors, cannot reach degree m + 2
        factor = (_exp(TruncatedSeries.linear_form(half, 3))
                  - _exp(TruncatedSeries.linear_form(tuple(-c for c in half), 3)))
        literal = (literal * factor.as_polynomial()).truncate(k + 2).as_polynomial()
    assert weyl_denominator(rs, m + 2) == literal.truncate(m + 2)


def _freudenthal_character(rs, labels, trunc):
    # sum over the weight diagram of m_mu e^{<mu, X>}, one exponential per weight
    out = TruncatedSeries(rs.rank, {}, trunc)
    for mu, mult in weight_multiplicities(rs, labels).items():
        out = out + _exp(TruncatedSeries.linear_form(mu, trunc)) * mult
    return out


@pytest.mark.parametrize("label", GROUPS)
def test_character_series_equals_the_weight_diagram_sum(label):
    rs = build_root_system(label[0], int(label[1]))
    trunc = {1: 5, 2: 4, 3: 3, 4: 2}[rs.rank]
    choices = [(0,) * rs.rank] + list(rs.fundamental_weights)
    if rs.rank <= 2:
        choices.append(rs.rho)
    for labels in choices:
        assert (character_series(rs, labels, trunc)
                == _freudenthal_character(rs, labels, trunc)), labels
