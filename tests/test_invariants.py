import random
from fractions import Fraction as F

import pytest

import orbitrr
from orbitrr import roots
from orbitrr.characters import character_series
from orbitrr.errors import GeneratorDeficiencyError
from orbitrr.invariants import (express_invariant, fundamental_degrees, invariant_generators,
                                _molien_counts, orbit_power_sum)
from orbitrr.roots import build_root_system, enumerate_weyl_group
from orbitrr.series import TruncatedSeries


def test_fundamental_degrees_tables():
    # textbook degrees; the package derives them from the positive roots by height
    tables = {"A1": (2,), "A2": (2, 3), "A3": (2, 3, 4), "A4": (2, 3, 4, 5),
              "B2": (2, 4), "B3": (2, 4, 6), "B4": (2, 4, 6, 8),
              "C2": (2, 4), "C3": (2, 4, 6), "C4": (2, 4, 6, 8),
              "D4": (2, 4, 4, 6), "G2": (2, 6)}
    for label, degrees in tables.items():
        assert fundamental_degrees(build_root_system(label[0], int(label[1]))) == degrees
    assert fundamental_degrees is roots.fundamental_degrees is orbitrr.fundamental_degrees


def test_molien_dimensions_match_degree_products():
    # dim of degree-d invariants = [t^d] prod 1/(1 - t^{d_i})
    for label in ("A1", "A2", "B2", "G2"):
        rs = build_root_system(label[0], int(label[1]))
        degs = fundamental_degrees(rs)
        series = [F(1)] + [F(0)] * 8
        for d in degs:
            for i in range(d, 9):
                series[i] += series[i - d]
        assert _molien_counts(rs, 8) == series, label


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "A4", "D4"])
def test_molien_dimensions_match_degree_products_in_higher_rank(label):
    rs = build_root_system(label[0], int(label[1]))
    expected = [1] + [0] * 8
    for d in fundamental_degrees(rs):
        for i in range(d, 9):
            expected[i] += expected[i - d]
    assert _molien_counts(rs, 8) == expected


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2"])
def test_generators_exist_and_are_invariant(label):
    rs = build_root_system(label[0], int(label[1]))
    gens = invariant_generators(rs)
    assert len(gens) == rs.rank
    for g in gens:
        # over the whole group, the transposed label matrices of w act on X
        # as the coroot matrices of w^-1 do
        for w in enumerate_weyl_group(rs):
            assert g.substitute_linear(tuple(zip(*w.matrix))) == g


def test_orbit_power_sum_is_invariant():
    rs = build_root_system("B", 2)
    p = orbit_power_sum(rs, rs.fundamental_weights[0], 4)
    for w in enumerate_weyl_group(rs):
        assert p.substitute_linear(tuple(zip(*w.matrix))) == p


def test_express_invariant_roundtrip():
    rs = build_root_system("A", 2)
    gens = invariant_generators(rs)
    rng = random.Random(9)
    combo = TruncatedSeries.constant(F(3, 2), 2, None)
    combo = combo + gens[0] * F(rng.randint(1, 4)) + gens[1] * F(-2, 3)
    combo = combo + gens[0] * gens[0] * F(5)
    expr = express_invariant(rs, combo.truncate(6))
    rebuilt = TruncatedSeries.constant(0, 2, None)
    for mono, c in expr.items():
        term = TruncatedSeries.constant(c, 2, None)
        for g, e in zip(gens, mono):
            term = term * g**e
        rebuilt = rebuilt + term
    assert rebuilt.truncate(6) == combo.truncate(6)


def test_express_invariant_rejects_non_invariant():
    rs = build_root_system("A", 1)
    odd = TruncatedSeries.linear_form((F(1),), 3)
    with pytest.raises(GeneratorDeficiencyError):
        express_invariant(rs, odd)


def test_character_series_is_expressible_in_generators():
    for label, labels in (("A1", (2,)), ("A2", (1, 1)), ("B2", (1, 0))):
        rs = build_root_system(label[0], int(label[1]))
        s = character_series(rs, labels, 4)
        expr = express_invariant(rs, s)
        gens = invariant_generators(rs)
        rebuilt = TruncatedSeries.constant(0, rs.rank, None)
        for mono, c in expr.items():
            term = TruncatedSeries.constant(c, rs.rank, None)
            for g, e in zip(gens, mono):
                term = term * g**e
            rebuilt = rebuilt + term
        assert rebuilt.truncate(4) == s
