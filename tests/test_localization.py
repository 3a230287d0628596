import random
from fractions import Fraction as F
from itertools import combinations_with_replacement, product

import pytest

from orbitrr.characters import orbit_volume, weyl_dim
from orbitrr.errors import (ConfigurationError, DegenerateOrbitError, InadmissibleInputError,
                            InternalInconsistencyError, SingularValueError)
from orbitrr.jsonio import fixture_path, load_fixed_points, parse_fixed_points
from orbitrr.linalg import identity, vec_sub
from orbitrr.localization import (BaseIntersectionOracle, CalibrationRegistry,
                                  FixedPointDatum, _fibration_terms, _fold, _generic_direction,
                                  _tangent_products,
                                  fibration_rr_base, fibration_rr_residue,
                                  product_orbit_fixed_data, raw_fibration_residue,
                                  rr_leading_coefficient, rr_orbit_fixedpoint,
                                  todd_restriction_identity)
from orbitrr.multiplicities import tensor_multiplicity
from orbitrr.residues import canonical_dens, make_term, merge_terms, res_cone
from orbitrr.roots import build_root_system, enumerate_weyl_group
from orbitrr.series import TruncatedSeries, positive_root_product


@pytest.fixture(scope="module")
def a1():
    return build_root_system("A", 1)


@pytest.fixture(scope="module")
def a2():
    return build_root_system("A", 2)


def test_orbit_fixed_data_su2(a1):
    data = product_orbit_fixed_data(a1, [(1,)])
    assert len(data) == 2
    moments = sorted(pt.moment[0] for pt in data)
    assert moments == [-1, 1]
    for pt in data:
        assert len(pt.tangent_weights) == 1
        assert abs(pt.tangent_weights[0][0]) == 2
        # tangent weight points away from the opposite pole
        assert pt.tangent_weights[0][0] == 2 * pt.moment[0]


def test_orbit_fixed_data_a2_rho(a2):
    data = product_orbit_fixed_data(a2, [(1, 1)])
    assert len(data) == 6
    orbit = {w.act(a2.rho) for w in enumerate_weyl_group(a2)}
    assert {pt.moment for pt in data} == orbit
    # product of tangent weights at w equals sign(w) times the root product
    root_poly = positive_root_product(a2)
    for pt, w in zip(data, enumerate_weyl_group(a2)):
        prod = TruncatedSeries.constant(1, 2, None)
        for t in pt.tangent_weights:
            prod = prod * TruncatedSeries.linear_form(t)
        assert prod == root_poly * w.sign


@pytest.mark.parametrize("group,factors", [("A1", [(1,), (2,), (3,)]), ("A2", [(2, 1), (1, 0)]),
                                           ("B2", [(1, 1), (2, 0)])])
def test_fixed_point_data_on_integral_labels_is_in_ints(group, factors):
    rs = build_root_system(group[0], int(group[1]))
    for pt in product_orbit_fixed_data(rs, factors):
        assert all(type(c) is int for c in pt.moment)
        assert all(type(c) is int for t in pt.tangent_weights for c in t)


def test_coadjoint_orbit_points_non_regular(a2):
    pts = product_orbit_fixed_data(a2, [(1, 0)])
    assert len(pts) == 3
    for pt in pts:
        assert len(pt.tangent_weights) == 2


def test_rr_orbit_examples(a1, a2):
    assert rr_orbit_fixedpoint(a1, (1,), 5) == 6
    assert rr_orbit_fixedpoint(a2, (1, 1), 1) == 8
    for rs in (a1, a2):
        assert rr_orbit_fixedpoint(rs, (2,) * rs.rank, 0) == 1


# group -> (largest Dynkin label, largest k) of the sweep
BWB_RANGES = {"A1": (2, 3), "A2": (2, 3), "B2": (2, 3),
              "G2": (2, 2), "A3": (2, 2), "B3": (2, 2), "C3": (2, 2),
              "A4": (1, 2), "B4": (1, 2), "C4": (1, 2), "D4": (1, 2)}


@pytest.mark.parametrize("label", list(BWB_RANGES))
def test_rr_orbit_is_borel_weil_bott(label):
    rs = build_root_system(label[0], int(label[1]))
    top, kmax = BWB_RANGES[label]
    for labels in product(range(top + 1), repeat=rs.rank):
        for k in range(kmax + 1):
            kl = tuple(k * c for c in labels)
            assert rr_orbit_fixedpoint(rs, labels, k) == weyl_dim(rs, kl)


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2"])
def test_rr_orbit_missing_fixed_point_is_a_pole(monkeypatch, label):
    rs = build_root_system(label[0], int(label[1]))
    group = enumerate_weyl_group(rs)
    monkeypatch.setattr("orbitrr.localization.enumerate_weyl_group", lambda _: group[:-1])
    with pytest.raises(InternalInconsistencyError, match="pole at u = 1"):
        rr_orbit_fixedpoint(rs, rs.rho, 1)


def test_todd_restriction_identity_examples(a1, a2):
    for w in enumerate_weyl_group(a1):
        assert todd_restriction_identity(a1, w, 6)
    for w in enumerate_weyl_group(a2):
        assert todd_restriction_identity(a2, w, 8)


def test_rr_leading_coefficient_examples(a1, a2):
    assert rr_leading_coefficient(a1, (1,)) == 1
    assert rr_leading_coefficient(a2, (1, 1)) == 1
    assert rr_leading_coefficient(a2, (2, 1)) == 3
    assert rr_leading_coefficient(a2, (2, 1)) == orbit_volume(a2, (2, 1))


def test_flagship_cube_of_spheres(a1):
    points = product_orbit_fixed_data(a1, [(1,)] * 3)
    assert len(points) == 8
    registry = CalibrationRegistry()
    value = fibration_rr_residue(points, a1, (1,), 3, registry=registry)
    assert value == 4
    oracle = BaseIntersectionOracle.point(a1)
    assert fibration_rr_base(oracle, a1, (1,), 3) == 4
    assert fibration_rr_base(oracle, a1, (1,), 1) == 2
    assert fibration_rr_base(oracle, a1, (0,), 5) == 1


def test_route_equality_on_every_shared_configuration(a1):
    registry = CalibrationRegistry()
    points = product_orbit_fixed_data(a1, [(1,)] * 3)
    oracle = BaseIntersectionOracle.point(a1)
    for k in range(1, 7):
        res = fibration_rr_residue(points, a1, (1,), k, registry=registry)
        base = fibration_rr_base(oracle, a1, (1,), k)
        tensor = tensor_multiplicity(a1, [(k,)] * 3, (k,))
        assert res == base == tensor == k + 1


def test_residue_route_on_rational_lambda(a1):
    # Lambda = omega/2: parity k(3 + 1/2) needs k divisible by 4
    registry = CalibrationRegistry()
    points = product_orbit_fixed_data(a1, [(1,)] * 3)
    for k in (4, 8):
        value = fibration_rr_residue(points, a1, (F(1, 2),), k, registry=registry)
        assert value == tensor_multiplicity(a1, [(k,)] * 3, (k // 2,))
    for k in (2, 3):
        with pytest.raises(InadmissibleInputError):
            fibration_rr_residue(points, a1, (F(1, 2),), k, registry=registry)


def test_singular_value_error_on_boundary_collision(a1):
    points = product_orbit_fixed_data(a1, [(1,)] * 2)
    with pytest.raises(SingularValueError):
        raw_fibration_residue(points, a1, (2,), 2)


def test_interior_collision_is_allowed(a1):
    registry = CalibrationRegistry()
    points = product_orbit_fixed_data(a1, [(1,)] * 4)
    for k in (1, 2, 3):
        value = fibration_rr_residue(points, a1, (2,), k, registry=registry)
        assert value == tensor_multiplicity(a1, [(k,)] * 4, (2 * k,)) == (k + 1) * (k + 2) // 2


def test_parity_admissibility(a1):
    points = product_orbit_fixed_data(a1, [(1,)] * 2)
    with pytest.raises(InadmissibleInputError):
        raw_fibration_residue(points, a1, (1,), 1)
    registry = CalibrationRegistry()
    assert fibration_rr_residue(points, a1, (1,), 2, registry=registry) == 1


def test_lambda_on_wall_rejected(a1):
    points = product_orbit_fixed_data(a1, [(1,)] * 3)
    with pytest.raises(DegenerateOrbitError):
        raw_fibration_residue(points, a1, (0,), 2)


def test_calibration_signature_without_case_is_refused():
    # the constant is derived only for the groups the route is proven on
    registry = CalibrationRegistry()
    for label in ("B2", "G2"):
        with pytest.raises(ConfigurationError, match="A1 and A2 only"):
            registry.constant_for(build_root_system(label[0], int(label[1])), 5)
    assert registry.constants == {}


def test_constant_is_det_cartan_over_weyl_order(a1, a2):
    registry = CalibrationRegistry()
    for half_dim in (2, 3, 4, 5, 8):
        assert registry.constant_for(a1, half_dim) == 1
    for half_dim in (4, 6):
        assert registry.constant_for(a2, half_dim) == F(1, 2)
    # memoised as Fractions, which verify's report prints
    assert len(registry.constants) == 7
    assert all(type(c) is F for c in registry.constants.values())


def test_calibration_constants_cannot_be_injected():
    # the constants are derived, never supplied: an injected one would
    # scale every residue the registry serves
    with pytest.raises(TypeError):
        CalibrationRegistry(constants={("A1", 3): F(5)})


def test_symplectic_factor_scales_contributions(a1):
    # doubling every point's factor doubles the raw residue
    points = product_orbit_fixed_data(a1, [(1,)] * 3)
    doubled = tuple(FixedPointDatum(pt.label, pt.moment, pt.tangent_weights, F(2))
                    for pt in points)
    raw1 = raw_fibration_residue(points, a1, (1,), 2)
    raw2 = raw_fibration_residue(doubled, a1, (1,), 2)
    assert raw2 == 2 * raw1


def test_rank_two_constant_is_a_signature_invariant(a2):
    # two different products of A2 orbits share the (group, dimension)
    # signature; both imply the derived constant det(Cartan) / |W| = 1/2
    registry = CalibrationRegistry()
    rho_pair = product_orbit_fixed_data(a2, [(1, 1), (1, 1)])
    half_dim = len(rho_pair[0].tangent_weights)
    expected = tensor_multiplicity(a2, [(3, 3), (3, 3)], (6, 3))
    raw = raw_fibration_residue(rho_pair, a2, (2, 1), 3)
    assert registry.constant_for(a2, half_dim) * raw == expected
    mixed = product_orbit_fixed_data(a2, [(2, 1), (1, 2)])
    assert len(mixed[0].tangent_weights) == half_dim
    oracle = tensor_multiplicity(a2, [(6, 3), (3, 6)], (3, 6))
    raw = raw_fibration_residue(mixed, a2, (1, 2), 3)
    assert registry.constant_for(a2, half_dim) * raw == oracle
    assert registry.constants == {("A2", half_dim): F(1, 2)}
    assert fibration_rr_residue(mixed, a2, (1, 2), 3, registry=registry) == oracle == 3


def test_negative_reduced_dimension_is_refused(a2):
    # 4 tangent weights - rank 2 - 3 positive roots < 0: the raw residue
    # was 0 here, but the tensor oracle gives 1
    points = product_orbit_fixed_data(a2, [(2, 0), (2, 0)])
    assert tensor_multiplicity(a2, [(2, 0), (2, 0)], (2, 1)) == 1
    with pytest.raises(SingularValueError, match="negative expected dimension -1"):
        raw_fibration_residue(points, a2, (2, 1), 1)
    with pytest.raises(SingularValueError):
        fibration_rr_residue(points, a2, (2, 1), 3)


def _a2_two_orbit_draw(rng):
    labels = [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2)]
    lambdas = [(1, 1), (2, 1), (1, 2), (3, 1), (1, 3), (2, 2), (3, 2), (2, 3), (3, 3)]
    factors = [rng.choice(labels), rng.choice(labels)]
    return factors, rng.choice(lambdas), rng.randint(1, 3)


def _a1_unequal_spheres_draw(rng):
    # unequal spins put fixed-point moment values at Lambda = (largest
    # spin) - (sum of the others), the inner edge of the moment image
    while True:
        factors = [(rng.randint(1, 5),) for _ in range(rng.randint(2, 3))]
        if len(set(factors)) > 1:
            return factors, (rng.randint(1, 6),), rng.randint(1, 2)


# (group, draw, seed, number of draws, derived constant)
ORBIT_SWEEPS = {
    "a2-two-orbits": ("A2", _a2_two_orbit_draw, 20270614, 40, F(1, 2)),
    "a1-unequal-spheres": ("A1", _a1_unequal_spheres_draw, 20270614, 60, F(1)),
}


@pytest.mark.parametrize("sweep", sorted(ORBIT_SWEEPS))
def test_orbit_sweep_matches_the_tensor_oracle(sweep):
    # seeded draws of a product of orbits, Lambda and k: each case gives
    # the tensor oracle or a typed error, never a wrong number
    label, draw, seed, draws, constant = ORBIT_SWEEPS[sweep]
    rs = build_root_system(label[0], int(label[1]))
    rng = random.Random(seed)
    registry = CalibrationRegistry()
    values = 0
    for _ in range(draws):
        factors, lam, k = draw(rng)
        points = product_orbit_fixed_data(rs, factors)
        oracle = tensor_multiplicity(rs, [tuple(k * c for c in f) for f in factors],
                                     tuple(k * c for c in lam))
        try:
            value = fibration_rr_residue(points, rs, lam, k, registry=registry)
        except (SingularValueError, InadmissibleInputError):
            continue
        assert value == oracle, (factors, lam, k)
        values += 1
    assert values >= 5
    assert set(registry.constants.values()) == {constant}


def test_a2_interior_wall_is_a_singular_value(a2):
    # a phase on a wall has two one-sided residues; the route calls that a
    # singular value, not a genericity failure
    points = product_orbit_fixed_data(a2, [(2, 0), (2, 1)])
    with pytest.raises(SingularValueError, match="one-sided values 2/3 and 4/3"):
        raw_fibration_residue(points, a2, (2, 2), 1)


def test_base_route_with_a_curve_oracle(a1):
    # a synthetic curve base: top degree 1, pairing <w0> = 1, Todd = 1 + w0.
    # The integrand (1 + k w0)(1 + w0) S picks off (k+1) S(0), and the
    # character class of lambda = k Lambda has constant term k*lam + 1
    oracle = BaseIntersectionOracle(
        generator_names=("w0", "a2"),
        generator_degrees=(1, 2),
        top_degree=1,
        pairing={(1, 0): F(1)},
        todd={(0, 0): F(1), (1, 0): F(1)},
    )
    for lam in (1, 2, 3):
        for k in (1, 2):
            expect = (k + 1) * (k * lam + 1)
            assert fibration_rr_base(oracle, a1, (lam,), k) == expect


def test_base_route_rejects_mismatched_generators(a1):
    bad = BaseIntersectionOracle(
        generator_names=("w0", "a3"),
        generator_degrees=(1, 3),
        top_degree=0,
        pairing={(0, 0): F(1)},
        todd={(0, 0): F(1)},
    )
    with pytest.raises(ValueError):
        fibration_rr_base(bad, a1, (1,), 1)


def test_base_route_refuses_a_truncation_below_the_top_degree(a1):
    # top degree 2: the character class is built through degree 2, so the
    # degree-2 term that pairs with a2 is kept (without it the value is 6)
    oracle = BaseIntersectionOracle(
        generator_names=("w0", "a2"),
        generator_degrees=(1, 2),
        top_degree=2,
        pairing={(2, 0): F(1), (0, 1): F(1, 2)},
        todd={(0, 0): F(1)},
    )
    assert fibration_rr_base(oracle, a1, (1,), 2) == 7


def test_residue_route_refuses_k_below_one(a1):
    # at k = 0 the residue used to read 0 where the tensor oracle gives 1
    points = product_orbit_fixed_data(a1, [(1,), (1,), (1,)])
    for k in (0, -1, -2):
        with pytest.raises(ValueError, match="k >= 1"):
            raw_fibration_residue(points, a1, (1,), k)


def test_residue_route_refuses_a_non_dominant_lambda(a1):
    # (1)x(1) at Lambda -1, k 2 used to read -1; the tensor oracle at
    # |Lambda| gives 1.  The base route refuses the same Lambda.
    points = product_orbit_fixed_data(a1, [(1,), (1,)])
    assert tensor_multiplicity(a1, [(2,), (2,)], (2,)) == 1
    with pytest.raises(ValueError, match="not dominant"):
        raw_fibration_residue(points, a1, (-1,), 2)
    with pytest.raises(ValueError, match="not dominant"):
        fibration_rr_residue(points, a1, (-1,), 2)


def _outcome(points, rs, lam, k):
    try:
        return raw_fibration_residue(points, rs, lam, k)
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)


def _permuted(rs, points):
    points = list(points)
    random.Random(5).shuffle(points)
    return tuple(points)


def _split(rs, points):
    # the third point as two copies whose factors sum to its own
    pt = points[2]
    halves = tuple(FixedPointDatum(pt.label, pt.moment, pt.tangent_weights,
                                   pt.symplectic_factor * c) for c in (F(5, 2), F(-3, 2)))
    return points[:2] + halves + points[3:]


def _as_loaded(rs, points):
    # string moments and tangent weights, as a fixture file gives them
    return parse_fixed_points({"group": rs.label, "fixed_points": [
        {"label": pt.label, "moment": [str(c) for c in pt.moment],
         "tangent_weights": [[str(c) for c in t] for t in pt.tangent_weights]}
        for pt in points]})[1]


def _as_fraction_points(rs, points):
    # Fraction moments, tangent weights and factors, as a library caller may pass them
    return tuple(FixedPointDatum(pt.label, tuple(map(F, pt.moment)),
                                 tuple(tuple(map(F, t)) for t in pt.tangent_weights), F(1))
                 for pt in points)


def _as_int_tuples(rs, points):
    return tuple(FixedPointDatum(pt.label, tuple(int(c) for c in pt.moment),
                                 tuple(tuple(int(c) for c in t) for t in pt.tangent_weights))
                 for pt in points)


@pytest.mark.parametrize("variant", [_permuted, _split, _as_loaded, _as_fraction_points,
                                     _as_int_tuples],
                         ids=["permuted", "split", "fractions", "fraction-points", "ints"])
@pytest.mark.parametrize("group,factors,lam,k", [
    ("A1", [(1,), (2,), (1,), (1,)], (1,), 2),
    ("A1", [(2,), (1,), (3,), (1,), (1,)], (F(1, 2),), 4),
    ("A1", [(1,), (1,)], (2,), 2),
    ("A2", [(1, 1), (1, 1)], (2, 1), 3),
    ("A2", [(2, 0), (2, 1)], (2, 2), 1),
], ids=["a1-1211", "a1-21311-half", "a1-11-boundary", "a2-11x11", "a2-interior-wall"])
def test_folding_changes_no_result(variant, group, factors, lam, k):
    # the route depends on the points only through their (moment, tangent
    # multiset) keys and summed factors: order, splitting and the number
    # type of the coordinates change nothing, value or error
    rs = build_root_system(group[0], int(group[1]))
    points = product_orbit_fixed_data(rs, factors)
    assert _outcome(variant(rs, points), rs, lam, k) == _outcome(points, rs, lam, k)


def test_base_route_requires_dominant_integral_k_lambda(a1):
    oracle = BaseIntersectionOracle.point(a1)
    with pytest.raises(ValueError):
        fibration_rr_base(oracle, a1, (F(1, 2),), 1)
    with pytest.raises(ValueError):
        fibration_rr_base(oracle, a1, (-1,), 2)


def _reference_terms(points, rs, lam, k):
    """The literal assembly: one term per (fixed point, Weyl element) pair,
    every factor rebuilt for every pair."""
    l = rs.rank
    terms = []
    for pt in points:
        cap = len(pt.tangent_weights) - l
        todd_unit = TruncatedSeries.constant(1, l, cap)
        for t in pt.tangent_weights:
            one_minus = 1 - TruncatedSeries.exp_linear(tuple(-c for c in t), cap + 1)
            todd_unit = todd_unit * one_minus.divide_exact(
                TruncatedSeries.linear_form(t)).inverse()
        for w in enumerate_weyl_group(rs):
            orbit_factor = TruncatedSeries.constant(1, l, cap)
            for g in rs.positive_roots:
                orbit_factor = orbit_factor * (
                    1 - TruncatedSeries.exp_linear(tuple(-c for c in w.act(g)), cap))
            num = orbit_factor * todd_unit * pt.symplectic_factor
            if not num.is_zero():
                phase = tuple(k * (m - x) for m, x in zip(pt.moment, w.act(lam)))
                terms.append(make_term(l, num, phase, [(t, 1) for t in pt.tangent_weights]))
    return terms


def _with_factors(points, factors):
    return tuple(FixedPointDatum(pt.label, pt.moment, pt.tangent_weights,
                                 factors[i % len(factors)])
                 for i, pt in enumerate(points))


# first: how many leading fixed points of the product to keep (None: all);
# the literal G2 assembly costs about 0.2 s per point
GROUPED_CASES = [
    ("A1", [(1,), (2,), (1,)], None, (2,), 3, None),
    ("A1", [(1,), (3,), (2,), (1,)], None, (3,), 2, None),
    ("A1", [(2,), (1,), (1,), (1,), (1,)], None, (2,), 3, None),
    ("A1", [(1,), (2,), (1,), (1,)], (F(1), F(2), F(-1, 3)), (1,), 2, None),
    ("A2", [(2, 1), (1, 2)], None, (1, 2), 3, None),
    ("B2", [(1, 0), (1, 0)], None, (1, 1), 1, None),
    ("G2", [(1, 0), (1, 0)], None, (1, 1), 1, 7),
]


@pytest.mark.parametrize("group,factors,symplectic,lam,k,first", GROUPED_CASES,
                         ids=["a1-121", "a1-1321", "a1-21111", "a1-symplectic-factors",
                              "a2-21x12", "b2-10x10", "g2-10x10-first-7"])
def test_grouped_assembly_matches_the_literal_one(group, factors, symplectic, lam, k, first):
    rs = build_root_system(group[0], int(group[1]))
    points = product_orbit_fixed_data(rs, factors)[:first]
    if symplectic is not None:
        points = _with_factors(points, symplectic)
    lam = tuple(F(c) for c in lam)
    reference = _reference_terms(points, rs, lam, k)
    grouped = _fibration_terms(_fold(points), rs, lam, k)
    assert len(grouped) < len(reference)

    def by_signature(terms):
        return {t.signature(): t.numerator for t in merge_terms(terms)}

    assert by_signature(grouped) == by_signature(reference)
    if group in ("B2", "G2"):
        # the residue route refuses these groups; only the terms compare
        return
    weights = [t for pt in points for t in pt.tangent_weights]
    weights += [w.act(g) for w in enumerate_weyl_group(rs) for g in rs.positive_roots]
    phases = [t.phase for t in reference if any(t.phase)]
    xi = _generic_direction(weights + phases, rs.rank)
    assert res_cone(reference, xi)[0] == raw_fibration_residue(points, rs, lam, k)


def test_grouped_assembly_matches_the_literal_one_on_a_warm_memo():
    # the per-multiset memo is process-wide: with every case's entries
    # already built, and the cases run in the opposite order, the terms
    # still match the literal assembly
    for group, factors, symplectic, lam, k, first in GROUPED_CASES:
        rs = build_root_system(group[0], int(group[1]))
        _fibration_terms(_fold(product_orbit_fixed_data(rs, factors)[:first]), rs, lam, k)
    for case in GROUPED_CASES[::-1]:
        test_grouped_assembly_matches_the_literal_one(*case)


def test_memoised_products_are_shared_unchanged(a1):
    # a second run reuses the entry the first one built, and no caller
    # mutates the shared series
    points = product_orbit_fixed_data(a1, [(1,), (2,), (1,), (1,)])
    tangent = tuple(sorted(points[0].tangent_weights))
    raw_fibration_residue(points, a1, (1,), 2)
    entry = _tangent_products(a1, tangent)
    before = [p.to_text() for p in entry[1]]
    raw_fibration_residue(points, a1, (1,), 3)
    assert _tangent_products(a1, tangent) is entry
    assert [p.to_text() for p in entry[1]] == before


def test_assembly_memo_is_bounded():
    assert _tangent_products.cache_info().maxsize == 256


def _reference_todd_polynomial(rs, positive):
    # the two-memo assembly's Todd polynomial, uncached
    cap = len(positive) - rs.rank
    canon, scale = canonical_dens([(t, 1) for t in positive])
    poly = TruncatedSeries.exp_sum([(vec_sub(w.act(rs.rho), rs.rho), w.sign)
                                    for w in enumerate_weyl_group(rs)], cap) * (1 / scale)
    for t in positive:
        one_minus = 1 - TruncatedSeries.exp_linear(tuple(-c for c in t), cap + 1)
        poly = poly * TruncatedSeries.linear_form(t, cap + 1).divide_exact(one_minus)
    return canon, poly.as_polynomial()


def _reference_tangent_products(rs, tangent):
    # the two-memo assembly's products, uncached: every product from the
    # Todd polynomial of the sign-normalised multiset in one step
    flipped = [t for t in tangent if next(c for c in t if c) < 0]
    positive = sorted(tuple(-c for c in t) if t in flipped else t for t in tangent)
    canon, poly = _reference_todd_polynomial(rs, tuple(positive))
    shift, sign = [sum(c) for c in zip(rs.rho, *flipped)], (-1) ** len(flipped)
    return canon, tuple((TruncatedSeries.exp_sum([(vec_sub(shift, w.act(rs.rho)), w.sign * sign)],
                                                 len(tangent) - rs.rank) * poly).as_polynomial()
                        for w in enumerate_weyl_group(rs))


def _orbit_product_multisets():
    cases = [("A1", factors) for n in range(2, 6)
             for factors in combinations_with_replacement([(1,), (2,), (3,)], n)]
    cases += [("A2", [(1, 1), (1, 1)]), ("A2", [(2, 1), (1, 2)]),
              ("B2", [(1, 0), (1, 0)]), ("G2", [(1, 0), (1, 0)])]
    for label, factors in cases:
        rs = build_root_system(label[0], int(label[1]))
        for pt in product_orbit_fixed_data(rs, factors):
            yield rs, tuple(sorted(pt.tangent_weights))


HAND_MULTISETS = [
    ("A1", ((-2,), (-2,), (2,), (2,))),
    ("A1", ((F(-1, 2),), (1,), (F(1, 2),))),
    ("A1", ((-3,), (-2,), (-2,))),
    ("A2", ((-1, -1), (-1, 2), (1, 1), (1, 1))),
    ("A2", ((-1, 2), (F(1, 3), 2), (2, -1))),
    ("A2", ((-2, 1), (-1, -1), (-1, 2))),
]


def test_tangent_products_match_the_two_memo_assembly():
    # each entry, whether built or derived from its sign-normalised entry,
    # equals the one the Todd-polynomial memo gave
    cases = dict.fromkeys(_orbit_product_multisets())
    cases.update(dict.fromkeys((build_root_system(label[0], int(label[1])), tangent)
                               for label, tangent in HAND_MULTISETS))
    for rs, tangent in cases:
        assert _tangent_products(rs, tangent) == _reference_tangent_products(rs, tangent), \
            (rs.label, tangent)


def _todd(t, cap):
    one_minus = 1 - TruncatedSeries.exp_linear(tuple(-c for c in t), cap + 1)
    return TruncatedSeries.linear_form(t, cap + 1).divide_exact(one_minus)


@pytest.mark.parametrize("t", [(2,), (1,), (F(1, 2),), (2, -1), (1, 1), (1, 0), (F(1, 3), 2)],
                         ids=["a1-root", "a1-weight", "half", "a2-root", "a2-root-sum",
                              "a2-weight", "rational"])
def test_todd_of_a_negated_weight(t):
    # Todd(-t) = e^{-t} Todd(t), which lets the assembly negate weights
    for cap in range(7):
        neg = tuple(-c for c in t)
        assert _todd(neg, cap) == TruncatedSeries.exp_linear(neg, cap) * _todd(t, cap)


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2"])
def test_orbit_factor_is_one_exponential_times_the_weyl_denominator(label):
    # prod(1 - e^{-w gamma}) = sign(w) e^{rho - w rho} prod(1 - e^{-gamma}), and
    # prod(1 - e^{-gamma}) = sum_u sign(u) e^{u rho - rho}
    rs = build_root_system(label[0], int(label[1]))
    group = enumerate_weyl_group(rs)

    def orbit_factor(w):
        out = TruncatedSeries.constant(1, rs.rank, 8)
        for g in rs.positive_roots:
            out = out * (1 - TruncatedSeries.exp_linear(tuple(-c for c in w.act(g)), 8))
        return out

    base = orbit_factor(group[0])
    assert base == TruncatedSeries.exp_sum(
        [(tuple(a - b for a, b in zip(u.act(rs.rho), rs.rho)), u.sign) for u in group], 8)
    for w in group:
        shift = tuple(a - b for a, b in zip(rs.rho, w.act(rs.rho)))
        assert orbit_factor(w) == TruncatedSeries.exp_linear(shift, 8) * base * w.sign


def test_multisets_with_one_sign_normalised_form_share_its_entry(a1):
    # (-7, 3, 7) and (-7, -3, 7) both normalise to (3, 7, 7), which no
    # other test names: the second multiset misses, and its one recursion
    # hits the entry the first one built
    canon, _ = _tangent_products(a1, ((-7,), (3,), (7,)))
    before = _tangent_products.cache_info()
    assert _tangent_products(a1, ((-7,), (-3,), (7,)))[0] is canon
    after = _tangent_products.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses + 1)


@pytest.mark.parametrize("name,lam,k", [("su2_mixed_spins.json", (2,), 2),
                                        ("su3_rho_pair.json", (2, 1), 3)])
def test_terms_pull_back_through_the_identity_unchanged(name, lam, k):
    # res_cone skips the identity frame, which must leave every term as it is
    rs, points = load_fixed_points(str(fixture_path(name)))
    terms = _fibration_terms(_fold(points), rs, lam, k)
    assert terms and all(t.pull_back(identity(rs.rank)) == t for t in terms)


def test_tangent_weight_outside_the_root_lattice_is_refused(a1):
    # CP^2 = P(V_1 + V_0): the odd weight 1 means that -1 in SU(2) moves the
    # tangent space, so det(Cartan) / |W| is not the constant; the route used
    # to give 2 here, where V_2 occurs once in Sym^4(V_1 + V_0)
    points = (FixedPointDatum("p0", (1,), ((1,), (2,))),
              FixedPointDatum("p1", (0,), ((-1,), (1,))),
              FixedPointDatum("p2", (-1,), ((-2,), (-1,))))
    with pytest.raises(InadmissibleInputError, match="tangent weight 1 is not in the root lattice"):
        raw_fibration_residue(points, a1, (F(1, 2),), 4)
    with pytest.raises(InadmissibleInputError):
        fibration_rr_residue(points, a1, (F(1, 2),), 4)


def _terms_by_make_term(points, rs, lam, k):
    """The grouped assembly with make_term applied to each group's sum, so
    the denominators are canonicalised, and their scale folded in, once
    per (phase, tangent-weight multiset) group."""
    l = rs.rank
    cap = len(points[0].tangent_weights) - l
    group = enumerate_weyl_group(rs)
    products = {}
    groups = {}
    for pt in points:
        tangent = tuple(sorted(pt.tangent_weights))
        if tangent not in products:
            unit = TruncatedSeries.constant(1, l, cap)
            for t in tangent:
                one_minus = 1 - TruncatedSeries.exp_linear(tuple(-c for c in t), cap + 1)
                unit = unit * TruncatedSeries.linear_form(t, cap + 1).divide_exact(one_minus)
            products[tangent] = []
            for w in group:
                orbit_factor = TruncatedSeries.constant(1, l, cap)
                for g in rs.positive_roots:
                    orbit_factor = orbit_factor * (
                        1 - TruncatedSeries.exp_linear(tuple(-c for c in w.act(g)), cap))
                products[tangent].append(orbit_factor * unit)
        for i, w in enumerate(group):
            if not products[tangent][i].is_zero():
                phase = tuple(k * (m - x) for m, x in zip(pt.moment, w.act(lam)))
                scalars = groups.setdefault((phase, tangent), {})
                scalars[i] = scalars.get(i, 0) + pt.symplectic_factor
    return [make_term(l, sum((products[tangent][i] * c for i, c in scalars.items()),
                             TruncatedSeries(l)), phase, [(t, 1) for t in tangent])
            for (phase, tangent), scalars in groups.items()]


@pytest.mark.parametrize("group,factors,symplectic,lam,k", [
    ("A1", [(1,), (3,), (2,), (1,)], (F(1), F(2), F(-1, 3)), (3,), 2),
    ("A2", [(2, 1), (1, 2)], None, (1, 2), 3),
], ids=["a1-1321-symplectic-factors", "a2-21x12"])
def test_denominators_canonicalised_once_per_tangent_multiset(group, factors, symplectic,
                                                              lam, k):
    rs = build_root_system(group[0], int(group[1]))
    points = product_orbit_fixed_data(rs, factors)
    if symplectic is not None:
        points = _with_factors(points, symplectic)
    lam = tuple(F(c) for c in lam)
    terms = _fibration_terms(_fold(points), rs, lam, k)
    assert len({tuple(sorted(pt.tangent_weights)) for pt in points}) < len(terms)
    assert terms == _terms_by_make_term(points, rs, lam, k)


def test_residue_route_without_a_registry_calibrates_in_each_call(a1):
    points = product_orbit_fixed_data(a1, [(1,)] * 3)
    for k in (3, 2):
        expected = tensor_multiplicity(a1, [(k,)] * 3, (k,))
        assert fibration_rr_residue(points, a1, (1,), k) == expected == k + 1


@pytest.mark.parametrize("group,factors,lam,k", [
    ("B2", [(1, 1), (1, 1)], (1, 1), 2),
    ("G2", [(1, 1), (1, 1)], (2, 1), 1),
], ids=["b2-11x11", "g2-11x11"])
def test_residue_route_refuses_unproven_groups(group, factors, lam, k):
    # on B2 and G2 the implied constant (oracle / raw residue) changes from
    # case to case, so the route refuses them instead of handing out numbers
    rs = build_root_system(group[0], int(group[1]))
    points = product_orbit_fixed_data(rs, factors)
    with pytest.raises(ConfigurationError, match="A1 and A2 only"):
        raw_fibration_residue(points, rs, lam, k)
    registry = CalibrationRegistry()
    with pytest.raises(ConfigurationError):
        registry.constant_for(rs, len(points[0].tangent_weights))
    with pytest.raises(ConfigurationError):
        fibration_rr_residue(points, rs, lam, k, registry=registry)
