import random
from fractions import Fraction

import pytest

from orbitrr import roots
from orbitrr.errors import ConfigurationError
from orbitrr.linalg import mat_det, vec
from orbitrr.roots import SUPPORTED, build_root_system, enumerate_weyl_group, parse_group_label

# textbook Weyl group orders, kept apart from the package, which derives them
WEYL_ORDERS = {"A1": 2, "A2": 6, "A3": 24, "A4": 120, "B2": 8, "B3": 48, "B4": 384,
               "C2": 8, "C3": 48, "C4": 384, "D4": 192, "G2": 12}


@pytest.mark.parametrize("family,rank,n_pos", [
    ("A", 1, 1), ("A", 2, 3), ("A", 3, 6), ("A", 4, 10),
    ("B", 2, 4), ("B", 3, 9), ("B", 4, 16),
    ("C", 2, 4), ("C", 3, 9), ("C", 4, 16),
    ("D", 4, 12), ("G", 2, 6),
])
def test_positive_root_counts(family, rank, n_pos):
    rs = build_root_system(family, rank)
    assert len(rs.positive_roots) == n_pos


def test_a2_and_b2_closure_examples():
    assert len(build_root_system("A", 2).positive_roots) == 3
    assert len(build_root_system("B", 2).positive_roots) == 4


def test_a1_is_forced():
    rs = build_root_system("A", 1)
    assert rs.positive_roots == (rs.simple_roots[0],)
    assert rs.rho == rs.fundamental_weights[0]


@pytest.mark.parametrize("bad", [("E", 6), ("F", 4), ("A", 5), ("B", 1), ("D", 5), ("D", 3)])
def test_unsupported_types_rejected(bad):
    with pytest.raises(ConfigurationError):
        build_root_system(*bad)


def test_parse_group_label():
    assert parse_group_label("g2").label == "G2"
    with pytest.raises(ConfigurationError):
        parse_group_label("X9")
    with pytest.raises(ConfigurationError):
        parse_group_label("A")


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D4", "G2"])
def test_structural_invariants(label):
    rs = parse_group_label(label)
    # long roots have squared length 2
    assert max(rs.pairing(g, g) for g in rs.positive_roots) == 2
    # fundamental weights are the unit label vectors, dual to the simple coroots
    def coroot_pairing(v, a):
        return 2 * rs.pairing(v, a) / rs.pairing(a, a)

    for i, fw in enumerate(rs.fundamental_weights):
        assert fw == tuple(int(i == j) for j in range(rs.rank))
        assert [coroot_pairing(fw, a) for a in rs.simple_roots] == list(fw)
    # rho is the sum of the fundamental weights and pairs to 1 with coroots
    assert rs.rho == (1,) * rs.rank
    assert all(coroot_pairing(rs.rho, a) == 1 for a in rs.simple_roots)
    half = tuple(Fraction(sum(g[k] for g in rs.positive_roots), 2) for k in range(rs.rank))
    assert rs.rho == half


def test_simple_root_lengths():
    # squared lengths, long roots at 2: derived from the Cartan matrix alone
    expected = {"B": lambda l: [2] * (l - 1) + [1], "C": lambda l: [1] * (l - 1) + [2],
                "G": lambda l: [Fraction(2, 3), 2]}
    for family, ranks in SUPPORTED.items():
        for rank in ranks:
            rs = build_root_system(family, rank)
            lengths = [rs.pairing(a, a) for a in rs.simple_roots]
            assert lengths == expected.get(family, lambda l: [2] * l)(rank), rs.label


@pytest.mark.parametrize("label", list(WEYL_ORDERS))
def test_weyl_enumeration(label):
    rs = parse_group_label(label)
    group = enumerate_weyl_group(rs)
    assert len(group) == WEYL_ORDERS[label]
    assert len({w.matrix for w in group}) == len(group)
    assert group[0].length == 0 and group[0].sign == 1
    assert sum(w.sign for w in group) == 0
    for w in group:
        assert w.sign == (-1) ** w.length == mat_det(w.matrix)


def test_a2_and_g2_orders():
    assert len(enumerate_weyl_group(build_root_system("A", 2))) == 6
    assert len(enumerate_weyl_group(build_root_system("G", 2))) == 12


def test_wrong_degrees_fail_the_weyl_closure_check(monkeypatch):
    # |W| = prod of the degrees, which come from the root closure: the two
    # closures check each other
    rs = build_root_system("B", 3)
    monkeypatch.setattr(roots, "fundamental_degrees", lambda rs: (2, 4, 4))
    with pytest.raises(ConfigurationError, match="Weyl closure found 48 elements for B3, "
                                                 "expected 32"):
        enumerate_weyl_group.__wrapped__(rs)


def test_weyl_closure_under_simple_reflections():
    rs = build_root_system("B", 2)
    group = enumerate_weyl_group(rs)
    matrices = {w.matrix for w in group}
    for w in group:
        for i in range(rs.rank):
            s = rs.simple_reflection_matrix(i)
            prod = tuple(tuple(sum(w.matrix[r][k] * s[k][c] for k in range(rs.rank))
                               for c in range(rs.rank)) for r in range(rs.rank))
            assert prod in matrices


def test_weyl_act_reflection_examples():
    rs = build_root_system("A", 1)
    s = enumerate_weyl_group(rs)[1]
    alpha = rs.simple_roots[0]
    omega = rs.fundamental_weights[0]
    assert s.act(alpha) == tuple(-c for c in alpha)
    assert s.act(omega) == tuple(-c for c in omega)


def test_weyl_act_homomorphism_and_pairing_preservation():
    rs = build_root_system("A", 2)
    group = enumerate_weyl_group(rs)
    rng = random.Random(7)
    for _ in range(25):
        w1, w2 = rng.choice(group), rng.choice(group)
        v = vec([rng.randint(-3, 3) for _ in range(2)])
        u = vec([rng.randint(-3, 3) for _ in range(2)])
        prod = next(w for w in group
                    if w.matrix == tuple(tuple(sum(w1.matrix[r][k] * w2.matrix[k][c]
                                                   for k in range(2)) for c in range(2))
                                         for r in range(2)))
        assert prod.act(v) == w1.act(w2.act(v))
        assert rs.pairing(w1.act(u), w1.act(v)) == rs.pairing(u, v)


def test_pairing_conventions():
    a1 = build_root_system("A", 1)
    alpha = a1.simple_roots[0]
    assert a1.pairing(alpha, alpha) == 2
    assert a1.fundamental_weights[0] == (1,)
    assert a1.pairing(a1.fundamental_weights[0], alpha) == 1
    a2 = build_root_system("A", 2)
    assert a2.simple_roots == ((2, -1), (-1, 2))
    # the edge converters between labels and simple-root coordinates
    assert a2.weight_vector(a2.rho) == (1, 1)
    assert a2.dynkin((1, 1)) == a2.rho
    assert a2.weight_vector((1, 0)) == (Fraction(2, 3), Fraction(1, 3))
    with pytest.raises(ValueError):
        a2.pairing((Fraction(1),), (Fraction(1), Fraction(0)))


def test_longest_element_sends_rho_to_minus_rho():
    for label in ("A1", "A2", "B2", "G2"):
        rs = parse_group_label(label)
        w0 = max(enumerate_weyl_group(rs), key=lambda w: w.length)
        assert w0.act(rs.rho) == tuple(-c for c in rs.rho)
