import random
from fractions import Fraction as F
from math import factorial, gcd

import pytest

from orbitrr.errors import ExactDivisionError
from orbitrr.roots import build_root_system, enumerate_weyl_group
from orbitrr.series import TruncatedSeries, flag_integral, positive_root_product


def S(nvars, coeffs, trunc=None):
    return TruncatedSeries(nvars, coeffs, trunc)


def test_canonical_form_drops_zeros_and_high_degrees():
    s = S(2, {(0, 0): 0, (1, 0): F(1), (3, 0): F(5)}, trunc=2)
    assert s.coeffs == {(1, 0): F(1)}


def _exp(s):
    """exp of a truncated series without constant term, as its power sum."""
    return S(s.num_vars, _ref_exp(s.coeffs, s.num_vars, s.trunc), s.trunc)


def _literal_exp_sum(terms, num_vars, trunc):
    out = S(num_vars, {}, trunc)
    for v, c in terms:
        out = out + _exp(TruncatedSeries.linear_form(v, trunc)) * c
    return out


@pytest.mark.parametrize("num_vars", [1, 2, 3])
def test_exp_sum_matches_the_literal_sum_of_exponentials(num_vars):
    rng = random.Random(num_vars)
    entries = [0, 1, -1, 2, -3, F(1, 2), F(-2, 3)]
    weights = [1, -1, 2, -5, F(3, 2), F(-1, 4)]
    for trunc in range(9):
        for _ in range(3):
            terms = [(tuple(rng.choice(entries) for _ in range(num_vars)), rng.choice(weights))
                     for _ in range(rng.randint(1, 4))]
            assert (TruncatedSeries.exp_sum(terms, trunc)
                    == _literal_exp_sum(terms, num_vars, trunc)), (terms, trunc)
        v = tuple(rng.choice(entries) for _ in range(num_vars))
        assert TruncatedSeries.exp_sum([(v, 1)], trunc) == TruncatedSeries.exp_linear(v, trunc)
        assert (TruncatedSeries.exp_linear(v, trunc)
                == _exp(TruncatedSeries.linear_form(v, trunc)))


def test_exp_sum_of_int_terms_cancels_exactly():
    # sinh: the even coefficients cancel in integers and leave no zero entries
    s = TruncatedSeries.exp_sum([((1,), 1), ((-1,), -1)], 5)
    assert s.to_text() == "2 * x1^1 + 1/3 * x1^3 + 1/60 * x1^5"


def test_exp_sum_rejects_bad_terms():
    with pytest.raises(ValueError):
        TruncatedSeries.exp_sum([((1, 2), 1), ((1,), 1)], 3)
    with pytest.raises(ValueError):
        TruncatedSeries.exp_sum([], 3)


def test_inverse_examples():
    one = S(1, {(0,): F(1)}, trunc=3)
    assert one.inverse() == one
    geom = S(1, {(0,): F(1), (1,): F(-1)}, trunc=3)
    assert geom.inverse().to_text() == "1 + 1 * x1^1 + 1 * x1^2 + 1 * x1^3"
    two = S(1, {(0,): F(2)}, trunc=5)
    assert two.inverse().constant_term() == F(1, 2)
    with pytest.raises(ValueError):
        S(1, {(1,): F(1)}, trunc=3).inverse()


def test_inverse_of_exp_is_exp_of_negative():
    rng = random.Random(11)
    for _ in range(5):
        s = S(2, {(1, 0): F(rng.randint(-2, 2)), (0, 1): F(rng.randint(-2, 2)),
                  (1, 1): F(rng.randint(-2, 2), 3)}, trunc=5)
        assert _exp(s).inverse() == _exp(-s)


def test_divide_exact_monomial_example():
    num = S(1, {(1,): F(2), (3,): F(1, 3)})
    x = S(1, {(1,): F(1)})
    assert num.divide_exact(x).to_text() == "2 + 1/3 * x1^2"


def test_divide_exact_sinh_ratio():
    # (e^{3x} - e^{-3x}) / (e^x - e^{-x}) has constant term 3
    N = 6
    num = TruncatedSeries.exp_linear((F(3),), N) - TruncatedSeries.exp_linear((F(-3),), N)
    den = TruncatedSeries.exp_linear((F(1),), N) - TruncatedSeries.exp_linear((F(-1),), N)
    q = num.divide_exact(den.as_polynomial())
    assert q.constant_term() == 3
    # and the quotient is e^{2x} + 1 + e^{-2x} truncated
    expect = (TruncatedSeries.exp_linear((F(2),), N - 1) + 1
              + TruncatedSeries.exp_linear((F(-2),), N - 1))
    assert q == expect


def test_divide_exact_failure_across_variables():
    x = S(2, {(1, 0): F(1)})
    y = S(2, {(0, 1): F(1)})
    with pytest.raises(ExactDivisionError):
        x.divide_exact(y)


def test_divide_exact_by_a_truncated_divisor_keeps_only_what_it_knows():
    # 1 - x is known only through degree 2, so the quotient is too
    one_minus_x = S(1, {(0,): F(1), (1,): F(-1)}, trunc=2)
    q = TruncatedSeries.constant(1, 1, 5).divide_exact(one_minus_x)
    assert (q.to_text(), q.trunc) == ("1 + 1 * x1^1 + 1 * x1^2", 2)
    q = S(1, {(0,): F(1), (2,): F(-1)}).divide_exact(one_minus_x)
    assert (q.to_text(), q.trunc) == ("1 + 1 * x1^1", 2)
    q = TruncatedSeries.constant(1, 1).divide_exact(one_minus_x)
    assert (q.to_text(), q.trunc) == ("1 + 1 * x1^1 + 1 * x1^2", 2)


def _random_series(rng, num_vars, low, high, trunc=None):
    coeffs = {}
    for _ in range(5):
        mono = tuple(rng.randint(0, high) for _ in range(num_vars))
        if low <= sum(mono) <= high:
            coeffs[mono] = F(rng.randint(-4, 4), rng.randint(1, 3))
    return S(num_vars, coeffs, trunc)


@pytest.mark.parametrize("dmin", [0, 1, 2])
def test_divide_exact_by_truncated_divisors(dmin):
    # den = (product of dmin linear forms) * (unit with constant 1, then
    # truncated); num = q_true * den.  The quotient is q_true through
    # min(num.trunc, den.trunc) - dmin, and q * den = num through q.trunc + dmin.
    rng = random.Random(40 + dmin)
    for num_vars in (1, 2, 3):
        for _ in range(6):
            lead = TruncatedSeries.constant(1, num_vars)
            for _ in range(dmin):
                form = [rng.randint(-2, 2) for _ in range(num_vars)]
                form[rng.randrange(num_vars)] = rng.choice([1, -3])
                lead = lead * TruncatedSeries.linear_form(form)
            unit = _random_series(rng, num_vars, 1, 4) + 1
            den_trunc = rng.randint(dmin, 6)
            num_trunc = rng.choice([None, dmin + 1, 6, 8])
            den = (lead * unit).truncate(den_trunc)
            q_true = _random_series(rng, num_vars, 0, 4) + rng.randint(1, 3)
            num = (q_true * lead * unit).truncate(num_trunc)
            q = num.divide_exact(den)
            cap = min(t for t in (num_trunc, den_trunc) if t is not None)
            assert q.trunc == cap - dmin
            assert q == q_true.truncate(q.trunc)
            assert ((q.as_polynomial() * den.as_polynomial()).truncate(cap)
                    == num.truncate(cap))


def test_divide_exact_by_a_truncated_divisor_checks_the_remainder():
    x = S(2, {(1, 0): F(1)}, trunc=4)
    den = S(2, {(0, 1): F(1), (0, 2): F(3)}, trunc=3)
    with pytest.raises(ExactDivisionError):
        x.divide_exact(den)


def _divide_by_degrees(num, den):
    # the earlier division, written out as the reference: each homogeneous
    # part of the remainder is divided by the divisor's lowest part under
    # lex order, then that quotient part times the whole divisor is
    # subtracted, skipping products past the cap
    if den.is_zero():
        raise ExactDivisionError("division by zero polynomial")
    dmin = den.min_degree()
    lead = {m: c for m, c in den.coeffs.items() if sum(m) == dmin}
    lead_mono = max(lead)
    truncs = [t for t in (num.trunc, den.trunc) if t is not None]
    trunc = min(truncs) if truncs else None
    n_cap = trunc if trunc is not None else num.max_degree()
    rem = dict(num.coeffs)
    quot = {}
    for deg in range(n_cap + 1):
        part = {m: c for m, c in rem.items() if sum(m) == deg}
        if not part:
            continue
        if deg < dmin:
            raise ExactDivisionError("numerator has terms below divisor degree")
        qpart = {}
        while part:
            m = max(part)
            if any(a < b for a, b in zip(m, lead_mono)):
                raise ExactDivisionError("homogeneous division has a remainder")
            mq = tuple(a - b for a, b in zip(m, lead_mono))
            cq = part[m] / lead[lead_mono]
            qpart[mq] = qpart.get(mq, F(0)) + cq
            for md, cd in lead.items():
                mm = tuple(a + b for a, b in zip(mq, md))
                val = part.get(mm, F(0)) - cq * cd
                if val:
                    part[mm] = val
                else:
                    part.pop(mm, None)
        quot.update(qpart)
        for mq, cq in qpart.items():
            for md, cd in den.coeffs.items():
                if trunc is not None and deg - dmin + sum(md) > trunc:
                    continue
                m = tuple(a + b for a, b in zip(mq, md))
                val = rem.get(m, F(0)) - cq * cd
                if val:
                    rem[m] = val
                else:
                    rem.pop(m, None)
    if trunc is None and any(rem.values()):
        raise ExactDivisionError("nonzero remainder in exact division")
    if any(c for m, c in rem.items() if sum(m) <= n_cap):
        raise ExactDivisionError("nonzero remainder in exact division")
    return S(num.num_vars, quot, None if trunc is None else trunc - dmin)


def _division_case(rng):
    # den = (dmin linear forms) * unit, num = q * den, each a polynomial or
    # truncated; three cases in ten get one stray numerator term
    num_vars = rng.randint(1, 3)
    dmin = rng.randint(0, 2)
    den = TruncatedSeries.constant(1, num_vars)
    for _ in range(dmin):
        form = [rng.randint(-2, 2) for _ in range(num_vars)]
        form[rng.randrange(num_vars)] = rng.choice([1, -3])
        den = den * TruncatedSeries.linear_form(form)
    den = den * (_random_series(rng, num_vars, 1, 3) + F(rng.choice([1, -2, 3]), rng.randint(1, 3)))
    num = den * (_random_series(rng, num_vars, 0, 3) + rng.randint(1, 3))
    if rng.random() < 0.3:
        mono = tuple(rng.randint(0, 3) for _ in range(num_vars))
        num = num + S(num_vars, {mono: F(rng.choice([-1, 1, 2]), rng.randint(1, 3))})
    num = num.truncate(rng.choice([None, None, rng.randint(0, 7)]))
    den = den.truncate(rng.choice([None, None, rng.randint(dmin, 6)]))
    return num, den


def test_divide_exact_matches_the_division_by_degrees():
    rng = random.Random(2004)
    raised = 0
    for _ in range(300):
        num, den = _division_case(rng)
        try:
            expect = _divide_by_degrees(num, den)
        except ExactDivisionError:
            raised += 1
            with pytest.raises(ExactDivisionError):
                num.divide_exact(den)
            continue
        q = num.divide_exact(den)
        assert (q, q.trunc) == (expect, expect.trunc)
    assert 20 < raised < 200


def _geometric_inverse(s):
    # 1/s = (1/c) * sum_k t^k with t = 1 - s/c
    c = s.constant_term()
    t = TruncatedSeries.constant(1, s.num_vars, s.trunc) - s * F(1, c)
    result = TruncatedSeries.constant(1, s.num_vars, s.trunc)
    power = TruncatedSeries.constant(1, s.num_vars, s.trunc)
    for _ in range(s.trunc):
        power = power * t
        if power.is_zero():
            break
        result = result + power
    return result * F(1, c)


def test_inverse_matches_the_geometric_series():
    rng = random.Random(17)
    for num_vars in (1, 2, 3):
        for trunc in range(0, 7):
            s = _random_series(rng, num_vars, 1, 4, trunc) + F(rng.choice([1, -2, 3]),
                                                                 rng.randint(1, 4))
            inv = s.inverse()
            assert inv == _geometric_inverse(s)
            assert (s * inv).to_text() == "1"
    with pytest.raises(ValueError):
        S(2, {(0, 0): F(1)}).inverse()


def test_ring_axioms_on_random_triples():
    rng = random.Random(5)

    def rand():
        coeffs = {}
        for _ in range(4):
            mono = (rng.randint(0, 2), rng.randint(0, 2))
            coeffs[mono] = F(rng.randint(-4, 4), rng.randint(1, 3))
        return S(2, coeffs, trunc=6)

    for _ in range(8):
        a, b, c = rand(), rand(), rand()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a


def test_todd_identity_rewriting():
    # prod gamma/(1-e^{-gamma}) = e^{(rho,E)} prod (gamma,E) / prod (e^{g/2}-e^{-g/2})
    rs = build_root_system("A", 2)
    N = 6
    lhs = TruncatedSeries.constant(1, 2, N)
    for g in rs.positive_roots:
        cov = g
        form = TruncatedSeries.linear_form(cov)
        denom = (1 - TruncatedSeries.exp_linear(tuple(-c for c in cov), N + 1))
        lhs = lhs * denom.divide_exact(form).inverse()
    root_poly = positive_root_product(rs)
    weyl_den = TruncatedSeries.constant(1, 2, N + len(rs.positive_roots))
    for g in rs.positive_roots:
        half = tuple(F(c, 2) for c in g)
        weyl_den = weyl_den * (TruncatedSeries.exp_linear(half, N + 3)
                               - TruncatedSeries.exp_linear(tuple(-c for c in half), N + 3))
    rhs = (TruncatedSeries.exp_linear(rs.rho, N)
           * weyl_den.divide_exact(root_poly).truncate(N).inverse())
    assert lhs == rhs


def test_flag_integral_examples():
    a1 = build_root_system("A", 1)
    assert flag_integral(a1, TruncatedSeries.linear_form((F(2),))) == 2
    a2 = build_root_system("A", 2)
    assert flag_integral(a2, positive_root_product(a2)) == 6
    assert flag_integral(a2, TruncatedSeries.constant(1, 2)) == 0


def test_flag_integral_weyl_invariance_and_linearity():
    rs = build_root_system("B", 2)
    rng = random.Random(13)
    coeffs = {}
    for _ in range(5):
        mono = (rng.randint(0, 2), rng.randint(0, 2))
        if sum(mono) <= len(rs.positive_roots):
            coeffs[mono] = F(rng.randint(-3, 3))
    p = S(2, coeffs)
    q = positive_root_product(rs)
    assert flag_integral(rs, p + q) == flag_integral(rs, p) + flag_integral(rs, q)
    assert flag_integral(rs, p * 3) == 3 * flag_integral(rs, p)
    for w in enumerate_weyl_group(rs):
        moved = p.substitute_linear(tuple(zip(*w.matrix)))
        assert flag_integral(rs, moved) == flag_integral(rs, p)


def test_flag_integral_rejects_high_degree():
    a1 = build_root_system("A", 1)
    with pytest.raises(ValueError):
        flag_integral(a1, S(1, {(2,): F(1)}))


def test_text_roundtrip():
    s = S(2, {(0, 0): F(3), (2, 1): F(-5, 7), (1, 0): F(2)}, trunc=4)
    text = s.to_text()
    assert text == "3 + 2 * x1^1 + -5/7 * x1^2 * x2^1"


def test_substitute_linear_on_weyl_matrix_is_involution():
    rs = build_root_system("A", 2)
    s1 = enumerate_weyl_group(rs)[1]
    m = tuple(zip(*s1.matrix))
    p = S(2, {(1, 0): F(1), (0, 2): F(3), (1, 1): F(-2)}, trunc=4)
    assert p.substitute_linear(m).substitute_linear(m) == p


def _monomial_substitution(p, matrix):
    # sum over monomials of c * prod_k (sum_i matrix[k][i] x_i)^{e_k}
    out = S(p.num_vars, {}, p.trunc)
    for mono, c in p.coeffs.items():
        term = TruncatedSeries.constant(c, p.num_vars, p.trunc)
        for k, e in enumerate(mono):
            term = term * TruncatedSeries.linear_form(matrix[k], p.trunc) ** e
        out = out + term
    return out


@pytest.mark.parametrize("num_vars", [1, 2, 3, 4])
@pytest.mark.parametrize("trunc", [None, 4])
def test_substitute_linear_matches_the_monomial_expansion(num_vars, trunc):
    rng = random.Random(num_vars * 10 + (trunc or 0))
    entries = [0, 0, 1, -1, 2, F(1, 2), F(-2, 3)]
    identity = tuple(tuple(int(i == j) for i in range(num_vars)) for j in range(num_vars))
    for _ in range(4):
        p = _random_series(rng, num_vars, 0, 5, trunc)
        full = tuple(tuple(rng.choice(entries) for _ in range(num_vars))
                     for _ in range(num_vars))
        var = rng.randrange(num_vars)
        pole = list(identity)
        pole[var] = tuple(0 if i == var else rng.choice(entries) for i in range(num_vars))
        for matrix in (full, tuple(pole), identity):
            moved = p.substitute_linear(matrix)
            assert moved == _monomial_substitution(p, matrix), (p, matrix)
        assert p.substitute_linear(identity) == p


# dict-of-Fraction reference arithmetic for the integer core

def _ref_clean(coeffs, trunc):
    return {m: c for m, c in coeffs.items() if c and (trunc is None or sum(m) <= trunc)}


def _ref_add(a, b, trunc):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, F(0)) + c
    return _ref_clean(out, trunc)


def _ref_mul(a, b, trunc):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, F(0)) + c1 * c2
    return _ref_clean(out, trunc)


def _ref_substitute(a, matrix, trunc):
    n = len(matrix)
    out = {}
    for mono, c in a.items():
        term = {(0,) * n: c}
        for k, e in enumerate(mono):
            form = {tuple(int(i == j) for j in range(n)): F(x)
                    for i, x in enumerate(matrix[k]) if x}
            for _ in range(e):
                term = _ref_mul(term, form, None)
        out = _ref_add(out, term, None)
    return _ref_clean(out, trunc)


def _ref_exp(a, num_vars, trunc):
    out = power = {(0,) * num_vars: F(1)}
    for k in range(1, trunc + 1):
        power = _ref_mul(power, a, trunc)
        out = _ref_add(out, {m: c / factorial(k) for m, c in power.items()}, trunc)
    return out


def _ref_inverse(a, num_vars, trunc):
    # 1/a = (1/c) sum_k t^k with t = 1 - a/c
    zero = (0,) * num_vars
    c = a[zero]
    t = {m: -v / c for m, v in a.items() if m != zero}
    out = power = {zero: F(1)}
    for _ in range(trunc):
        power = _ref_mul(power, t, trunc)
        out = _ref_add(out, power, trunc)
    return {m: v / c for m, v in out.items()}


def _assert_canonical(s, expect):
    assert s.den > 0 and all(s.nums.values())
    assert gcd(s.den, *s.nums.values()) == 1
    assert s.nums or s.den == 1
    assert s.coeffs == expect


def _rational_series(rng, num_vars, trunc, low=0, size=5):
    coeffs = {}
    for _ in range(size):
        mono = tuple(rng.randint(0, 3) for _ in range(num_vars))
        if sum(mono) >= low:
            coeffs[mono] = F(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4, 6, 9]))
    return S(num_vars, coeffs, trunc)


@pytest.mark.parametrize("num_vars", [1, 2, 3])
def test_integer_core_matches_the_fraction_reference(num_vars):
    rng = random.Random(700 + num_vars)
    entries = [0, 0, 1, -1, 2, F(1, 2), F(-2, 3), F(5, 4)]
    for _ in range(25):
        ta, tb = rng.choice([None, 2, 4, 6]), rng.choice([None, 3, 6])
        a, b = _rational_series(rng, num_vars, ta), _rational_series(rng, num_vars, tb)
        trunc = min((t for t in (ta, tb) if t is not None), default=None)
        _assert_canonical(a + b, _ref_add(a.coeffs, b.coeffs, trunc))
        _assert_canonical(a - b, _ref_add(a.coeffs, {m: -c for m, c in b.coeffs.items()},
                                          trunc))
        _assert_canonical(a - a, {})
        _assert_canonical(a * b, _ref_mul(a.coeffs, b.coeffs, trunc))
        scalar = F(rng.choice([-5, 2, 7]), rng.choice([3, 4, 6]))
        _assert_canonical(a * scalar, {m: c * scalar for m, c in a.coeffs.items()})
        _assert_canonical(a * 0, {})
        matrix = tuple(tuple(rng.choice(entries) for _ in range(num_vars))
                       for _ in range(num_vars))
        _assert_canonical(a.substitute_linear(matrix), _ref_substitute(a.coeffs, matrix, ta))
        # exact quotients, by a polynomial and by a truncated divisor
        den = _rational_series(rng, num_vars, None, size=3) + scalar
        q = _rational_series(rng, num_vars, None, size=3)
        num = q * den
        _assert_canonical(num.divide_exact(den), q.coeffs)
        cut = rng.randint(0, 5)
        expect = _divide_by_degrees(num, den.truncate(cut))
        _assert_canonical(num.divide_exact(den.truncate(cut)), expect.coeffs)
        series = _rational_series(rng, num_vars, 5, low=1) + scalar
        _assert_canonical(series.inverse(), _ref_inverse(series.coeffs, num_vars, 5))
