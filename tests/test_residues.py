import functools
import json
import random
from fractions import Fraction as F
from itertools import combinations
from math import factorial
from pathlib import Path

import pytest

from orbitrr.errors import GenericityError
from orbitrr.jsonio import fixture_path, load_residue_problem
from orbitrr.linalg import identity, mat_det, mat_inv, mat_mul, mat_vec
from orbitrr.residues import (RatExpTerm, _frame, make_term, merge_terms, res_cone,
                              res_plus_1d)
from orbitrr.series import TruncatedSeries
from orbitrr.volumes import partition_fiber_volume


def const(n, c=1):
    return TruncatedSeries.constant(c, n)


def _scaled(term, c):
    return RatExpTerm(term.num_vars, term.numerator * F(c), term.phase, term.dens, term.tie)


def simple_term(phase, dens, n=None, num=None):
    n = n if n is not None else len(phase)
    return make_term(n, num if num is not None else const(n), phase, dens)


def test_res_plus_simple_pole():
    out, tied = res_plus_1d([simple_term((F(1),), [((F(1),), 1)])], 0)
    assert not tied and len(out) == 1 and out[0].numerator.constant_term() == 1
    assert out[0].dens == () and out[0].phase == (F(0),)


def test_res_plus_double_pole_derivative_rule():
    for p in (F(3), F(1, 2)):
        out, _ = res_plus_1d([simple_term((p,), [((F(1),), 2)])], 0)
        assert len(out) == 1 and out[0].numerator.constant_term() == p


def test_res_plus_negative_phase_vanishes():
    assert res_plus_1d([simple_term((F(-2),), [((F(1),), 1)])], 0) == ([], False)


def test_res_plus_zero_phase_decay_rule():
    # enough decay: the residue at the one pole is zero, so no tie decides
    assert res_plus_1d([simple_term((F(0),), [((F(1),), 2)])], 0) == ([], False)
    # too little decay: the sign of the tie decides
    marginal = simple_term((F(0),), [((F(1),), 1)])
    out, tied = res_plus_1d([RatExpTerm(1, marginal.numerator, (0,), marginal.dens, (3,))], 0)
    assert tied and [t.numerator.constant_term() for t in out] == [1]
    out, tied = res_plus_1d([RatExpTerm(1, marginal.numerator, (0,), marginal.dens, (-3,))], 0)
    assert tied and out == []
    # and without a tie, or with a zero one, the term is refused
    with pytest.raises(GenericityError, match="not decided by the tie [(]none[)]$"):
        res_plus_1d([marginal], 0)
    with pytest.raises(GenericityError, match="not decided by the tie 0$"):
        res_plus_1d([RatExpTerm(1, marginal.numerator, (0,), marginal.dens, (0,))], 0)


def test_res_plus_merges_before_the_marginal_rule():
    # x/x^3 and -x/x^3 cancel; neither alone satisfies the decay bound
    num1 = TruncatedSeries(1, {(1,): F(1)})
    num2 = TruncatedSeries(1, {(1,): F(-1)})
    t1 = make_term(1, num1, (F(0),), [((F(1),), 3)])
    t2 = make_term(1, num2, (F(0),), [((F(1),), 3)])
    assert res_plus_1d([t1, t2], 0) == ([], False)


def test_res_plus_poles_in_parameters():
    # e^{x+y}/(x(x+y)) in x: residues at x=0 and x=-y
    t = simple_term((F(1), F(1)), [((F(1), F(0)), 1), ((F(1), F(1)), 1)])
    out, _ = res_plus_1d([t], 0)
    # e^{y}/y - 1/y  (the pole at x=-y kills the exponential)
    by_phase = {term.phase: term for term in out}
    assert set(by_phase) == {(F(0), F(1)), (F(0), F(0))}
    assert by_phase[(F(0), F(1))].numerator.constant_term() == 1
    assert by_phase[(F(0), F(0))].numerator.constant_term() == -1
    for term in out:
        assert term.dens == (((F(0), F(1)), 1),)


def test_canonical_term_form():
    t = make_term(2, const(2), (F(1), F(0)),
                  [((F(-2), F(-4)), 1), ((F(1), F(2)), 1)])
    # both forms normalize to (1, 2); scalar -2 absorbed into the numerator
    assert t.dens == (((F(1), F(2)), 2),)
    assert t.numerator.constant_term() == F(-1, 2)


def test_res_cone_one_variable_reduces():
    t = simple_term((F(1),), [((F(1),), 1)])
    value, tied = res_cone([t], (F(1),))
    assert value == 1 and tied == 0


def test_res_cone_worked_examples():
    t = simple_term((F(1), F(1)), [((F(1), F(0)), 1), ((F(0), F(1)), 1), ((F(1), F(1)), 1)])
    assert res_cone([t], (F(1), F(3)))[0] == 1
    t2 = simple_term((F(1), F(1)), [((F(1), F(0)), 1), ((F(0), F(1)), 1)])
    assert res_cone([t2], (F(1), F(3)))[0] == 1


def test_res_cone_linearity():
    xi = (F(1), F(3))
    rng = random.Random(2)
    for _ in range(5):
        p1 = (F(rng.randint(1, 3)), F(rng.randint(1, 3)))
        p2 = (F(rng.randint(1, 3)), F(rng.randint(1, 3)))
        dens = [((F(1), F(0)), 1), ((F(0), F(1)), 1), ((F(1), F(1)), 1)]
        t1, t2 = simple_term(p1, dens), simple_term(p2, dens)
        c = F(rng.randint(1, 5), rng.randint(1, 3))
        v1 = res_cone([t1], xi)[0]
        v2 = res_cone([t2], xi)[0]
        both = res_cone([t1, _scaled(t2, c)], xi)[0]
        assert both == v1 + c * v2


def _random_unimodular(rng, n):
    """P L U for a random permutation matrix P and unit lower and upper
    triangular integer matrices L and U with entries in [-1, 1]: an
    integer matrix of determinant +-1."""
    def unit_lower():
        return tuple(tuple(rng.randint(-1, 1) if j < i else int(i == j) for j in range(n))
                     for i in range(n))
    return tuple(rng.sample(mat_mul(unit_lower(), tuple(zip(*unit_lower()))), n))


def _changed_variables(terms, xi, m):
    """The problem in the variables y of x = m y: each term pulled back by
    m, and xi as m^-1 xi.  For unimodular m the residue is the same."""
    return [t.pull_back(m) for t in terms], mat_vec(mat_inv(m), xi)


def test_res_cone_coordinate_robustness():
    # ten unimodular changes of variables, same value
    xi = (F(2), F(3))
    t = simple_term((F(2), F(1)), [((F(1), F(0)), 1), ((F(0), F(1)), 1), ((F(1), F(1)), 1)])
    reference = res_cone([t], xi)[0]
    rng = random.Random(17)
    for _ in range(10):
        assert res_cone(*_changed_variables([t], xi, _random_unimodular(rng, 2)))[0] == reference


def test_res_cone_scaled_frame_has_unit_jacobian_effect():
    # xi = (2,) doubles the basis vector: that halves the residue and
    # doubles the Jacobian
    t = simple_term((F(1),), [((F(1),), 1)])
    assert _frame((F(2),)) == ((F(2),),)
    assert res_cone([t], (F(2),))[0] == 1


def test_res_cone_output_closure_invariants():
    # every intermediate output of res_plus_1d is in canonical form
    t = simple_term((F(1), F(2)), [((F(1), F(0)), 1), ((F(1), F(3)), 2)])
    out, _ = res_plus_1d([t], 1)
    for term in out:
        for form, mult in term.dens:
            assert mult >= 1
            lead = next(c for c in form if c != 0)
            assert lead > 0
            assert all(c.denominator == 1 for c in form)


def test_res_cone_refuses_phase_on_a_denominator_ray():
    # the phase is proportional to one denominator form, violating the
    # proper-span precondition: it lies on a wall
    t = simple_term((F(0), F(1)), [((F(1), F(0)), 1), ((F(0), F(1)), 1)])
    assert _frame((F(1), F(1))) == ((F(1), F(1)), (F(0), F(1)))
    with pytest.raises(GenericityError):
        res_cone([t], (F(1), F(1)))


def test_res_cone_refuses_a_wall_by_its_one_sided_values():
    # a zero phase at a bare pole, in one variable, in two and in three:
    # the residue is 1 with the tie and 0 against it
    marginal = simple_term((F(0),), [((F(1),), 1)])
    with pytest.raises(GenericityError, match="one-sided values 1 and 0$"):
        res_cone([marginal], (F(1),))
    t = simple_term((F(0), F(1)), [((F(1), F(0)), 1), ((F(0), F(1)), 1)])
    with pytest.raises(GenericityError, match="one-sided values 1 and 0$"):
        res_cone([t], (F(1), F(1)))
    dens = [((F(1), F(0), F(0)), 1), ((F(0), F(1), F(0)), 1), ((F(0), F(0), F(1)), 1)]
    on_ray = make_term(3, TruncatedSeries.constant(1, 3), (F(0), F(0), F(1)), dens)
    with pytest.raises(GenericityError, match="one-sided values 1 and 0$"):
        res_cone([on_ray], (F(1), F(1), F(1)))


def test_res_cone_refuses_a_tie_that_decides_nothing():
    # the tie (1009, 1009^2) is 1009 times the form x + 1009 y, so at the
    # pole of that form it pulls back to zero, as the phase does
    term = simple_term((0, 0), [((1, 1009), 1), ((1, 0), 1)])
    with pytest.raises(GenericityError, match="not decided by the tie 0,0$"):
        res_cone([term], (1, 1))


def test_frame_is_the_first_standard_completion_of_xi():
    # the closed form is the basis that a search over n - 1 standard
    # vectors, in combinations order and completed by xi, accepts first
    rng = random.Random(5)
    for _ in range(400):
        xi = tuple(rng.choice([0, 0, 1, -2, F(1, 3)]) for _ in range(rng.randint(1, 4)))
        if not any(xi):
            continue
        std = identity(len(xi))
        frames = (tuple(zip(*[std[j] for j in combo], xi))
                  for combo in combinations(range(len(xi)), len(xi) - 1))
        assert _frame(xi) == next(frame for frame in frames if mat_det(frame))


def _unlucky_frame():
    # valid input (phase off every proper span of the denominator forms),
    # but the frame of xi = (1, 1, 1) makes an intermediate phase vanish on
    # a term with too little decay, so the tie decides it
    num = TruncatedSeries(3, {(1, 0, 0): F(1)})
    dens = [((F(1), F(0), F(0)), 1), ((F(0), F(1), F(0)), 1), ((F(0), F(0), F(1)), 1)]
    term = make_term(3, num, (F(-1), F(2), F(1)), dens)
    xi = (F(1), F(1), F(1))
    assert _frame(xi) == ((F(1), F(0), F(1)), (F(0), F(1), F(1)), (F(0), F(0), F(1)))
    return term, xi


def test_res_cone_answers_an_unlucky_frame_in_place():
    # the frame of xi gives the value of a frame where no phase vanishes,
    # after evaluating both sides of the tie: in the variables of
    # x = good y, the frame of good^-1 (1, 2, 1) = (0, 0, 1) is the identity
    term, xi = _unlucky_frame()
    value, tied = res_cone([term], xi)
    assert tied == 1
    good = ((F(1), F(1), F(1)), (F(0), F(1), F(2)), (F(0), F(0), F(1)))
    assert res_cone([term.pull_back(good)], (F(0), F(0), F(1))) == (value, 0)


def test_res_cone_of_repeated_terms_on_an_unlucky_frame():
    # merging repeated terms changes neither the value nor the sides evaluated
    term, xi = _unlucky_frame()
    value, tied = res_cone([term], xi)
    assert tied == 1
    assert res_cone([term] * 3, xi) == (3 * value, tied)
    assert res_cone([term, _scaled(term, -1)], xi)[0] == 0


def test_unlucky_frame_fixture_is_the_unlucky_frame():
    # the shipped problem is the one above, and its xi picks the frame
    term, xi = _unlucky_frame()
    problem = load_residue_problem(str(fixture_path("jk_unlucky_frame.json")))
    assert problem == {"vars": 3, "terms": [term], "xi": xi}
    assert res_cone(problem["terms"], problem["xi"]) == (0, 1)


def test_res_cone_takes_no_seed():
    # the value does not depend on the frame, and res_cone draws nothing
    # and takes no frame
    term, xi = _unlucky_frame()
    with pytest.raises(TypeError):
        res_cone([term], xi, seed=3)
    with pytest.raises(TypeError):
        res_cone([term], xi, _frame(xi))


def _random_cone_problem(rng):
    """1-3 terms in 3 or 4 variables with sparse forms of multiplicity 1-2,
    and a vector xi off every denominator wall."""
    n = rng.choice([3, 3, 3, 4])
    entries = [0, 0, 0, 0, 0, 1, -1]
    terms = []
    for _ in range(rng.randint(1, 3)):
        dens = []
        for j in range(n):
            form = [rng.choice(entries) for _ in range(n)]
            form[j] = rng.choice([1, -1, 2])
            dens.append((tuple(form), rng.choice([1, 1, 1, 2])))
        phase = tuple(F(rng.choice([-2, -1, 1, 2, 3]), rng.randint(1, 2)) for _ in range(n))
        j = rng.randrange(2 * n)  # x_j, or 1 when j >= n
        num = TruncatedSeries(n, {tuple(int(i == j) for i in range(n)): rng.randint(1, 3)})
        terms.append(make_term(n, num, phase, dens))
    forms = [f for t in terms for f, _ in t.dens]
    while True:
        xi = tuple(rng.randint(1, 5) for _ in range(n))
        if all(sum(a * b for a, b in zip(f, xi)) for f in forms):
            _draw_frame(rng, xi)
            return terms, xi


def _draw_frame(rng, xi):
    """The draws of an integer frame with head entries in [-2, 2], ending in
    xi: the corpus was seeded with them, and they keep its sequence."""
    n = len(xi)
    while True:
        cols = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n - 1)] + [xi]
        if mat_det(tuple(tuple(c[i] for c in cols) for i in range(n))):
            return


# corpus problems on a wall: the golden value is one side of it (3/4 and
# 0 here), and the residue now refuses them
CORPUS_WALLS = {289}


@functools.cache
def _corpus():
    """The golden values of the seeded cone problems (computed when res_cone
    still re-drew frames), the problems themselves, and their outcomes now."""
    doc = json.loads((Path(__file__).parent / "golden" / "res_cone_corpus.json").read_text())
    rng = random.Random(doc["seed"])
    problems = [_random_cone_problem(rng) for _ in range(doc["problems"])]
    return doc, problems, [_res_cone_outcome(terms, xi) for terms, xi in problems]


def _res_cone_outcome(terms, xi):
    try:
        return res_cone(terms, xi)[0]
    except GenericityError as exc:
        return type(exc), str(exc)


def _refused(outcome):
    """A refusal as a set: a wall's one-sided values, or else its message."""
    tail = outcome[1].partition("one-sided values ")[2]
    return frozenset(map(F, tail.split(" and ")) if tail else [outcome[1]])


def test_res_cone_reproduces_the_corpus_values():
    doc, _, outcomes = _corpus()
    assert CORPUS_WALLS <= {int(key) for key in doc["values"]}
    for key, value in doc["values"].items():
        outcome = outcomes[int(key)]
        if int(key) in CORPUS_WALLS:
            assert outcome[0] is GenericityError and "one-sided values" in outcome[1], key
        else:
            assert outcome == F(value), key


def test_res_cone_has_one_outcome_per_corpus_problem():
    # in the problem's variables and after two unimodular changes of
    # variables, no two values differ, every refusal names the same
    # message or the same set of one-sided values, and a value next to a
    # refusal is one of its one-sided values: a wall may look answered in
    # one coordinate system when its two sides agree there
    _, problems, outcomes = _corpus()
    rng = random.Random(2027)
    differ = []
    for i, ((terms, xi), outcome) in enumerate(zip(problems, outcomes)):
        seen = [outcome] + [_res_cone_outcome(*_changed_variables(
            terms, xi, _random_unimodular(rng, len(xi)))) for _ in range(2)]
        values = {o for o in seen if isinstance(o, F)}
        refusals = {_refused(o) for o in seen if not isinstance(o, F)}
        if len(values) > 1 or len(refusals) > 1 or not all(values <= r for r in refusals):
            differ.append(i)
    assert differ == []
    refused = sum(isinstance(outcome, tuple) for outcome in outcomes)
    assert 10 <= refused <= len(outcomes) - 10


def test_chamber_volume_agreement_small_corpus():
    cases = [
        ([(1, 0), (0, 1)], (F(1), F(2))),
        ([(1, 0), (0, 1), (1, 1)], (F(2), F(1))),
        ([(1, 0), (0, 1), (1, 1)], (F(1), F(2))),
        ([(1, 0), (0, 1), (1, 1), (1, 2)], (F(2), F(3))),
        ([(1, 0), (1, 1), (1, 2)], (F(3), F(2))),
        ([(1, 0), (1, 0), (0, 1)], (F(2), F(3))),
    ]
    for weights, p in cases:
        weights = [(F(a), F(b)) for a, b in weights]
        xi = (F(7), F(5)) if all(7 * a + 5 * b > 0 for a, b in weights) else (F(1), F(5))
        t = simple_term(p, [(w, 1) for w in weights])
        value = res_cone([t], xi)[0]
        assert value == partition_fiber_volume(weights, p), (weights, p)


@pytest.mark.parametrize("terms,xi", [
    ([((3, 2), (((0, 1), 1), ((2, 1), 2))), ((1, 4), (((1, 0), 1), ((2, 1), 1)))], (1, 2)),
    ([((2, 3, 5), (((2, 1, 0), 1), ((0, 1, 1), 1), ((1, 0, 3), 2)))], (1, 1, 1)),
], ids=["2-vars", "3-vars"])
def test_int_forms_give_the_exact_fraction_result(terms, xi):
    # int denominator forms with a non-unit pivot, as the residue route
    # builds them: every division at a pole must stay exact, never int / int
    def problem(num):
        n = len(xi)
        built = [RatExpTerm(n, const(n), tuple(map(num, phase)),
                            tuple((tuple(map(num, form)), m) for form, m in dens))
                 for phase, dens in terms]
        return built, tuple(map(num, xi))

    value, tied = res_cone(*problem(int))
    assert isinstance(value, F) and value != 0
    assert (value, tied) == res_cone(*problem(F))


def test_merge_terms_combines_signatures():
    t1 = simple_term((F(1), F(0)), [((F(1), F(0)), 1)])
    t2 = simple_term((F(1), F(0)), [((F(2), F(0)), 1)])  # same canonical form
    merged = merge_terms([t1, t2])
    assert len(merged) == 1
    assert merged[0].numerator.constant_term() == F(3, 2)


def _at_pole(n, var, c):
    rows = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    rows[var] = c
    return tuple(rows)


def test_pull_back_at_a_pole_matches_the_substitution_rule():
    # x_var := <c, X> with c_var = 0: phase_j + p c_j (p = phase_var),
    # forms f_j + a c_j (a = f_var), and the numerator under the same
    # substitution, monomial by monomial
    rng = random.Random(23)
    entries = [0, 0, 1, -1, 2, F(1, 2), F(-3, 2)]
    checked = collided = 0
    for n in (1, 2, 3):
        for _ in range(12):
            var = rng.randrange(n)
            c = tuple(F(0) if i == var else F(rng.choice(entries)) for i in range(n))
            dens = []
            for _ in range(rng.randint(1, 3)):
                form = [rng.choice(entries) for _ in range(n)]
                form[rng.randrange(n)] = rng.choice([1, -2])
                dens.append((tuple(form), rng.randint(1, 2)))
            coeffs = {tuple(rng.randint(0, 2) for _ in range(n)): F(rng.randint(-3, 3), 2)
                      for _ in range(3)}
            term = make_term(n, TruncatedSeries(n, coeffs),
                             tuple(rng.choice(entries) for _ in range(n)), dens)
            phase = tuple(F(0) if j == var else term.phase[j] + term.phase[var] * c[j]
                          for j in range(n))
            forms = [(tuple(F(0) if j == var else f[j] + f[var] * c[j] for j in range(n)), m)
                     for f, m in term.dens]
            if any(all(x == 0 for x in f) for f, _ in forms):
                with pytest.raises(GenericityError):
                    term.pull_back(_at_pole(n, var, c))
                collided += 1
                continue
            num = TruncatedSeries(n, {})
            for mono, coeff in term.numerator.coeffs.items():
                rest = mono[:var] + (0,) + mono[var + 1:]
                num = num + (TruncatedSeries(n, {rest: coeff})
                             * TruncatedSeries.linear_form(c) ** mono[var])
            assert term.pull_back(_at_pole(n, var, c)) == make_term(n, num, phase, forms)
            checked += 1
    assert checked > 10 and collided > 0


def test_pull_back_refuses_a_denominator_that_collapses():
    # at x = -y the form x + y vanishes identically
    t = simple_term((F(1), F(1)), [((F(1), F(0)), 1), ((F(1), F(1)), 1)])
    with pytest.raises(GenericityError):
        t.pull_back(_at_pole(2, 0, (F(0), F(-1))))


def test_parsed_terms_pull_back_through_the_identity_unchanged():
    # res_cone skips the identity frame, which must leave every term as it is
    problem = load_residue_problem(str(fixture_path("jk_chamber_problem.json")))
    terms = problem["terms"]
    assert terms and all(t.pull_back(identity(problem["vars"])) == t for t in terms)


def test_build_cone_error_prints_the_weight_in_label_syntax():
    # the cone that xi spans needs xi to pair nonzero with every weight;
    # res_cone checks it on its input, takes no residue, and names the
    # weight in label syntax
    with pytest.raises(ValueError, match="xi pairs to zero with weight 1,-1$"):
        res_cone([simple_term((1, 2), [((1, -1), 1), ((0, 1), 1)])], (1, 1))
    t = simple_term((F(1), F(1)), [((F(1), F(0)), 1), ((F(0), F(1)), 1), ((F(1), F(1)), 1)])
    with pytest.raises(ValueError, match="xi pairs to zero with weight 1,1$"):
        res_cone([t], (F(1), F(-1)))


# ----------------------------------------------------------------------
# the closed-form pole evaluation against the derivative-based reference


def _reference_derivative(term, var):
    """d/dx_var of a term, as a list of terms in the same class."""
    out = []
    q = term.numerator
    dq = TruncatedSeries(q.num_vars, {m[:var] + (m[var] - 1,) + m[var + 1:]: c * m[var]
                                      for m, c in q.coeffs.items() if m[var]})
    poly_part = dq + q * term.phase[var]
    if not poly_part.is_zero():
        out.append(RatExpTerm(term.num_vars, poly_part, term.phase, term.dens, term.tie))
    for idx, (form, mult) in enumerate(term.dens):
        a = form[var]
        if a == 0:
            continue
        bumped = list(term.dens)
        bumped[idx] = (form, mult + 1)
        out.append(RatExpTerm(term.num_vars, term.numerator * (-mult * a),
                              term.phase, tuple(bumped), term.tie))
    return out


def _reference_residue_at_pole(term, var, pole_index):
    """(1/(m-1)!) d^{m-1}/dz^{m-1} [(z-b)^m f] at z = b, by m - 1 rounds of
    term derivatives merged after each round, then each term pulled back
    to the pole."""
    form, mult = term.dens[pole_index]
    a = form[var]
    rest = term.dens[:pole_index] + term.dens[pole_index + 1:]
    work = [RatExpTerm(term.num_vars, term.numerator * (F(1) / a**mult), term.phase, rest,
                       term.tie)]
    for _ in range(mult - 1):
        work = merge_terms([d for t in work for d in _reference_derivative(t, var)])
    n = term.num_vars
    at_pole = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    at_pole[var] = tuple(0 if i == var else F(-form[i], a) for i in range(n))
    return [_scaled(t, F(1, factorial(mult - 1))).pull_back(at_pole) for t in work]


def _term_key(t):
    return (t.num_vars, t.phase, tuple(map(type, t.phase)), t.dens, t.tie, t.numerator.nums,
            t.numerator.den, t.numerator.trunc)


def _res_plus_chain(terms):
    """res_plus_1d in every variable from the last, as the list of each
    step's term keys, ending with the error type and message if one is
    raised."""
    steps = []
    try:
        for var in range(terms[0].num_vars - 1, -1, -1):
            terms, tied = res_plus_1d(terms, var)
            steps.append(([_term_key(t) for t in terms], tied))
    except GenericityError as exc:
        steps.append((type(exc), str(exc)))
    return steps


def _random_residue_problem(rng):
    n = rng.randint(1, 3)
    entries = [0, 0, 1, -1, 2, -3]
    phases = [tuple(F(rng.randint(-2, 3), rng.randint(1, 3)) for _ in range(n))
              for _ in range(2)]
    terms = []
    for _ in range(rng.randint(1, 3)):
        dens = []
        for _ in range(rng.randint(1, 3)):
            form = [rng.choice(entries) for _ in range(n)]
            form[rng.randrange(n)] = rng.choice([1, -2, 3])
            dens.append((tuple(form), rng.randint(1, 4)))
        num = TruncatedSeries(n, {tuple(rng.randint(0, 2) for _ in range(n)):
                                  F(rng.randint(-4, 4), rng.randint(1, 3))
                                  for _ in range(rng.randint(1, 3))})
        phase = rng.choice(phases)
        # a few terms keep their forms as written, so that one pole can
        # collapse a proportional denominator
        raw = rng.random() < 0.15
        term = (RatExpTerm(n, num, phase, tuple(dens)) if raw
                else make_term(n, num, phase, dens))
        term.tie = (1009, 1009 ** 2, 1009 ** 3)[:n]
        terms.append(term)
    return terms


def test_pole_evaluation_matches_the_derivative_reference(monkeypatch):
    import orbitrr.residues as residues

    rng = random.Random(2022)
    problems = [_random_residue_problem(rng) for _ in range(400)]
    new = [_res_plus_chain(terms) for terms in problems]
    monkeypatch.setattr(residues, "_residue_at_pole", _reference_residue_at_pole)
    old = [_res_plus_chain(terms) for terms in problems]
    assert new == old
    errors = [steps[-1][0] for steps in old if steps[-1][0] is GenericityError]
    assert errors and len(errors) < len(problems) // 4
    assert any(step[1] is True for steps in old for step in steps)


def _power_product(point, mono):
    out = F(1)
    for x, e in zip(point, mono):
        out *= F(x) ** e
    return out


def _value_at(series, point):
    return sum((c * _power_product(point, mono) for mono, c in series.coeffs.items()), F(0))


def test_pole_of_order_m_is_the_taylor_sum():
    # Res_{x=0} q e^{px} / (a x)^m = a^-m sum_k q_k p^(m-1-k) / (m-1-k)!
    # for q = 3 - x/2 + 5x^3, p = 2/3, a = -2, m = 4:
    # (3 (8/27)/6 - (1/2)(4/9)/2 + 5) / 16 = (4/27 - 1/9 + 5) / 16 = 17/54
    q = TruncatedSeries(1, {(0,): 3, (1,): F(-1, 2), (3,): 5})
    p, a, m = F(2, 3), -2, 4
    taylor = sum(c * p ** (m - 1 - k) / factorial(m - 1 - k)
                 for (k,), c in q.coeffs.items()) / F(a) ** m
    assert taylor == F(17, 54)
    out, _ = res_plus_1d([RatExpTerm(1, q, (p,), (((a,), m),))], 0)
    assert len(out) == 1 and out[0].dens == () and out[0].phase == (0,)
    assert out[0].numerator == TruncatedSeries.constant(F(17, 54), 1)


def test_pole_of_order_four_with_two_other_active_denominators():
    # Res at x = y of q e^{px + rz} / ((x - y)^4 (x + z) (x + 2z)^2): one term
    # per way to spend at most 3 powers of t on (y + z + t)^-1 and
    # (y + 2z + t)^-2, in the order (0,0) (1,0) (0,1) (2,0) (1,1) (0,2) ...
    from orbitrr.residues import _residue_at_pole

    q = TruncatedSeries(3, {(0, 0, 0): 1, (1, 1, 0): F(1, 2), (2, 0, 1): -3})
    p, r = F(3, 2), F(1, 3)
    term = make_term(3, q, (p, 0, r), [((1, -1, 0), 4), ((1, 0, 1), 1), ((1, 0, 2), 2)])
    pole = term.dens.index(((1, -1, 0), 4))
    out = _residue_at_pole(term, 0, pole)
    bumps = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)]
    assert [t.dens for t in out] == [(((0, 1, 1), 1 + i), ((0, 1, 2), 2 + j)) for i, j in bumps]
    assert all(t.phase == (0, p, r) for t in out)
    # at (y, z) = (1, 2), against the coefficient of t^3 in
    # q(1 + t, 1, 2) e^{pt} / ((3 + t) (5 + t)^2) by series division
    y, z = 1, 2
    shifted = TruncatedSeries(1, {(k,): c for k, c in enumerate(
        [_value_at(q, (y, y, z)), F(1, 2) * y - 6 * y * z, -3 * z])}, 3)
    den = TruncatedSeries(1, {(0,): 75, (1,): 55, (2,): 13, (3,): 1}, 3)
    laurent = (shifted * TruncatedSeries.exp_linear((p,), 3)).divide_exact(den)
    total = sum(_value_at(t.numerator, (0, y, z))
                / _power_product([y + z, y + 2 * z], [m for _, m in t.dens]) for t in out)
    assert total == laurent.coeffs[(3,)]


def test_a_pole_that_collapses_a_denominator_is_refused():
    # forms kept as written: at x = -y the form 2x + 2y vanishes
    term = RatExpTerm(2, const(2), (1, 1), (((1, 1), 1), ((2, 2), 1)))
    with pytest.raises(GenericityError, match="pole locations collide"):
        res_plus_1d([term], 0)
