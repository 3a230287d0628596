"""Generators of the Weyl-invariant polynomial ring and exact expression
of invariant series in them.

Generators are orbit power sums: for a dominant weight c the polynomial
sum over the orbit W.c of <mu, X>^d is invariant of degree d.  For each
fundamental degree of the group (``roots.fundamental_degrees``, derived
from the positive roots) a candidate weight is chosen (fundamental
weights first, then rho) so that the new generator enlarges the span of
products of the ones already chosen; the Molien series supplies the
expected dimension count as an independent check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import GeneratorDeficiencyError, InternalInconsistencyError
from .linalg import Vec, rref, solve_exact
from .roots import RootSystem, enumerate_weyl_group, fundamental_degrees
from .series import TruncatedSeries


def orbit_power_sum(rs: RootSystem, v: Vec, degree: int) -> TruncatedSeries:
    """sum over the W-orbit of v of the linear form <mu, X>^degree."""
    out = TruncatedSeries(rs.rank, {}, None)
    for mu in sorted({w.act(v) for w in enumerate_weyl_group(rs)}):
        out = out + TruncatedSeries.linear_form(mu) ** degree
    return out


def _molien_counts(rs: RootSystem, upto: int) -> list[int]:
    """Molien counts of degrees 0..upto: the dimensions of the spaces of
    degree-d Weyl-invariant polynomials, the coefficients of the Molien
    series (1/|W|) sum_w 1/det(1 - t w), in one integer pass.  By Newton's
    identity the coefficients of 1/det(1 - t w) obey
    d h_d = sum_j tr(w^j) h_{d-j}, so the recursion runs once per distinct
    sequence of power traces; the first rank traces fix det(1 - t w) and
    with it the whole sequence, so they key the elements."""
    weyl = enumerate_weyl_group(rs)
    classes: dict = {}
    for w in weyl:
        classes.setdefault(_power_traces(w.matrix, rs.rank), [w.matrix, 0])[1] += 1
    totals = [0] * (upto + 1)
    for m, count in classes.values():
        traces = _power_traces(m, upto)
        h = [1]
        for d in range(1, upto + 1):
            h.append(sum(traces[j - 1] * h[d - j] for j in range(1, d + 1)) // d)
        for d, c in enumerate(h):
            totals[d] += count * c
    if any(t % len(weyl) for t in totals):
        raise InternalInconsistencyError("Molien series of %s is not integral" % rs.label)
    return [t // len(weyl) for t in totals]


def _power_traces(m, upto: int) -> tuple[int, ...]:
    """tr(m^j) for j = 1..upto, each as sum_ik (m^(j-1))_ik m_ki, so the
    power m^upto is never formed."""
    n = len(m)
    power = [[int(i == c) for c in range(n)] for i in range(n)]
    traces = []
    for j in range(upto):
        if j:
            power = m if j == 1 else [[sum(power[i][k] * m[k][c] for k in range(n))
                                       for c in range(n)] for i in range(n)]
        traces.append(sum(power[i][k] * m[k][i] for i in range(n) for k in range(n)))
    return tuple(traces)


def _span_dimension(polys: list[TruncatedSeries]) -> int:
    # scaling a row by its denominator keeps the rank: rows of numerators
    monos = sorted({m for p in polys for m in p.nums})
    rows = [[p.nums.get(m, 0) for m in monos] for p in polys]
    return len(rref(rows, len(monos))[1])


def _monomials_of_weighted_degree(degrees, target: int):
    if not degrees:
        if target == 0:
            yield ()
        return
    d0 = degrees[0]
    for e in range(target // d0 + 1):
        for rest in _monomials_of_weighted_degree(degrees[1:], target - e * d0):
            yield (e,) + rest


def _generator_products(gens, degrees, target: int) -> dict[tuple[int, ...], TruncatedSeries]:
    out = {}
    for mono in _monomials_of_weighted_degree(degrees, target):
        p = TruncatedSeries.constant(1, gens[0].num_vars if gens else 0, None)
        for g, e in zip(gens, mono):
            if e:
                p = p * g**e
        out[mono] = p
    return out


@lru_cache(maxsize=None)
def invariant_generators(rs: RootSystem) -> tuple[TruncatedSeries, ...]:
    """One invariant generator per fundamental degree, chosen from orbit
    power sums of fundamental weights (then rho) so that each enlarges the
    span at its degree; dimensions are checked against the Molien count.
    """
    candidates = list(rs.fundamental_weights) + [rs.rho]
    degrees = fundamental_degrees(rs)
    chosen: list[TruncatedSeries] = []
    chosen_degs: list[int] = []
    for d in degrees:
        base = [p for p in _generator_products(chosen, tuple(chosen_degs), d).values()
                if not p.is_zero()]
        base_dim = _span_dimension(base)
        picked = None
        for c in candidates:
            cand = orbit_power_sum(rs, c, d)
            if cand.is_zero():
                continue
            if _span_dimension(base + [cand]) > base_dim:
                picked = cand
                break
        if picked is None:
            raise GeneratorDeficiencyError(
                "no orbit power sum enlarges the invariants of degree %d for %s" % (d, rs.label))
        chosen.append(picked)
        chosen_degs.append(d)
    molien = _molien_counts(rs, max(degrees))
    for d in degrees:
        prods = [p for p in _generator_products(tuple(chosen), degrees, d).values()
                 if not p.is_zero()]
        if _span_dimension(prods) != molien[d]:
            raise GeneratorDeficiencyError(
                "generators span too little in degree %d for %s" % (d, rs.label))
    return tuple(chosen)


def express_invariant(rs: RootSystem, series: TruncatedSeries) -> dict[tuple[int, ...], Fraction]:
    """Write a Weyl-invariant series as a polynomial in the invariant
    generators, degree by degree, by exact linear solve on coefficients.

    Returns {generator exponent tuple: coefficient}.  Raises
    GeneratorDeficiencyError if some homogeneous component is not in the
    span of generator products of its degree.
    """
    gens = invariant_generators(rs)
    degrees = fundamental_degrees(rs)
    cap = series.trunc
    if cap is None:
        cap = series.max_degree()
    out: dict[tuple[int, ...], Fraction] = {}
    c0 = series.constant_term()
    if c0:
        out[(0,) * len(gens)] = c0
    for d in range(1, cap + 1):
        component = series.homogeneous_part(d)
        products = _generator_products(gens, degrees, d)
        products = {m: p for m, p in products.items() if not p.is_zero()}
        if component.is_zero():
            continue
        if not products:
            raise GeneratorDeficiencyError(
                "nonzero invariant component in degree %d but no generator products" % d)
        keys = sorted(products)
        columns = [products[k].coeffs for k in keys]
        target = component.coeffs
        monos = sorted({m for c in columns for m in c} | set(target))
        matrix = tuple(tuple(c.get(m, Fraction(0)) for c in columns) for m in monos)
        rhs = [tuple(target.get(m, Fraction(0)) for m in monos)]
        sol = solve_exact(matrix, rhs)
        if sol is None:
            raise GeneratorDeficiencyError(
                "invariant component of degree %d is outside the generator span" % d)
        for k, c in zip(keys, sol[0]):
            if c:
                out[k] = out.get(k, Fraction(0)) + c
    return out
