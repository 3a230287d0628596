"""Sparse multivariate polynomials and truncated power series over the
rationals.

One class covers both: ``trunc=None`` means an honest polynomial (no
degree cap, multiplication is exact), an integer ``trunc=N`` means a
power series known modulo total degree > N.  Coefficients are stored in
a dict keyed by exponent tuples; zero coefficients are never stored.

Sums of exponentials of linear forms, such as the alternating numerator
and denominator of the Weyl character formula, are built in closed form
by ``TruncatedSeries.exp_sum``, one coefficient at a time and in integers
when the forms and weights are integral.

There is one division, ``divide_exact``: the divisor may be a polynomial
or a truncated series.  It is one long division under a local degree
order, led by the divisor's lowest homogeneous part (degree dmin), as in
Mora's normal form for power series; the quotient is truncated at
min(num.trunc, den.trunc) - dmin, a polynomial only when both inputs are.
``inverse`` is 1 divided by the series.  There is one change of
variables, ``substitute_linear``, by Horner's rule over the variables
that move.

The flag-variety fiber integral also lives here: it is a pure identity
on antisymmetrized polynomials and is the self-check that exact division
by the product of positive roots is available.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import factorial

from .errors import ExactDivisionError, InternalInconsistencyError
from .linalg import Mat, vec
from .roots import RootSystem, enumerate_weyl_group

Monomial = tuple[int, ...]


def _min_trunc(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class TruncatedSeries:
    """Exact sparse series/polynomial in ``num_vars`` variables."""

    __slots__ = ("num_vars", "trunc", "coeffs")

    def __init__(self, num_vars: int, coeffs=None, trunc: int | None = None):
        self.num_vars = num_vars
        self.trunc = trunc
        clean: dict[Monomial, Fraction] = {}
        for mono, c in (coeffs or {}).items():
            c = Fraction(c)
            if c == 0:
                continue
            if len(mono) != num_vars:
                raise ValueError("monomial arity mismatch")
            if trunc is not None and sum(mono) > trunc:
                continue
            clean[tuple(int(e) for e in mono)] = c
        self.coeffs = clean

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def constant(cls, value, num_vars: int, trunc: int | None = None) -> "TruncatedSeries":
        return cls(num_vars, {(0,) * num_vars: Fraction(value)}, trunc)

    @classmethod
    def linear_form(cls, cov, trunc: int | None = None) -> "TruncatedSeries":
        cov = vec(cov)
        n = len(cov)
        coeffs = {}
        for i, c in enumerate(cov):
            mono = tuple(int(i == j) for j in range(n))
            coeffs[mono] = c
        return cls(n, coeffs, trunc)

    @classmethod
    def exp_sum(cls, terms, trunc: int) -> "TruncatedSeries":
        """sum_j c_j e^{<v_j, X>} over pairs (v_j, c_j), truncated at total
        degree trunc.

        Built one coefficient at a time: the coefficient of X^a is
        (sum_j c_j prod_i v_{j,i}^{a_i}) / prod_i a_i!.  The sum stays a
        Python int while the v_j and c_j are ints; the division by a! is
        its only Fraction step.
        """
        terms = [(tuple(v), c) for v, c in terms]
        if not terms:
            raise ValueError("exp_sum needs at least one term")
        n = len(terms[0][0])
        if any(len(v) != n for v, _ in terms):
            raise ValueError("exp_sum vectors differ in length")
        if trunc is None:
            raise ValueError("exp_sum needs a truncation degree")
        columns = [[v[i] for v, _ in terms] for i in range(n)]
        coeffs: dict[Monomial, Fraction] = {}

        def fill(prefix: Monomial, partial: list, left: int, denom: int) -> None:
            # partial[j] = c_j * prod over the exponents in prefix of v_{j,i}^{a_i}
            i = len(prefix)
            if i == n:
                total = sum(partial)
                if total:
                    coeffs[prefix] = Fraction(total, denom)
                return
            for a in range(left + 1):
                if a:
                    partial = [p * x for p, x in zip(partial, columns[i])]
                    denom *= a
                fill(prefix + (a,), partial, left - a, denom)

        fill((), [c for _, c in terms], trunc, 1)
        return cls(n, coeffs, trunc)

    @classmethod
    def exp_linear(cls, cov, trunc: int) -> "TruncatedSeries":
        """exp of a linear form, truncated: the one-term exp_sum."""
        return cls.exp_sum([(cov, 1)], trunc)

    # ------------------------------------------------------------------
    # basic structure

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.num_vars == other.num_vars and self.trunc == other.trunc
                and self.coeffs == other.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def constant_term(self) -> Fraction:
        return self.coeffs.get((0,) * self.num_vars, Fraction(0))

    def max_degree(self) -> int:
        return max((sum(m) for m in self.coeffs), default=0)

    def min_degree(self) -> int:
        return min((sum(m) for m in self.coeffs), default=0)

    def homogeneous_part(self, degree: int) -> "TruncatedSeries":
        part = {m: c for m, c in self.coeffs.items() if sum(m) == degree}
        return TruncatedSeries(self.num_vars, part, self.trunc)

    def truncate(self, trunc: int | None) -> "TruncatedSeries":
        return TruncatedSeries(self.num_vars, self.coeffs, trunc)

    def as_polynomial(self) -> "TruncatedSeries":
        return TruncatedSeries(self.num_vars, self.coeffs, None)

    # ------------------------------------------------------------------
    # ring operations

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries.constant(other, self.num_vars, self.trunc)
        if self.num_vars != other.num_vars:
            raise ValueError("variable count mismatch")
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, Fraction(0)) + c
        return TruncatedSeries(self.num_vars, out, _min_trunc(self.trunc, other.trunc))

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(self.num_vars, {m: -c for m, c in self.coeffs.items()}, self.trunc)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries.constant(other, self.num_vars, self.trunc)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return TruncatedSeries(self.num_vars, {m: c * v for m, v in self.coeffs.items()},
                                   self.trunc)
        if self.num_vars != other.num_vars:
            raise ValueError("variable count mismatch")
        trunc = _min_trunc(self.trunc, other.trunc)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.coeffs.items():
            d1 = sum(m1)
            for m2, c2 in other.coeffs.items():
                if trunc is not None and d1 + sum(m2) > trunc:
                    continue
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return TruncatedSeries(self.num_vars, out, trunc)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = TruncatedSeries.constant(1, self.num_vars, self.trunc)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # ------------------------------------------------------------------
    # series-only operations

    def exp(self) -> "TruncatedSeries":
        if self.trunc is None:
            raise ValueError("exp needs a truncation degree")
        if self.constant_term() != 0:
            raise ValueError("exp requires zero constant term")
        result = TruncatedSeries.constant(1, self.num_vars, self.trunc)
        term = TruncatedSeries.constant(1, self.num_vars, self.trunc)
        for k in range(1, self.trunc + 1):
            term = term * self
            if term.is_zero():
                break
            result = result + term * Fraction(1, factorial(k))
        return result

    def inverse(self) -> "TruncatedSeries":
        if self.constant_term() == 0:
            raise ValueError("cannot invert a series with zero constant term")
        if self.trunc is None:
            raise ValueError("inverse needs a truncation degree")
        return TruncatedSeries.constant(1, self.num_vars, self.trunc).divide_exact(self)

    def divide_exact(self, den: "TruncatedSeries") -> "TruncatedSeries":
        """Exact division, by a polynomial or by a truncated series.

        Remainder monomials are visited by ascending total degree, then
        lex-descending; the lead is the lex-largest monomial of the
        divisor's lowest homogeneous part (degree dmin).  Each quotient
        term subtracts itself times the rest of the divisor, whose
        monomials all come later, so each monomial is visited once.  The
        quotient is a polynomial only when both inputs are; otherwise it
        is truncated at min(self.trunc, den.trunc) - dmin and products
        past that cap are skipped.  A nonzero remainder (at any degree
        that the inputs determine) raises ExactDivisionError.
        """
        if den.is_zero():
            raise ExactDivisionError("division by zero polynomial")
        if self.num_vars != den.num_vars:
            raise ValueError("variable count mismatch")
        dmin = den.min_degree()
        lead = max(m for m in den.coeffs if sum(m) == dmin)
        lead_coeff = den.coeffs[lead]
        rest = sorted((sum(m), m, c) for m, c in den.coeffs.items() if m != lead)
        trunc = _min_trunc(self.trunc, den.trunc)
        cap = trunc if trunc is not None else self.max_degree()
        rem = dict(self.coeffs)
        heap = [(sum(m), tuple(-e for e in m)) for m in rem]
        heapq.heapify(heap)
        quot: dict[Monomial, Fraction] = {}
        while heap:
            deg, neg = heapq.heappop(heap)
            m = tuple(-e for e in neg)
            c = rem.pop(m)
            if not c:
                continue
            if deg > cap:
                if trunc is None:
                    raise ExactDivisionError("nonzero remainder in exact division")
                break
            if deg < dmin:
                raise ExactDivisionError("numerator has terms below divisor degree")
            mq = tuple(a - b for a, b in zip(m, lead))
            if min(mq, default=0) < 0:
                raise ExactDivisionError("nonzero remainder in exact division")
            cq = c / lead_coeff
            quot[mq] = cq
            for dd, md, cd in rest:
                if trunc is not None and deg - dmin + dd > trunc:
                    break
                mm = tuple(a + b for a, b in zip(mq, md))
                if mm in rem:
                    rem[mm] -= cq * cd
                else:
                    rem[mm] = -cq * cd
                    heapq.heappush(heap, (deg - dmin + dd, tuple(-e for e in mm)))
        qtrunc = None if trunc is None else trunc - dmin
        return TruncatedSeries(self.num_vars, quot, qtrunc)

    # ------------------------------------------------------------------
    # calculus / substitution helpers

    def diff(self, var: int) -> "TruncatedSeries":
        out = {}
        for m, c in self.coeffs.items():
            if m[var] == 0:
                continue
            m2 = list(m)
            m2[var] -= 1
            out[tuple(m2)] = c * m[var]
        trunc = None if self.trunc is None else self.trunc - 1
        return TruncatedSeries(self.num_vars, out, trunc)

    def degree_in(self, var: int) -> int:
        return max((m[var] for m in self.coeffs), default=0)

    def substitute_linear(self, matrix: Mat) -> "TruncatedSeries":
        """Replace every x_k at once by the linear form sum_i matrix[k][i] x_i.

        Horner's rule over the moved variables (those whose row is not
        their own unit vector), one after another: in the first moved x_k,
        p = sum_e c_e x_k^e becomes (..(c'_E L_k + c'_{E-1}) L_k ..) + c'_0,
        where c'_e is c_e with the remaining moved variables replaced the
        same way.  So every product is by a linear form and the unmoved
        variables ride along in the coefficients.  The forms are
        homogeneous of degree 1, so no product leaves the truncation.
        """
        n = self.num_vars
        moved = [(k, [(i, a) for i, a in enumerate(matrix[k]) if a])
                 for k in range(n)
                 if any(a != int(i == k) for i, a in enumerate(matrix[k]))]

        def horner(coeffs: dict[Monomial, Fraction], todo) -> dict[Monomial, Fraction]:
            if not todo:
                return coeffs
            (k, form), rest = todo[0], todo[1:]
            by_power: dict[int, dict[Monomial, Fraction]] = {}
            for m, c in coeffs.items():
                by_power.setdefault(m[k], {})[m[:k] + (0,) + m[k + 1:]] = c
            acc: dict[Monomial, Fraction] = {}
            for e in range(max(by_power, default=0), -1, -1):
                nxt: dict[Monomial, Fraction] = {}
                for m, c in acc.items():
                    for i, a in form:
                        mm = m[:i] + (m[i] + 1,) + m[i + 1:]
                        nxt[mm] = nxt.get(mm, 0) + c * a
                if e in by_power:
                    for m, c in horner(by_power[e], rest).items():
                        nxt[m] = nxt.get(m, 0) + c
                acc = nxt
            return acc

        return TruncatedSeries(n, horner(self.coeffs, moved), self.trunc)

    # ------------------------------------------------------------------
    # canonical text form

    def to_text(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for m in sorted(self.coeffs, key=lambda mo: (sum(mo), mo)):
            c = self.coeffs[m]
            factors = [str(c)]
            for i, e in enumerate(m):
                if e:
                    factors.append("x%d^%d" % (i + 1, e))
            parts.append(" * ".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        cap = "" if self.trunc is None else " + O(deg %d)" % (self.trunc + 1)
        return "<series %s%s>" % (self.to_text(), cap)


def positive_root_product(rs: RootSystem, trunc: int | None = None) -> TruncatedSeries:
    """The polynomial prod_{gamma>0} (gamma, X) in the coordinates dual to
    the integer-lattice basis."""
    out = TruncatedSeries.constant(1, rs.rank, trunc)
    for g in rs.positive_roots:
        out = out * TruncatedSeries.linear_form(g, trunc)
    return out


def flag_integral(rs: RootSystem, p: TruncatedSeries) -> Fraction:
    """Fiber integral over the flag variety of a polynomial in the line
    classes e_1..e_l, by localization.

    Restricting e_j at the fixed point w gives the linear form
    (w fundamental_weight_j, X); the alternating sum over the Weyl group is
    divisible by prod (gamma, X) exactly, and the constant term of the
    quotient is the integral.  Components of degree above the number of
    positive roots are rejected; lower components integrate to zero.
    """
    m = len(rs.positive_roots)
    if p.num_vars != rs.rank:
        raise ValueError("polynomial must be in rank-many variables")
    if p.max_degree() > m:
        raise ValueError("degree exceeds the number of positive roots")
    total = TruncatedSeries(rs.rank, {}, None)
    for w in enumerate_weyl_group(rs):
        matrix = tuple(w.act(fw) for fw in rs.fundamental_weights)
        total = total + p.substitute_linear(matrix) * w.sign
    if total.is_zero():
        return Fraction(0)
    den = positive_root_product(rs)
    try:
        quotient = total.divide_exact(den)
    except ExactDivisionError as exc:
        raise InternalInconsistencyError(
            "antisymmetrized polynomial not divisible by the root product") from exc
    return quotient.constant_term()
