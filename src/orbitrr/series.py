"""Sparse multivariate polynomials and truncated power series over the
rationals.

One class covers both: ``trunc=None`` means an honest polynomial (no
degree cap, multiplication is exact), an integer ``trunc=N`` means a
power series known modulo total degree > N.  Coefficients are exact (no
floats): integer numerators keyed by exponent tuples over one positive
denominator, in lowest terms with no zero numerators, so equal series have
equal fields; ``coeffs`` gives the rationals.  Internal results are built
by the trusted constructor ``_of``, which only reduces to lowest terms.

Sums of exponentials of linear forms, such as the alternating numerator
and denominator of the Weyl character formula, are built in closed form
by ``TruncatedSeries.exp_sum``, one coefficient at a time in integers
over trunc!, which every a! with |a| <= trunc divides.

There is one division, ``divide_exact``: the divisor may be a polynomial
or a truncated series.  It is one long division under a local degree
order, led by the divisor's lowest homogeneous part (degree dmin), as in
Mora's normal form for power series; the quotient is truncated at
min(num.trunc, den.trunc) - dmin, a polynomial only when both inputs are.
On the numerators, the only denominators a quotient gains are powers of
the divisor's lead, kept as exponents.  ``inverse`` is 1 divided by the
series.  There is one change of variables, ``substitute_linear``, by
Horner's rule over the variables that move.

The flag-variety fiber integral also lives here: it is a pure identity
on antisymmetrized polynomials and is the self-check that exact division
by the product of positive roots is available.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import factorial, gcd, lcm

from .errors import ExactDivisionError, InternalInconsistencyError
from .linalg import Mat
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

    __slots__ = ("num_vars", "trunc", "nums", "den")

    def __init__(self, num_vars: int, coeffs=None, trunc: int | None = None):
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
        # over the lcm of reduced denominators the numerators are coprime to it
        den = lcm(*(c.denominator for c in clean.values()))
        self.num_vars, self.trunc, self.den = num_vars, trunc, den
        self.nums = {m: c.numerator * (den // c.denominator) for m, c in clean.items()}

    @classmethod
    def _of(cls, num_vars: int, nums: dict, den: int, trunc: int | None) -> "TruncatedSeries":
        """Trusted constructor: int numerators (zeros allowed) over a positive
        den, monomials of the right arity inside trunc."""
        nums = {m: c for m, c in nums.items() if c}
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {m: c // g for m, c in nums.items()}
        out = object.__new__(cls)
        out.num_vars, out.trunc, out.nums, out.den = num_vars, trunc, nums, den
        return out

    @property
    def coeffs(self) -> dict[Monomial, Fraction]:
        """The rational coefficients, as a new dict on every read."""
        den = self.den
        return {m: Fraction(c, den) for m, c in self.nums.items()}

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def constant(cls, value, num_vars: int, trunc: int | None = None) -> "TruncatedSeries":
        value = Fraction(value)
        nums = {(0,) * num_vars: value.numerator} if trunc is None or trunc >= 0 else {}
        return cls._of(num_vars, nums, value.denominator, trunc)

    @classmethod
    def linear_form(cls, cov, trunc: int | None = None) -> "TruncatedSeries":
        n = len(cov)
        return cls(n, {tuple(int(i == j) for j in range(n)): c for i, c in enumerate(cov)}, trunc)

    @classmethod
    def exp_sum(cls, terms, trunc: int) -> "TruncatedSeries":
        """sum_j c_j e^{<v_j, X>} over pairs (v_j, c_j), truncated at total
        degree trunc.

        Built one coefficient at a time: the coefficient of X^a is
        (sum_j c_j prod_i v_{j,i}^{a_i}) / prod_i a_i!.  With v_j = v'_j / q
        and c_j = c'_j / r for integers q and r, the sum over the v'_j and
        c'_j is an int, and every coefficient is an integer over
        r q^trunc trunc!, which a! q^|a| divides.
        """
        terms = [(tuple(v), c) for v, c in terms]
        if not terms:
            raise ValueError("exp_sum needs at least one term")
        n = len(terms[0][0])
        if any(len(v) != n for v, _ in terms):
            raise ValueError("exp_sum vectors differ in length")
        if trunc is None:
            raise ValueError("exp_sum needs a truncation degree")
        q = lcm(*(x.denominator for v, _ in terms for x in v))
        r = lcm(*(c.denominator for _, c in terms))
        columns = [[int(v[i] * q) for v, _ in terms] for i in range(n)]
        top = factorial(max(trunc, 0))
        nums: dict[Monomial, int] = {}

        def fill(prefix: Monomial, partial: list, left: int, denom: int) -> None:
            # partial[j] = c'_j * prod over the exponents in prefix of v'_{j,i}^{a_i}
            i = len(prefix)
            if i == n:
                total = sum(partial)
                if total:
                    nums[prefix] = total * q**left * (top // denom)
                return
            for a in range(left + 1):
                if a:
                    partial = [p * x for p, x in zip(partial, columns[i])]
                    denom *= a
                fill(prefix + (a,), partial, left - a, denom)

        fill((), [int(c * r) for _, c in terms], trunc, 1)
        return cls._of(n, nums, r * q**max(trunc, 0) * top, trunc)

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
                and self.den == other.den and self.nums == other.nums)

    def is_zero(self) -> bool:
        return not self.nums

    def constant_term(self) -> Fraction:
        return Fraction(self.nums.get((0,) * self.num_vars, 0), self.den)

    def max_degree(self) -> int:
        return max((sum(m) for m in self.nums), default=0)

    def min_degree(self) -> int:
        return min((sum(m) for m in self.nums), default=0)

    def homogeneous_part(self, degree: int) -> "TruncatedSeries":
        part = {m: c for m, c in self.nums.items() if sum(m) == degree}
        return TruncatedSeries._of(self.num_vars, part, self.den, self.trunc)

    def truncate(self, trunc: int | None) -> "TruncatedSeries":
        kept = {m: c for m, c in self.nums.items() if trunc is None or sum(m) <= trunc}
        return TruncatedSeries._of(self.num_vars, kept, self.den, trunc)

    def as_polynomial(self) -> "TruncatedSeries":
        return TruncatedSeries._of(self.num_vars, self.nums, self.den, None)

    # ------------------------------------------------------------------
    # ring operations

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries.constant(other, self.num_vars, self.trunc)
        if self.num_vars != other.num_vars:
            raise ValueError("variable count mismatch")
        trunc = _min_trunc(self.trunc, other.trunc)
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        out = {m: c * sa for m, c in self.nums.items()}
        for m, c in other.nums.items():
            out[m] = out.get(m, 0) + c * sb
        if trunc is not None and (self.trunc != trunc or other.trunc != trunc):
            out = {m: c for m, c in out.items() if sum(m) <= trunc}
        return TruncatedSeries._of(self.num_vars, out, den, trunc)

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            return TruncatedSeries._of(self.num_vars, {m: c * p for m, c in self.nums.items()},
                                       self.den * other.denominator, self.trunc)
        if self.num_vars != other.num_vars:
            raise ValueError("variable count mismatch")
        trunc = _min_trunc(self.trunc, other.trunc)
        right = sorted((sum(m), m, c) for m, c in other.nums.items())
        out: dict[Monomial, int] = {}
        for m1, c1 in self.nums.items():
            left = None if trunc is None else trunc - sum(m1)
            for d2, m2, c2 in right:
                if left is not None and d2 > left:
                    break
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
        return TruncatedSeries._of(self.num_vars, out, self.den * other.den, trunc)

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

        On the numerators, the divisor's over their content (signed to make
        the lead numerator L positive): an entry (c, e) stands for c / L^e.
        """
        if den.is_zero():
            raise ExactDivisionError("division by zero polynomial")
        if self.num_vars != den.num_vars:
            raise ValueError("variable count mismatch")
        dmin = den.min_degree()
        lead = max(m for m in den.nums if sum(m) == dmin)
        content = gcd(*den.nums.values()) * (1 if den.nums[lead] > 0 else -1)
        lead_num = den.nums[lead] // content
        rest = sorted((sum(m), m, c // content) for m, c in den.nums.items() if m != lead)
        trunc = _min_trunc(self.trunc, den.trunc)
        cap = trunc if trunc is not None else self.max_degree()
        rem = {m: (c, 0) for m, c in self.nums.items()}
        heap = [(sum(m), tuple(-e for e in m)) for m in rem]
        heapq.heapify(heap)
        quot: dict[Monomial, tuple[int, int]] = {}
        while heap:
            deg, neg = heapq.heappop(heap)
            m = tuple(-e for e in neg)
            c, e = rem.pop(m)
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
            if c % lead_num:
                e += 1
            else:
                c //= lead_num
            quot[mq] = (c, e)
            for dd, md, cd in rest:
                if trunc is not None and deg - dmin + dd > trunc:
                    break
                mm = tuple(a + b for a, b in zip(mq, md))
                if mm not in rem:
                    heapq.heappush(heap, (deg - dmin + dd, tuple(-x for x in mm)))
                c2, e2 = rem.get(mm, (0, e))
                e3 = max(e, e2)
                rem[mm] = (c2 * lead_num ** (e3 - e2) - c * cd * lead_num ** (e3 - e), e3)
        top = max((e for _, e in quot.values()), default=0)
        # self / den = (den.den / (self.den content)) (sum_q c L^(top-e)) / L^top
        scale = den.den if content > 0 else -den.den
        nums = {mq: c * lead_num ** (top - e) * scale for mq, (c, e) in quot.items()}
        qtrunc = None if trunc is None else trunc - dmin
        return TruncatedSeries._of(self.num_vars, nums,
                                   self.den * abs(content) * lead_num**top, qtrunc)

    # ------------------------------------------------------------------
    # substitution helpers

    def degree_in(self, var: int) -> int:
        return max((m[var] for m in self.nums), default=0)

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
        moved = [k for k in range(n)
                 if any(a != int(i == k) for i, a in enumerate(matrix[k]))]
        q = lcm(*(a.denominator for k in moved for a in matrix[k]))
        todo = [(k, [(i, int(a * q)) for i, a in enumerate(matrix[k]) if a]) for k in moved]
        # with x_k -> L_k / q, a monomial of moved degree d gains 1/q^d:
        # scaled by q^(top - d), all share the one denominator q^top
        degs = {m: sum(m[k] for k in moved) for m in self.nums}
        top = max(degs.values(), default=0)
        nums = {m: c * q ** (top - degs[m]) for m, c in self.nums.items()}

        def horner(coeffs: dict[Monomial, int], todo) -> dict[Monomial, int]:
            if not todo:
                return coeffs
            (k, form), rest = todo[0], todo[1:]
            by_power: dict[int, dict[Monomial, int]] = {}
            for m, c in coeffs.items():
                by_power.setdefault(m[k], {})[m[:k] + (0,) + m[k + 1:]] = c
            acc: dict[Monomial, int] = {}
            for e in range(max(by_power, default=0), -1, -1):
                nxt: dict[Monomial, int] = {}
                for m, c in acc.items():
                    for i, a in form:
                        mm = m[:i] + (m[i] + 1,) + m[i + 1:]
                        nxt[mm] = nxt.get(mm, 0) + c * a
                if e in by_power:
                    for m, c in horner(by_power[e], rest).items():
                        nxt[m] = nxt.get(m, 0) + c
                acc = nxt
            return acc

        return TruncatedSeries._of(n, horner(nums, todo), self.den * q**top, self.trunc)

    # ------------------------------------------------------------------
    # canonical text form

    def to_text(self) -> str:
        if not self.nums:
            return "0"
        parts = []
        for m in sorted(self.nums, key=lambda mo: (sum(mo), mo)):
            factors = [str(Fraction(self.nums[m], self.den))]
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
