"""One-variable residue sums with a decay sign rule, and the iterated
multidimensional residue attached to a cone.

The objects are sums of terms q(X) e^{<phase,X>} / prod_j beta_j(X)^{m_j}
with polynomial numerator, rational linear phase and linear-form
denominators.  The class is closed under d/dz and under taking residues
in one variable, which is what makes the iterated residue computable
exactly.

Sign rule for the one-variable operation: a positive phase coefficient
in the distinguished variable picks up the residues at every finite
pole, a negative one contributes zero, and the zero-phase marginal case
contributes zero only when the term decays at least like 1/z^2 (then the
residue at infinity vanishes); otherwise it is refused rather than
guessed.  Terms with equal phase and denominators are merged before the
rule is applied -- cancellations between fixed-point contributions are
what keep honest wall configurations finite.

The residue at a pole of order m is one Taylor shift: the numerator is
substituted once, x_var := x_var + b with b the pole location, which puts
D^k q(b) / k! at x_var^k, and Leibniz's rule in closed form combines these
with e^{pt} and the expansions of the other denominators.
``RatExpTerm.pull_back`` serves the frame change of ``res_cone`` only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .errors import ConvergenceError, GenericityError
from .linalg import Mat, Vec, identity, mat_det, primitive_covector, vec_str
from .series import TruncatedSeries

LinearForm = tuple[int, ...]
DEFAULT_SEED = 20270614
DEFAULT_RETRIES = 8


@dataclass
class RatExpTerm:
    """q(X) e^{<phase,X>} / prod (beta_j)^{m_j} in canonical form: every
    denominator form is an int tuple with coprime entries and positive
    leading entry, scalars being absorbed into the numerator; proportional
    forms are merged into one multiplicity.  Phase entries are ints or
    Fractions."""

    num_vars: int
    numerator: TruncatedSeries
    phase: Vec
    dens: tuple[tuple[LinearForm, int], ...]

    def signature(self):
        return (self.phase, self.dens)

    def pull_back(self, matrix: Mat) -> "RatExpTerm":
        """The term after the frame change x_k := sum_i matrix[k][i] y_i:
        the phase and the denominator forms pull back by the matrix, the
        numerator by linear substitution."""
        dens = [(_pull(form, matrix), mult) for form, mult in self.dens]
        if any(not any(form) for form, _ in dens):
            raise GenericityError("pole locations collide after substitution")
        return make_term(self.num_vars, self.numerator.substitute_linear(matrix),
                         _pull(self.phase, matrix), dens)


def _pull(cov, matrix: Mat) -> Vec:
    """The covector cov after x_k := sum_i matrix[k][i] y_i."""
    n = len(cov)
    return tuple(sum(cov[k] * matrix[k][i] for k in range(n) if cov[k]) for i in range(n))


def canonical_dens(dens) -> tuple[tuple[tuple[LinearForm, int], ...], Fraction]:
    """The denominators prod form^mult in canonical form: merged primitive
    forms, and the scalar s with prod form^mult = s prod canon^mult."""
    num = den = 1
    merged: dict[LinearForm, int] = {}
    for form, mult in dens:
        canon, scalar = primitive_covector(form)
        num, den = num * scalar.numerator ** mult, den * scalar.denominator ** mult
        merged[canon] = merged.get(canon, 0) + mult
    return tuple(sorted(merged.items())), Fraction(num, den)


def make_term(num_vars: int, numerator: TruncatedSeries, phase, dens) -> RatExpTerm:
    """Build a term in canonical form (normalized, merged denominators)."""
    dens, scale = canonical_dens(dens)
    return RatExpTerm(num_vars, numerator.as_polynomial() * (1 / scale), tuple(phase), dens)


def merge_terms(terms: list[RatExpTerm]) -> list[RatExpTerm]:
    """Combine terms sharing (phase, denominators); drop zero numerators."""
    buckets: dict = {}
    order: list = []
    for t in terms:
        key = t.signature()
        if key in buckets:
            buckets[key] = RatExpTerm(t.num_vars, buckets[key].numerator + t.numerator,
                                      t.phase, t.dens)
        else:
            buckets[key] = t
            order.append(key)
    return [buckets[k] for k in order if not buckets[k].numerator.is_zero()]


def _bumps(active: list, total: int):
    """Vectors summing to `total`, zero where not `active`, lex descending."""
    if not active:
        if not total:
            yield ()
        return
    for first in (range(total, -1, -1) if active[0] else (0,)):
        for tail in _bumps(active[1:], total - first):
            yield (first,) + tail


def _residue_at_pole(term: RatExpTerm, var: int, pole_index: int) -> list[RatExpTerm]:
    """Residue in x_var at the pole b(y) of the form a (x_var - b) of order m:
    [t^(m-1)] q(b+t) e^{pt} / (a^m prod_j beta_j(b+t)^{m_j}), p = phase[var].
    With beta_j(b) = s_j c_j, c_j canonical, an active beta_j(b+t)^{-m_j} is
    sum_i C(m_j+i-1, i) (-a_j/s_j)^i t^i / (s_j^{m_j} c_j^{m_j+i}): one term
    per bump vector i with |i| < m (|i| ascending, then i descending), with
    numerator N_{m-1-|i|} = sum_k [t^k] q(b+t) p^(m-1-|i|-k)/(m-1-|i|-k)!."""
    n, (form, mult) = term.num_vars, term.dens[pole_index]
    a, p = form[var], Fraction(term.phase[var])
    rest = term.dens[:pole_index] + term.dens[pole_index + 1:]
    at_pole = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    at_pole[var] = tuple(0 if i == var else Fraction(-form[i], a) for i in range(n))
    pulled = [_pull(f, at_pole) for f, _ in rest]
    if any(not any(f) for f in pulled):
        raise GenericityError("pole locations collide after substitution")
    canon = [primitive_covector(f) for f in pulled]
    forms, base = sorted({c for c, _ in canon}), Fraction(1, a ** mult)
    for (_, scalar), (_, m) in zip(canon, rest):
        base /= scalar ** m
    phase = _pull(term.phase, at_pole)
    # x_var := x_var + b(y) puts D^k q(b) / k! at x_var^k
    at_pole[var] = at_pole[var][:var] + (1,) + at_pole[var][var + 1:]
    shifted = term.numerator.substitute_linear(at_pole)
    slices = [{} for _ in range(mult)]
    for mono, c in shifted.nums.items():
        if mono[var] < mult:
            slices[mono[var]][mono[:var] + (0,) + mono[var + 1:]] = c
    out, active = [], [f[var] != 0 for f, _ in rest]
    for total in range(mult if any(active) else 1):
        s = mult - 1 - total  # N_s in integers over den Q^s s!, with p = P/Q
        nums: dict = {}
        for k in range(s + 1):
            w = p.numerator ** (s - k) * p.denominator ** k * factorial(s) // factorial(s - k)
            for mono, c in slices[k].items():
                nums[mono] = nums.get(mono, 0) + c * w
        n_s = TruncatedSeries._of(n, nums, shifted.den * p.denominator ** s * factorial(s), None)
        for bump in _bumps(active, total):
            coef, mults = base, dict.fromkeys(forms, 0)
            for (c, scalar), (f, m), i in zip(canon, rest, bump):
                if i:
                    coef *= (-f[var] / scalar) ** i * comb(m + i - 1, i)
                mults[c] += m + i
            out.append(RatExpTerm(n, n_s * coef, phase, tuple(mults.items())))
    return out


def res_plus_1d(terms: list[RatExpTerm], var: int) -> list[RatExpTerm]:
    """Residue-sum over the distinguished variable, by the sign rule.

    Returns a sum of terms in the remaining variables (the distinguished
    coordinate is zeroed everywhere).
    """
    out: list[RatExpTerm] = []
    for term in merge_terms(terms):
        p = term.phase[var]
        active = [i for i, (form, _) in enumerate(term.dens) if form[var] != 0]
        if p < 0:
            continue
        if p == 0:
            den_deg = sum(term.dens[i][1] for i in active)
            num_deg = term.numerator.degree_in(var) if not term.numerator.is_zero() else 0
            if num_deg <= den_deg - 2:
                continue
            raise ConvergenceError(
                "zero-phase term decays too slowly (numerator degree %d, denominator %d)"
                % (num_deg, den_deg))
        for i in active:
            out.extend(_residue_at_pole(term, var, i))
    # in signature order, so that a frame which gives the same terms also
    # gives the same next step, down to the term an error names
    return sorted(merge_terms(out), key=RatExpTerm.signature)


@dataclass(frozen=True)
class Cone:
    """The chamber {X : beta_i(X) > 0} cut out by sign-adjusted weights."""

    weights: tuple[Vec, ...]
    xi: Vec

    def contains(self, v: Vec) -> bool:
        return all(sum(b * x for b, x in zip(form, v)) > 0 for form in self.weights)


def build_cone(weights, xi) -> Cone:
    """Flip each weight so it pairs positively with xi; error on a zero
    pairing (xi fails to be generic).  Entries keep their type, so an int
    cone stays in integers."""
    xi = tuple(xi)
    flipped = []
    for w in weights:
        w = tuple(w)
        val = sum(a * b for a, b in zip(w, xi))
        if val == 0:
            raise GenericityError("xi pairs to zero with weight %s" % vec_str(w))
        flipped.append(tuple(-c for c in w) if val < 0 else w)
    return Cone(weights=tuple(flipped), xi=xi)


def _default_coords(cone: Cone, n: int) -> Mat:
    """Basis whose last vector is xi (interior to the cone), completed by
    standard basis vectors; columns are the basis vectors."""
    from itertools import combinations

    std = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    for combo in combinations(range(n), n - 1):
        cols = [std[j] for j in combo] + [cone.xi]
        mat = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
        if mat_det(mat) != 0:
            return mat
    raise GenericityError("could not complete xi to a basis")  # pragma: no cover


def _rational_rotation(rng: random.Random, size: int) -> Mat:
    """Exact rational rotation from a few Givens factors with Pythagorean
    cosine/sine pairs."""
    rows = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
    for (i, j) in pairs:
        m = rng.randrange(2, 8)
        nn = rng.randrange(1, m)
        c = Fraction(m * m - nn * nn, m * m + nn * nn)
        s = Fraction(2 * m * nn, m * m + nn * nn)
        for row in rows:
            row[i], row[j] = c * row[i] - s * row[j], s * row[i] + c * row[j]
    return tuple(tuple(r) for r in rows)


def _perturbed_coords(base: Mat, attempt: int) -> Mat:
    """The frame of one attempt: the given one at attempt 0, otherwise its
    first n-1 basis vectors rotated among themselves by a rotation drawn
    from DEFAULT_SEED and the attempt, the last (cone) vector fixed."""
    if attempt == 0:
        return base
    rng = random.Random((DEFAULT_SEED * 1000003 + attempt) & 0x7FFFFFFF)
    head = len(base) - 1
    rot = _rational_rotation(rng, head)
    return tuple(tuple(sum(row[b] * rot[a][b] for b in range(head)) for a in range(head))
                 + (row[head],) for row in base)


def res_cone(terms: list[RatExpTerm], cone: Cone,
             coords: Mat | None = None) -> tuple[Fraction, int]:
    """Iterated residue of a sum of terms over the cone.

    Applies the one-variable residue innermost in the last coordinate,
    then outward, and multiplies by the Jacobian |det coords| so the
    result does not depend on the admissible coordinate choice.  On a
    genericity failure in three or more variables the first n-1 coordinate
    vectors are rotated among themselves by a rotation drawn from
    DEFAULT_SEED, up to DEFAULT_RETRIES times; in one or two variables the
    first failure is final.  The value does not depend on the frame, so no
    caller chooses the draw.  A frame that is the identity matrix (as on
    every rank-1 fibration) uses the merged terms as they are: they are
    canonical, so pulling them back would only rebuild equal terms.

    Returns (value, re-drawn frames used).
    """
    if not terms:
        return Fraction(0), 0
    n = terms[0].num_vars
    base = coords if coords is not None else _default_coords(cone, n)
    if len(base) != n:
        raise ValueError("coordinate matrix has wrong size")
    last = tuple(base[i][n - 1] for i in range(n))
    if not cone.contains(last):
        raise ValueError("last coordinate vector must lie inside the cone")
    if mat_det(base) == 0:
        raise ValueError("coordinate vectors must form a basis")
    # the frame change is linear and keeps distinct signatures distinct,
    # so merging once here spares every attempt the duplicate transforms
    terms = merge_terms(terms)
    failure: Exception | None = None
    tried = 0
    for attempt in range(DEFAULT_RETRIES + 1):
        frame = _perturbed_coords(base, attempt)
        try:
            work = terms if frame == identity(n) else [t.pull_back(frame) for t in terms]
            for var in range(n - 1, -1, -1):
                work = res_plus_1d(work, var)
            total = Fraction(0)
            for t in work:
                assert not t.dens and all(c == 0 for c in t.phase)
                total += t.numerator.constant_term()
            jac = mat_det(frame)
            return total * abs(jac), attempt
        except (ConvergenceError, GenericityError) as exc:
            failure, tried = exc, attempt + 1
            # in 1 or 2 variables there is no second head vector to rotate
            # with, so every re-drawn frame is the given one
            if n < 3:
                break
    raise GenericityError(
        "residue genericity exhausted after %d attempts: %s" % (tried, failure))
