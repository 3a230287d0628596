"""One-variable residue sums with a tie-broken sign rule, and the iterated
multidimensional residue attached to the chamber of a vector xi.

The objects are sums of terms q(X) e^{<phase,X>} / prod_j beta_j(X)^{m_j}
with polynomial numerator, rational linear phase and linear-form
denominators.  The class is closed under d/dz and under taking residues
in one variable, which is what makes the iterated residue computable
exactly.

Sign rule for the one-variable operation: every phase is perturbed to
phase + eps tie for one fixed covector, the tie, carried by each term.
A term picks up the residues at every finite pole when its phase
coefficient in the distinguished variable is positive, or zero with a
positive tie coefficient; otherwise it contributes zero.  A zero-phase
term needs no tie when its one pole is x_var = 0 and it decays at least
like 1/x_var^2, since its residue there is zero.  Terms with equal
phase, tie and denominators are merged before the rule is applied --
cancellations between fixed-point contributions are what keep honest
wall configurations finite.  Wherever the tie decided a term,
``res_cone`` evaluates once more with the opposite tie, and two
different values refuse the phase as lying on a wall.

The residue at a pole of order m is one Taylor shift: the numerator is
substituted once, x_var := x_var + b with b the pole location, which puts
D^k q(b) / k! at x_var^k, and Leibniz's rule in closed form combines these
with e^{pt} and the expansions of the other denominators.

``res_cone`` computes in one frame, which xi alone determines: the
standard basis without e_j, followed by xi, for the last j with
xi_j != 0.  The value depends on the chamber of xi, not on the frame,
so no other frame is offered.  ``RatExpTerm.pull_back`` serves this
frame change only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .errors import GenericityError
from .linalg import Mat, Vec, identity, mat_det, primitive_covector, vec_dot, vec_str
from .series import TruncatedSeries

LinearForm = tuple[int, ...]
_TIE_BASE = 1009


@dataclass
class RatExpTerm:
    """q(X) e^{<phase,X>} / prod (beta_j)^{m_j} in canonical form: every
    denominator form is an int tuple with coprime entries and positive
    leading entry, scalars being absorbed into the numerator; proportional
    forms are merged into one multiplicity.  Phase entries are ints or
    Fractions.  The tie is the direction in which the phase is perturbed
    to decide a zero phase coefficient (None: undecided)."""

    num_vars: int
    numerator: TruncatedSeries
    phase: Vec
    dens: tuple[tuple[LinearForm, int], ...]
    tie: Vec | None = None

    def signature(self):
        return (self.phase, self.dens, self.tie)

    def pull_back(self, matrix: Mat) -> "RatExpTerm":
        """The term after the frame change x_k := sum_i matrix[k][i] y_i:
        the phase, the tie and the denominator forms pull back by the
        matrix, the numerator by linear substitution."""
        dens = [(_pull(form, matrix), mult) for form, mult in self.dens]
        if any(not any(form) for form, _ in dens):
            raise GenericityError("pole locations collide after substitution")
        term = make_term(self.num_vars, self.numerator.substitute_linear(matrix),
                         _pull(self.phase, matrix), dens)
        term.tie = None if self.tie is None else _pull(self.tie, matrix)
        return term


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
    """Combine terms sharing (phase, denominators, tie); drop zero numerators."""
    buckets: dict = {}
    order: list = []
    for t in terms:
        key = t.signature()
        if key in buckets:
            buckets[key] = RatExpTerm(t.num_vars, buckets[key].numerator + t.numerator,
                                      t.phase, t.dens, t.tie)
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
    tie = None if term.tie is None else _pull(term.tie, at_pole)
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
        for k in [k for k in range(s + 1) if slices[k]]:  # only powers of t that q(b+t) has
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
            out.append(RatExpTerm(n, n_s * coef, phase, tuple(mults.items()), tie))
    return out


def res_plus_1d(terms: list[RatExpTerm], var: int) -> tuple[list[RatExpTerm], bool]:
    """Residue-sum over the distinguished variable, by the sign rule.

    Returns a sum of terms in the remaining variables (the distinguished
    coordinate is zeroed everywhere), and whether a tie decided a term.
    """
    out: list[RatExpTerm] = []
    tied = False
    for term in merge_terms(terms):
        p = term.phase[var]
        active = [i for i, (form, _) in enumerate(term.dens) if form[var]]
        if p < 0 or not active:
            continue
        if p == 0:
            form, mult = term.dens[active[0]]
            if (len(active) == 1 and not any(form[:var] + form[var + 1:])
                    and term.numerator.degree_in(var) <= mult - 2):
                continue  # its one residue, at x_var = 0, is zero on either side
            if not (term.tie and term.tie[var]):
                raise GenericityError("a zero phase in x_%d is not decided by the tie %s"
                                      % (var, vec_str(term.tie) if term.tie else "(none)"))
            tied = True
            if term.tie[var] < 0:
                continue
        for i in active:
            out.extend(_residue_at_pole(term, var, i))
    # in signature order, so that a frame which gives the same terms also
    # gives the same next step, down to the term an error names
    return sorted(merge_terms(out), key=RatExpTerm.signature), tied


def _frame(xi: Vec) -> Mat:
    """The coordinates of ``res_cone``: columns e_i for i != j, then xi,
    where j is the last index with xi_j != 0."""
    n = len(xi)
    j = max(i for i in range(n) if xi[i])
    cols = [tuple(int(i == k) for i in range(n)) for k in range(n) if k != j] + [tuple(xi)]
    return tuple(tuple(col[i] for col in cols) for i in range(n))


def res_cone(terms: list[RatExpTerm], xi: Vec) -> tuple[Fraction, int]:
    """Iterated residue of a sum of terms over the chamber of xi, at the
    phases perturbed by eps s for the fixed tie s = (1009, 1009^2, ...).

    Computes in the frame of ``_frame(xi)``: the one-variable residue
    innermost in the last coordinate, then outward, times the Jacobian
    |det frame|.  Where the tie decided a term, the residue is evaluated
    once more with -s; two different values mean the phase lies on a
    wall, and it is refused.  The frame of a rank-1 fibration is the
    identity matrix, which skips the pull-back: the terms are canonical,
    so it would only rebuild equal terms.

    Returns (value, 1 if the -s side was evaluated else 0).
    """
    if not terms:
        return Fraction(0), 0
    for form in dict.fromkeys(form for t in terms for form, _ in t.dens):
        if not vec_dot(form, xi):
            raise ValueError("xi pairs to zero with weight %s" % vec_str(form))
    frame = _frame(xi)
    # the frame change is linear and keeps distinct signatures distinct,
    # so merging once here spares both sides the duplicate transforms
    terms = merge_terms(terms)
    tie = tuple(_TIE_BASE ** (i + 1) for i in range(len(xi)))
    value, tied = _side(terms, frame, tie)
    if not tied:
        return value, 0
    other, _ = _side(terms, frame, tuple(-c for c in tie))
    if other != value:
        raise GenericityError("the phase lies on a wall: one-sided values %s and %s"
                              % (value, other))
    return value, 1


def _side(terms: list[RatExpTerm], frame: Mat, tie: Vec) -> tuple[Fraction, bool]:
    """The residue with every term's tie set to `tie` in the given
    coordinates, and whether a tie decided a term on the way."""
    work = [RatExpTerm(t.num_vars, t.numerator, t.phase, t.dens, tie) for t in terms]
    if frame != identity(len(frame)):
        work = [t.pull_back(frame) for t in work]
    tied = False
    for var in range(len(frame) - 1, -1, -1):
        work, step_tied = res_plus_1d(work, var)
        tied |= step_tied
    total = Fraction(0)
    for t in work:
        assert not t.dens and all(c == 0 for c in t.phase)
        total += t.numerator.constant_term()
    return total * abs(mat_det(frame)), tied
