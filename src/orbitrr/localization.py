"""Localization pipelines for Riemann-Roch numbers.

Three routes live here, sharing only the root-system data:

* ``rr_orbit_fixedpoint``: the fixed-point sum for a single coadjoint
  orbit along a generic one-parameter direction, whose limit u = e^t -> 1
  is one integer binomial sum over the Weyl group; the lower-order sums
  must vanish, or the sum has a pole at u = 1.
* ``fibration_rr_residue``: the iterated-residue route for a fibration
  with fiber a coadjoint orbit, for A1 and A2 (the groups the tensor
  oracle proves).  The fixed points are folded by (moment, tangent-weight
  multiset), so checks, phases and cone run once per key, in integer
  Dynkin labels; the integrand sums the (key, Weyl element)
  contributions per (phase, multiset).  Each contribution's orbit factor
  times Todd units t / (1 - e^{-t}) is one product per (multiset, Weyl
  element), memoised in one bounded per-process cache keyed by group and
  multiset: a sign-normalised multiset's products come from its Todd
  polynomial by the Weyl denominator identity, any other's from its
  sign-normalised entry by Todd(-t) = e^{-t} Todd(t).  The constant of the
  residue theorem is derived, not fitted: det(Cartan) / |W|, the 1/|W|
  of nonabelian localization times the order of the centre, which acts
  trivially when every tangent weight lies in the root lattice.  The
  route refuses other tangent weights, reduced spaces of negative
  expected dimension, whose raw residue is 0 whatever the true value
  is, a non-dominant Lambda, and a Lambda on a wall, where the residue
  fails or averages two chambers into a non-integer.
* ``fibration_rr_base``: the base-integral route, pairing the character
  class (expressed in invariant generators) against an intersection
  oracle for the reduced space at zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import count, product as iproduct
from math import comb, factorial, prod

from .characters import character_series, check_weight, weyl_denominator
from .errors import (ConfigurationError, DegenerateOrbitError, GenericityError,
                     InadmissibleInputError, InternalInconsistencyError, SingularValueError)
from .invariants import express_invariant
from .linalg import Vec, mat_det, num_str, vec, vec_dot, vec_str, vec_sub
from .residues import RatExpTerm, canonical_dens, res_cone
from .roots import RootSystem, WeylElement, enumerate_weyl_group, fundamental_degrees
from .series import TruncatedSeries, positive_root_product


@dataclass(frozen=True)
class FixedPointDatum:
    """One isolated fixed point: moment value and tangent weights as
    covectors in the coordinates dual to the integer-lattice basis, plus
    the rational value the symplectic class pairs to at the point (1 for
    honest isolated fixed points)."""

    label: str
    moment: Vec
    tangent_weights: tuple[Vec, ...]
    symplectic_factor: int | Fraction = 1

    def __post_init__(self):
        if not all(map(any, self.tangent_weights)):
            raise ValueError("tangent weights must be nonzero (isolated fixed points)")


def product_orbit_fixed_data(rs: RootSystem, factor_labels) -> tuple[FixedPointDatum, ...]:
    """Fixed-point data of a product of coadjoint orbits.  The orbit through
    mu has one fixed point per distinct Weyl image w mu, with tangent
    weights the w-images of the positive roots that pair positively with
    mu; a point on a wall has a smaller orbit, with fewer fixed points and
    fewer tangent weights.  Over the product, moments add and tangent
    weights concatenate."""
    group = enumerate_weyl_group(rs)
    factors = []
    for labels in factor_labels:
        mu = vec(labels)
        roots = [g for g in rs.positive_roots if rs.pairing(g, mu) > 0]
        fixed: dict = {}
        for w in group:
            img = w.act(mu)
            if img not in fixed:
                fixed[img] = (vec_str(img), tuple(w.act(g) for g in roots))
        factors.append([(img, text, tangent) for img, (text, tangent) in fixed.items()])
    data = []
    for combo in iproduct(*factors):
        data.append(FixedPointDatum(
            label="x".join(text for _, text, _ in combo),
            moment=vec(sum(img[i] for img, _, _ in combo) for i in range(rs.rank)),
            tangent_weights=tuple(w for _, _, tangent in combo for w in tangent)))
    return tuple(data)


# ----------------------------------------------------------------------
# fixed-point route for a single orbit


def _generic_direction(covectors, rank: int) -> tuple[int, ...]:
    """Deterministic integer direction pairing nonzero with every given
    covector; powers of an increasing base eventually clear the finitely
    many walls."""
    for base in count(2):
        xi = tuple(base**i for i in range(rank))
        if all(vec_dot(cov, xi) for cov in covectors):
            return xi


def rr_orbit_fixedpoint(rs: RootSystem, labels, k: int) -> int:
    """Riemann-Roch number of the k-th power of the prequantum bundle on
    the orbit through a dominant integral weight, by the fixed-point sum

        sum over w of e^{k<w lam, X>} prod (1 - e^{-<w gamma, X>})^{-1}

    at X = t xi for a generic integer direction xi.  With u = e^t and
    eta_w = w^T xi, the point w contributes sign_w u^{e_w} / prod (u^n - 1)
    over n = |<gamma, xi>|, where e_w = k<lam, eta_w> plus the positive
    <gamma, eta_w>, and sign_w = (-1)^(number of negative ones).  With
    s = min e_w and m positive roots, the limit u -> 1 is

        sum_w sign_w C(e_w - s, m) / prod n,

    and the same sums with j < m in place of m must vanish (no pole at 1).
    """
    labels = check_weight(rs, labels, dominant=True, integral=True)
    if k < 0:
        raise ValueError("k must be nonnegative")
    xi = _generic_direction(rs.positive_roots, rs.rank)

    base_mults = sorted(abs(sum(c * x for c, x in zip(g, xi))) for g in rs.positive_roots)
    exps = []
    for w in enumerate_weyl_group(rs):
        # <w v, xi> = <v, eta> with eta = w^T xi
        eta = tuple(sum(row[j] * x for row, x in zip(w.matrix, xi)) for j in range(rs.rank))
        pairings = [sum(a * b for a, b in zip(g, eta)) for g in rs.positive_roots]
        if sorted(abs(c) for c in pairings) != base_mults:
            raise InternalInconsistencyError("denominator multiset varies across fixed points")
        e = k * sum(a * b for a, b in zip(labels, eta)) + sum(c for c in pairings if c > 0)
        exps.append((e, (-1) ** sum(c < 0 for c in pairings)))

    shift = min(e for e, _ in exps)
    m = len(rs.positive_roots)
    for j in range(m):
        if sum(sign * comb(e - shift, j) for e, sign in exps):
            raise InternalInconsistencyError("fixed-point sum has a pole at u = 1")
    value = Fraction(sum(sign * comb(e - shift, m) for e, sign in exps), prod(base_mults))
    if value.denominator != 1 or value < 0:
        raise InternalInconsistencyError("fixed-point limit %s is not a nonneg integer"
                                         % num_str(value))
    return int(value)


def rr_leading_coefficient(rs: RootSystem, labels) -> Fraction:
    """Leading coefficient of the polynomial k -> rr_orbit_fixedpoint(k),
    by exact finite differences on k = 0..(number of positive roots)."""
    labels = check_weight(rs, labels, dominant=True, integral=True)
    if not rs.is_regular(labels):
        raise DegenerateOrbitError("leading coefficient needs a regular weight")
    m = len(rs.positive_roots)
    values = [Fraction(rr_orbit_fixedpoint(rs, labels, k)) for k in range(m + 1)]
    for _ in range(m):
        values = [b - a for a, b in zip(values, values[1:])]
    acc = values[0]
    for i in range(2, m + 1):
        acc /= i
    return acc


# ----------------------------------------------------------------------
# the Todd-restriction identity behind the residue assembly


def todd_restriction_identity(rs: RootSystem, w: WeylElement, trunc: int) -> bool:
    """Check, as truncated series after factoring out the product of the
    positive roots, that

      sign(w) prod (1 - e^{-<w gamma, X>})^{-1}
        = e^{<w rho, X>} / prod (e^{<gamma,X>/2} - e^{-<gamma,X>/2}).
    """
    m = len(rs.positive_roots)
    work = trunc + m
    root_poly = positive_root_product(rs)
    lhs_prod = TruncatedSeries.constant(1, rs.rank, work)
    for g in rs.positive_roots:
        cov = w.act(g)
        lhs_prod = lhs_prod * (1 - TruncatedSeries.exp_linear(tuple(-c for c in cov), work))
    lhs = root_poly.divide_exact(lhs_prod) * w.sign
    rhs = ((root_poly * TruncatedSeries.exp_linear(w.act(rs.rho), work))
           .divide_exact(weyl_denominator(rs, work)))
    return lhs == rhs


# ----------------------------------------------------------------------
# residue route

# the groups on which the residue route matches the tensor oracle
PROVEN_GROUPS = ("A1", "A2")


def _check_regularity(moments, rs: RootSystem, lam_cov: Vec):
    """Zero must be a regular value of the shifted moment map.  An exact
    collision of a fixed-point moment value with a Weyl image of Lambda is
    fatal when that value is extreme in the moment image (rank-1 test);
    other coincidences merge into zero-phase terms that the residue sign
    rule disposes of, or, on a wall, that the residue route refuses."""
    orbit = {w.act(lam_cov) for w in enumerate_weyl_group(rs)}
    collisions = [mu for mu in moments if mu in orbit]
    if not collisions:
        return
    if rs.rank == 1:
        values = [mu[0] for mu in moments]
        lo, hi = min(values), max(values)
        if all(lo < mu[0] < hi for mu in collisions):
            return
    raise SingularValueError(
        "fixed-point moment value coincides with a Weyl image of Lambda "
        "on the boundary of the moment image")


def _fold(points) -> dict:
    """(moment, sorted tangent weights) -> [first point with that key, sum
    of its nonzero symplectic factors].  The sum is None when every factor
    is 0: those points add no term, while factors that cancel still add
    (zero) terms."""
    folded: dict = {}
    for pt in points:
        entry = folded.setdefault((pt.moment, tuple(sorted(pt.tangent_weights))), [pt, None])
        if pt.symplectic_factor:
            entry[1] = (entry[1] or 0) + pt.symplectic_factor
    return folded


@lru_cache(maxsize=256)
def _tangent_products(rs: RootSystem, tangent: tuple[Vec, ...]):
    """For one sorted tangent-weight multiset: its canonical denominators
    and, per Weyl element w, the orbit factor prod(1 - e^{-<w gamma,X>})
    times the Todd units, scale absorbed, up to degree len(tangent) - rank.
    If every weight has positive first nonzero entry, the orbit factor is
    sign(w) e^{<rho - w rho,X>} sum_u sign(u) e^{<u rho - rho,X>} (Weyl
    denominator identity).  Otherwise, by Todd(-t) = e^{-t} Todd(t), each
    product is (-1)^f e^{<s,X>} times the entry with those f weights, of
    sum s, negated: one recursion into the sign-normalised multiset."""
    cap = len(tangent) - rs.rank
    flipped = [t for t in tangent if next(c for c in t if c) < 0]
    if flipped:
        positive = sorted(tuple(-c for c in t) if t in flipped else t for t in tangent)
        canon, products = _tangent_products(rs, tuple(positive))
        shift = TruncatedSeries.exp_linear(tuple(map(sum, zip(*flipped))), cap)
        return canon, tuple((shift * p * (-1) ** len(flipped)).as_polynomial() for p in products)
    canon, scale = canonical_dens([(t, 1) for t in tangent])
    group = enumerate_weyl_group(rs)
    poly = TruncatedSeries.exp_sum([(vec_sub(w.act(rs.rho), rs.rho), w.sign) for w in group],
                                   cap) * (1 / scale)
    for t in tangent:
        one_minus = 1 - TruncatedSeries.exp_linear(tuple(-c for c in t), cap + 1)
        poly = poly * TruncatedSeries.linear_form(t, cap + 1).divide_exact(one_minus)
    return canon, tuple((TruncatedSeries.exp_sum([(vec_sub(rs.rho, w.act(rs.rho)), w.sign)], cap)
                         * poly).as_polynomial() for w in group)


def _fibration_terms(folded: dict, rs: RootSystem, lam: Vec, k: int):
    """RatExpTerms of the residue integrand, from points folded by _fold,
    one phase loop per key.  A fixed point F and a Weyl element w
    contribute phase k(mu(F) - w Lambda), numerator the degree-truncated
    product of the orbit factor prod(1 - e^{-<w gamma,X>}) with the
    tangent Todd units at F, and denominators the tangent weights at F.
    The contributions are summed per (phase, tangent-weight multiset), one
    term per sum.  All points have one dimension, so one truncation degree
    serves them all."""
    kw_lam = [vec(k * c for c in w.act(lam)) for w in enumerate_weyl_group(rs)]
    groups: dict = {}
    for (moment, tangent), (_, factor) in folded.items():
        if factor is None:
            continue
        canon, products = _tangent_products(rs, tangent)
        k_moment = vec(k * c for c in moment)
        for i, w_lam in enumerate(kw_lam):
            # a group whose contributions cancel still yields a (zero) term,
            # so the generic direction keeps avoiding its phase
            phase = tuple(a - b for a, b in zip(k_moment, w_lam))
            scalars = groups.setdefault((phase, tangent), (canon, products, {}))[2]
            scalars[i] = scalars.get(i, 0) + factor
    return [RatExpTerm(rs.rank, sum((products[i] * c for i, c in scalars.items()),
                                    TruncatedSeries(rs.rank)), phase, canon)
            for (phase, _), (canon, products, scalars) in groups.items()]


def _check_proven(rs: RootSystem) -> None:
    """Only A1 and A2 are accepted: on B2 and G2 the raw values imply a
    constant that changes from case to case, so no constant maps them to
    the tensor oracle."""
    if rs.label not in PROVEN_GROUPS:
        raise ConfigurationError("the residue route is proven for %s only, not %s"
                                 % (" and ".join(PROVEN_GROUPS), rs.label))


def raw_fibration_residue(points, rs: RootSystem, lam_labels, k: int) -> Fraction:
    """Iterated residue of the fibration integrand, before the constant
    det(Cartan) / |W|."""
    _check_proven(rs)
    if k < 1:
        raise ValueError("the residue route needs k >= 1, got %s" % k)
    lam = vec(lam_labels)
    points = tuple(points)
    if not points:
        raise ValueError("need at least one fixed point")
    sizes = {len(pt.tangent_weights) for pt in points}
    if len(sizes) != 1:
        raise ValueError("fixed points disagree on the manifold dimension")
    # complex dimension of the reduced space: below 0 every nonempty level
    # set is singular, and the residue is 0 whatever the true value is
    reduced_dim = sizes.pop() - rs.rank - len(rs.positive_roots)
    if reduced_dim < 0:
        raise SingularValueError(
            "the reduced space has negative expected dimension %d" % reduced_dim)
    if not rs.is_regular(lam):
        raise DegenerateOrbitError("Lambda lies on a Weyl wall")
    # at a non-dominant Lambda the residue is not the Riemann-Roch number
    check_weight(rs, lam, dominant=True)
    if any((k * c).denominator != 1 for c in lam):
        raise InadmissibleInputError("k Lambda is not a weight")
    folded = _fold(points)
    # each check once per distinct moment, naming its first point
    firsts: dict = {}
    for (moment, _), (pt, _) in folded.items():
        firsts.setdefault(moment, pt)
    for moment, pt in firsts.items():
        if any((k * c).denominator != 1 for c in moment):
            raise InadmissibleInputError("k-scaled moment value %s is not a weight"
                                         % vec_str(moment))
        diff = tuple(k * (a - b) for a, b in zip(moment, lam))
        if any(c.denominator != 1 for c in rs.weight_vector(diff)):
            raise InadmissibleInputError(
                "k(mu(F) - Lambda) is not in the root lattice at %s" % pt.label)
    # off the root lattice the centre moves the tangent space, and the
    # constant det(Cartan) / |W| no longer holds
    tangents = dict.fromkeys(t for _, tangent in folded for t in tangent)
    for t in tangents:
        if any(c.denominator != 1 for c in rs.weight_vector(t)):
            raise InadmissibleInputError("tangent weight %s is not in the root lattice"
                                         % vec_str(t))
    _check_regularity(firsts, rs, lam)

    terms = _fibration_terms(folded, rs, lam, k)
    weights = list(dict.fromkeys(list(tangents) + list(rs.positive_roots)))
    phases = [t.phase for t in terms if any(c != 0 for c in t.phase)]
    try:
        return res_cone(terms, _generic_direction(weights + phases, rs.rank))[0]
    except GenericityError as exc:
        # xi is generic against every nonzero phase and proportional forms
        # are merged, so only a phase on a wall can fail the residue
        raise SingularValueError("Lambda lies on a wall of the moment image: %s" % exc) from exc


@dataclass
class CalibrationRegistry:
    """Frozen residue-theorem constants, one per (group label, half
    dimension of the manifold).  Each is derived from the root system as
    det(Cartan) / |W|."""

    constants: dict[tuple[str, int], Fraction] = field(default_factory=dict, init=False)

    def constant_for(self, rs: RootSystem, half_dim: int) -> Fraction:
        _check_proven(rs)
        key = (rs.label, half_dim)
        if key not in self.constants:
            self.constants[key] = Fraction(mat_det(rs.cartan)) / len(enumerate_weyl_group(rs))
        return self.constants[key]


def fibration_rr_residue(points, rs: RootSystem, lam_labels, k: int, *,
                         registry: CalibrationRegistry | None = None) -> Fraction:
    """Riemann-Roch number of the fibration by the residue route: the
    constant det(Cartan) / |W| times the iterated residue of the
    fixed-point integrand.  Without a registry the constant is frozen in a
    registry local to this call.  A fraction, the average of the two
    chambers that meet at a wall, is refused."""
    registry = registry if registry is not None else CalibrationRegistry()
    points = tuple(points)
    raw = raw_fibration_residue(points, rs, lam_labels, k)
    value = registry.constant_for(rs, len(points[0].tangent_weights)) * raw
    if value.denominator != 1:
        raise SingularValueError("residue %s is not an integer: Lambda lies on a wall of the "
                                 "moment image" % num_str(value))
    return value


# ----------------------------------------------------------------------
# base route


@dataclass
class BaseIntersectionOracle:
    """Intersection pairings of the reduced space at zero: named generator
    classes (the symplectic class first, then one class per invariant
    generator), the complex top degree, the Todd class and the pairing
    table as polynomials in the generators (exponent tuple -> rational)."""

    generator_names: tuple[str, ...]
    generator_degrees: tuple[int, ...]
    top_degree: int
    pairing: dict
    todd: dict

    def __post_init__(self):
        if len(self.generator_names) != len(self.generator_degrees):
            raise ValueError("generator names and degrees differ in length")
        if not self.generator_degrees or self.generator_degrees[0] != 1:
            raise ValueError("first generator must be the symplectic class, degree 1")
        for table in (self.pairing, self.todd):
            if any(len(mono) != len(self.generator_degrees) for mono in table):
                raise ValueError("oracle monomials must have one exponent per generator")
        for mono, value in self.pairing.items():
            if self._wdeg(mono) != self.top_degree and Fraction(value) != 0:
                raise ValueError("pairing is supported off the top degree")

    def _wdeg(self, mono) -> int:
        return sum(e * d for e, d in zip(mono, self.generator_degrees))

    @classmethod
    def point(cls, rs: RootSystem) -> "BaseIntersectionOracle":
        degs = fundamental_degrees(rs)
        names = ("w0",) + tuple("a%d" % d for d in degs)
        zero = (0,) * (1 + len(degs))
        return cls(generator_names=names, generator_degrees=(1,) + degs,
                   top_degree=0, pairing={zero: Fraction(1)}, todd={zero: Fraction(1)})


def fibration_rr_base(oracle: BaseIntersectionOracle, rs: RootSystem, lam_labels,
                      k: int) -> Fraction:
    """Riemann-Roch number by the base route: expand the exponential of
    k times the symplectic class against the Todd class and the character
    class written in the invariant generators, then apply the pairing,
    which vanishes off the oracle's top degree."""
    scaled = check_weight(rs, tuple(k * c for c in vec(lam_labels)), dominant=True, integral=True)
    degs = fundamental_degrees(rs)
    if tuple(oracle.generator_degrees[1:]) != degs:
        raise ValueError("oracle generator degrees %s do not match the group's %s"
                         % (oracle.generator_degrees[1:], degs))
    cap = oracle.top_degree
    s_series = character_series(rs, scaled, cap)
    nsym = 1 + len(degs)
    # terms above the top degree pair to zero, so the polynomials need no cap
    exp_w0 = TruncatedSeries(nsym, {(j,) + (0,) * len(degs): Fraction(k**j, factorial(j))
                                    for j in range(cap + 1)})
    todd = TruncatedSeries(nsym, oracle.todd)
    s_poly = TruncatedSeries(nsym, {(0,) + mono: c
                                    for mono, c in express_invariant(rs, s_series).items()})
    total = exp_w0 * todd * s_poly
    return sum((c * Fraction(oracle.pairing.get(mono, 0)) for mono, c in total.coeffs.items()),
               Fraction(0))
