"""Weyl dimension formula, coadjoint-orbit volume, and the truncated
character class of a dominant weight.

The character class is the alternating exponential sum over the Weyl
group divided by the Weyl denominator.  Numerator and denominator are
both alternating exponential sums (the denominator by the Weyl
denominator identity), built coefficient by coefficient in integers by
``TruncatedSeries.exp_sum``.  The quotient is one exact division of the
numerator by the denominator.  It is checked: the denominator must have
no term below degree m (the number of positive roots) and its degree-m
part must be the product of the positive roots, and the division must
leave no remainder; otherwise the call raises InternalInconsistencyError.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DegenerateOrbitError, ExactDivisionError, InternalInconsistencyError
from .linalg import Vec, num_str, vec, vec_add, vec_str
from .roots import RootSystem, enumerate_weyl_group
from .series import TruncatedSeries, positive_root_product


def check_weight(rs: RootSystem, labels, *, dominant=False, integral=False) -> Vec:
    labels = vec(labels)
    if len(labels) != rs.rank:
        raise ValueError("expected %d Dynkin labels, got %d" % (rs.rank, len(labels)))
    if dominant and any(c < 0 for c in labels):
        raise ValueError("weight %s is not dominant" % vec_str(labels))
    if integral and any(c.denominator != 1 for c in labels):
        raise ValueError("weight %s is not integral" % vec_str(labels))
    return labels


def weyl_dim(rs: RootSystem, labels) -> int:
    """Dimension of the irreducible representation with the given
    dominant integral highest weight: the volume of the orbit through
    the highest weight plus rho."""
    labels = check_weight(rs, labels, dominant=True, integral=True)
    value = orbit_volume(rs, vec_add(labels, rs.rho))
    if value.denominator != 1 or value <= 0:
        raise InternalInconsistencyError("Weyl dimension %s is not a positive integer"
                                         % num_str(value))
    return int(value)


def orbit_volume(rs: RootSystem, labels) -> Fraction:
    """Symplectic volume of the coadjoint orbit through a strictly dominant
    rational point, as the ratio of root-pairing products against rho.

    The point need not be a weight; it must stay off every Weyl wall.
    """
    point = vec(labels)
    num = Fraction(1)
    den = Fraction(1)
    for g in rs.positive_roots:
        pg = rs.pairing(point, g)
        if pg == 0:
            raise DegenerateOrbitError("point lies on the wall of %s" % vec_str(g))
        num *= pg
        den *= rs.pairing(rs.rho, g)
    if any(c < 0 for c in point):
        raise ValueError("point is regular but not dominant")
    return num / den


def weyl_denominator(rs: RootSystem, trunc: int) -> TruncatedSeries:
    """The Weyl denominator prod over positive roots gamma of
    (e^{(gamma,X)/2} - e^{-(gamma,X)/2}), truncated at total degree trunc.

    By the Weyl denominator identity this product equals the alternating
    sum over the Weyl group of sign(w) e^{(w rho, X)}, which is how it is
    built.
    """
    return TruncatedSeries.exp_sum(
        [(w.act(rs.rho), w.sign) for w in enumerate_weyl_group(rs)], trunc)


def character_series(rs: RootSystem, labels, trunc: int) -> TruncatedSeries:
    """Degree-truncated character class of the dominant integral weight.

    Variables are the coordinates dual to the integer-lattice basis, so a
    weight mu enters through the linear form sum_i mu_i X_i of its Dynkin
    labels.  The constant term is the Weyl dimension.
    """
    if trunc < 0:
        raise ValueError("truncation degree must be >= 0")
    labels = check_weight(rs, labels, dominant=True, integral=True)
    m = len(rs.positive_roots)
    work = trunc + m
    shifted = vec_add(labels, rs.rho)
    numerator = TruncatedSeries.exp_sum(
        [(w.act(shifted), w.sign) for w in enumerate_weyl_group(rs)], work)
    denominator = weyl_denominator(rs, work)
    message = "alternating numerator/denominator not divisible by the root product"
    # a denominator led by the root product in degree m leaves the quotient at trunc
    if (denominator.min_degree() != m
            or denominator.homogeneous_part(m) != positive_root_product(rs, work)):
        raise InternalInconsistencyError(message)
    try:
        return numerator.divide_exact(denominator)
    except ExactDivisionError as exc:
        raise InternalInconsistencyError(message) from exc
