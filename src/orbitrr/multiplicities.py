"""Brute-force representation-theoretic oracles.

Weight multiplicities come from the Freudenthal recursion, which fills one
weight diagram a Weyl orbit at a time; tensor-product multiplicities from
convolving weight diagrams and antisymmetrizing over the Weyl group.
Nothing here touches the series or residue machinery, so these values
are independent checks on both localization routes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product

from .characters import check_weight
from .errors import InternalInconsistencyError
from .linalg import Vec, num_str, vec_add, vec_sub
from .roots import RootSystem, enumerate_weyl_group


def _dominant_weights_below(rs: RootSystem, lam: Vec) -> list[Vec]:
    """Dominant weights mu with lam - mu a nonnegative integer combination
    of simple roots.  Dominant weights have nonnegative simple-root
    coordinates, so the search space is a box in those coordinates."""
    bounds = [int(c) for c in rs.weight_vector(lam)]
    out = []
    for c in product(*(range(b + 1) for b in bounds)):
        mu = tuple(lc - sum(ci * a[j] for ci, a in zip(c, rs.simple_roots))
                   for j, lc in enumerate(lam))
        if all(x >= 0 for x in mu):
            out.append((sum(c), mu))
    return [mu for _, mu in sorted(out, key=lambda pair: pair[0])]


def weight_multiplicities(rs: RootSystem, labels) -> dict[tuple[int, ...], int]:
    """Full weight diagram of the irreducible with the given highest
    weight: Dynkin-label tuples mapped to multiplicities (Freudenthal)."""
    labels = check_weight(rs, labels, dominant=True, integral=True)
    return dict(_weight_multiplicities_cached(rs, labels))


@lru_cache(maxsize=256)
def _weight_multiplicities_cached(rs: RootSystem, lam: Vec) -> dict[tuple[int, ...], int]:
    """Freudenthal's recursion over the dominant weights by depth, writing
    each one's Weyl orbit into the one diagram once its multiplicity is
    known.  A string weight mu + j*alpha (j >= 1) and its dominant
    representative lie above mu, so that orbit has smaller depth and was
    written first: the strings read only filled weights."""
    rho = rs.rho
    lam_rho = vec_add(lam, rho)
    norm_top = rs.pairing(lam_rho, lam_rho)
    group = enumerate_weyl_group(rs)

    # lam is the only weight of depth 0, so it leads the dominant weights
    diagram = {w.act(lam): 1 for w in group}
    for mu in _dominant_weights_below(rs, lam)[1:]:
        mu_rho = vec_add(mu, rho)
        acc = Fraction(0)
        for g in rs.positive_roots:
            nu = vec_add(mu, g)
            while m := diagram.get(nu, 0):
                acc += m * rs.pairing(nu, g)
                nu = vec_add(nu, g)
        value = 2 * acc / (norm_top - rs.pairing(mu_rho, mu_rho))
        if value.denominator != 1 or value < 0:
            raise InternalInconsistencyError("Freudenthal recursion produced %s" % num_str(value))
        if value:
            for w in group:
                diagram[w.act(mu)] = int(value)
    return diagram


def weight_count_dimension(rs: RootSystem, labels) -> int:
    """Dimension as the total number of weights counted with multiplicity;
    an oracle for the Weyl dimension formula."""
    return sum(weight_multiplicities(rs, labels).values())


def _convolve(a: dict, b: dict) -> dict:
    out: dict[tuple[int, ...], int] = {}
    for ka, ma in a.items():
        for kb, mb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, 0) + ma * mb
    return out


def tensor_multiplicity(rs: RootSystem, factors, target) -> int:
    """Multiplicity of the irreducible with highest weight `target` inside
    the tensor product of the irreducibles with highest weights `factors`.

    Convolves the factors' weight diagrams, then antisymmetrizes: the
    multiplicity equals sum over w of sign(w) times the convolved
    multiplicity at w(target+rho)-rho.
    """
    target = check_weight(rs, target, dominant=True, integral=True)
    diagrams = [weight_multiplicities(rs, f) for f in factors]
    if not diagrams:
        raise ValueError("need at least one tensor factor")
    total = diagrams[0]
    for d in diagrams[1:]:
        total = _convolve(total, d)
    shifted = vec_add(target, rs.rho)
    acc = 0
    for w in enumerate_weyl_group(rs):
        acc += w.sign * total.get(vec_sub(w.act(shifted), rs.rho), 0)
    if acc < 0:
        raise InternalInconsistencyError("negative tensor multiplicity %s" % num_str(acc))
    return acc
