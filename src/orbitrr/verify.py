"""The acceptance suite: every check the package must pass, grouped into
named suites so the command line can run them selectively.

Each check returns a CheckResult; the test suite asserts them and the
CLI renders them as a JSON report.  All sweeps are exact; tolerances do
not exist here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct

from .characters import character_series, orbit_volume, weyl_dim
from .errors import GenericityError
from .linalg import primitive_covector, rref, vec_dot
from .localization import (BaseIntersectionOracle, fibration_rr_base, fibration_rr_residue,
                           product_orbit_fixed_data, rr_leading_coefficient, rr_orbit_fixedpoint,
                           todd_restriction_identity)
from .multiplicities import tensor_multiplicity, weight_count_dimension
from .residues import make_term, res_cone
from .roots import build_root_system, enumerate_weyl_group
from .series import TruncatedSeries, flag_integral, positive_root_product
from .volumes import partition_fiber_volume

DEFAULT_SEED = 20270614
RESIDUE_PROBLEMS = 30
# the chamber-volume oracle's cost grows factorially in the fiber dimension
MAX_FIBER_DIM = 4


@dataclass
class CheckResult:
    check_id: str
    passed: bool
    detail: str

    def line(self) -> str:
        return "%s %s: %s" % ("PASS" if self.passed else "FAIL", self.check_id, self.detail)


def _sweep_weights(rank: int, max_label: int):
    return list(iproduct(range(max_label + 1), repeat=rank))


def suite_bwb() -> list[CheckResult]:
    """Criteria 1 and 2: fixed-point sums against the dimension formula and
    the weight-count oracle, and character constant terms."""
    out = []
    for label in ("A1", "A2", "B2", "G2"):
        rs = build_root_system(label[0], int(label[1]))
        bad = []
        count = 0
        for labels in _sweep_weights(rs.rank, 3):
            for k in range(5):
                kl = tuple(k * c for c in labels)
                r = rr_orbit_fixedpoint(rs, labels, k)
                d = weyl_dim(rs, kl)
                c = weight_count_dimension(rs, kl)
                count += 1
                if not (r == d == c):
                    bad.append((labels, k, r, d, c))
        out.append(CheckResult(
            "bwb/%s" % label, not bad,
            "%d (weight, k) configs, rr = dim = weight count" % count
            if not bad else "mismatches: %s" % bad[:3]))
    for label in ("A1", "A2", "B2", "G2"):
        rs = build_root_system(label[0], int(label[1]))
        bad = []
        for labels in _sweep_weights(rs.rank, 3):
            s = character_series(rs, labels, 0)
            if s.constant_term() != weyl_dim(rs, labels):
                bad.append(labels)
        out.append(CheckResult(
            "character-constant/%s" % label, not bad,
            "constant term equals Weyl dimension on labels <= 3"
            if not bad else "mismatch at %s" % bad[:3]))
    return out


def suite_identity() -> list[CheckResult]:
    """Criteria 3 and 4: the per-element Todd-restriction identity and the
    flag fiber integral of the root product."""
    out = []
    for label in ("A1", "A2", "B2"):
        rs = build_root_system(label[0], int(label[1]))
        bad = [w.word for w in enumerate_weyl_group(rs)
               if not todd_restriction_identity(rs, w, 8)]
        out.append(CheckResult(
            "todd-restriction-identity/%s" % label, not bad,
            "all %d Weyl elements at truncation 8" % len(enumerate_weyl_group(rs))
            if not bad else "fails at words %s" % bad[:3]))
    for label in ("A1", "A2", "B2", "G2"):
        rs = build_root_system(label[0], int(label[1]))
        value = flag_integral(rs, positive_root_product(rs))
        expect = len(enumerate_weyl_group(rs))
        out.append(CheckResult(
            "fiber-integral/%s" % label, value == expect,
            "integral of the root product = %s (|W| = %d)" % (value, expect)))
    return out


def _random_residue_problem(rng: random.Random, rank: int):
    """Pairwise independent weights in Z^rank spanning it, each of
    multiplicity 1 or 2, at most MAX_FIBER_DIM more than rank in all, and
    a target p that is a positive combination of every weight."""
    # each weight's first nonzero entry is positive and its entries lie in
    # [-3, 3], so xi = (4^(rank-1), ..., 4, 1) pairs positively with all
    xi = tuple(4 ** (rank - 1 - i) for i in range(rank))
    while True:
        draws = [tuple(rng.randint(-3, 3) for _ in range(rank))
                 for _ in range(rng.randint(rank, rank + MAX_FIBER_DIM))]
        # proportional draws share a primitive form: keep one of them
        weights = list({primitive_covector(w)[0]: w for w in draws if vec_dot(w, xi) > 0}.values())
        mults = [rng.randint(1, 2) for _ in weights]
        if sum(mults) - rank > MAX_FIBER_DIM or len(rref(weights, rank)[1]) < rank:
            continue
        choices = [Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]
        coeffs = [rng.choice(choices) for _ in weights]
        p = tuple(sum(c * w[i] for c, w in zip(coeffs, weights)) for i in range(rank))
        return list(zip(weights, mults)), xi, p


def suite_residue(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Criterion 7: iterated residues against the chamber-volume oracle on
    seeded random problems in 2, 3 and 4 variables; a refusal fails."""
    rng = random.Random(seed)
    bad = []
    for idx in range(RESIDUE_PROBLEMS):
        rank = 2 + idx % 3
        dens, xi, p = _random_residue_problem(rng, rank)
        term = make_term(rank, TruncatedSeries.constant(1, rank), p, dens)
        try:
            value = res_cone([term], xi)[0]
        except (GenericityError, ValueError) as exc:
            value = "refused: %s" % exc
        oracle = partition_fiber_volume([w for w, m in dens for _ in range(m)], p)
        if value != oracle:
            bad.append((idx, dens, p, value, oracle))
    return [CheckResult(
        "residue-vs-volume", not bad,
        "%d seeded problems in 2-4 variables with multiplicities 1-2 agree exactly (seed %d)"
        % (RESIDUE_PROBLEMS, seed) if not bad else "disagreements: %s" % bad[:2])]


def _su2_fibration_cases():
    """(points label, factors, Lambda, k values) for the SU(2) fibration
    sweep; all values are checked against the tensor oracle."""
    return [
        ("three-spheres", [(1,), (1,), (1,)], (1,), [1, 2, 3, 4, 5, 6]),
        ("four-spheres", [(1,), (1,), (1,), (1,)], (1,), [2, 4]),
        ("four-spheres", [(1,), (1,), (1,), (1,)], (2,), [1, 2]),
        ("mixed-spins", [(1,), (2,), (1,)], (2,), [1, 2]),
    ]


def suite_fibration() -> list[CheckResult]:
    """Criterion 5: the end-to-end fibration family by both routes against
    the tensor oracle."""
    out = []
    rs = build_root_system("A", 1)
    point_oracle = BaseIntersectionOracle.point(rs)

    points3 = product_orbit_fixed_data(rs, [(1,), (1,), (1,)])
    bad = []
    for k in range(1, 7):
        res = fibration_rr_residue(points3, rs, (1,), k)
        base = fibration_rr_base(point_oracle, rs, (1,), k)
        oracle = tensor_multiplicity(rs, [(k,)] * 3, (k,))
        if not (res == base == oracle == k + 1):
            bad.append((k, res, base, oracle))
    out.append(CheckResult(
        "fibration-three-spheres", not bad,
        "residue = base = tensor oracle = k+1 for k = 1..6"
        if not bad else "mismatches: %s" % bad))

    bad = []
    for name, factors, lam, ks in _su2_fibration_cases():
        points = product_orbit_fixed_data(rs, factors)
        for k in ks:
            expected = tensor_multiplicity(
                rs, [tuple(k * c for c in f) for f in factors],
                tuple(k * c for c in lam))
            value = fibration_rr_residue(points, rs, lam, k)
            if value != expected:
                bad.append((name, lam, k, value, expected))
    out.append(CheckResult(
        "fibration-oracle-consistency", not bad,
        "residue route matches the tensor oracle on %d SU(2) product cases"
        % sum(len(ks) for _, _, _, ks in _su2_fibration_cases())
        if not bad else "mismatches: %s" % bad[:3]))
    return out


def suite_asymptotics() -> list[CheckResult]:
    """Criteria 6 and 8: leading coefficients against orbit volumes, and
    the polynomiality / degree-bound finite-difference checks."""
    out = []
    for label in ("A1", "A2", "B2"):
        rs = build_root_system(label[0], int(label[1]))
        bad = []
        for labels in iproduct(range(1, 4), repeat=rs.rank):
            lead = rr_leading_coefficient(rs, labels)
            vol = orbit_volume(rs, labels)
            if lead != vol:
                bad.append((labels, lead, vol))
        out.append(CheckResult(
            "leading-coefficient/%s" % label, not bad,
            "leading coefficient equals orbit volume on regular labels <= 3"
            if not bad else "mismatches: %s" % bad[:3]))

    bad = []
    for label, labels in (("A1", (1,)), ("A2", (1, 1)), ("B2", (1, 1))):
        rs = build_root_system(label[0], int(label[1]))
        m = len(rs.positive_roots)
        values = [Fraction(rr_orbit_fixedpoint(rs, labels, k)) for k in range(m + 2)]
        diffs = values
        for _ in range(m):
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        top = diffs[0]
        last = [b - a for a, b in zip(diffs, diffs[1:])]
        if any(x != 0 for x in last) or top == 0:
            bad.append((label, values))
    out.append(CheckResult(
        "k-polynomiality", not bad,
        "rr(k) is a degree-(number of positive roots) polynomial in k"
        if not bad else "failures: %s" % bad))

    rs = build_root_system("A", 1)
    point_oracle = BaseIntersectionOracle.point(rs)
    vals = [fibration_rr_base(point_oracle, rs, (lam,), 1) for lam in range(1, 6)]
    second = [vals[i] - 2 * vals[i + 1] + vals[i + 2] for i in range(len(vals) - 2)]
    out.append(CheckResult(
        "lambda-degree-bound", all(x == 0 for x in second),
        "second finite difference in lambda vanishes"
        if all(x == 0 for x in second) else "second differences %s" % second))
    return out


SUITES = {
    "bwb": suite_bwb,
    "identity": suite_identity,
    "residue": suite_residue,
    "fibration": suite_fibration,
    "asymptotics": suite_asymptotics,
}


def run_suite(name: str, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """One suite, or every suite in order; only the residue suite is seeded."""
    if name == "all":
        return [r for key in SUITES for r in run_suite(key, seed)]
    if name not in SUITES:
        raise ValueError("unknown suite %r (choose from %s, all)"
                         % (name, ", ".join(sorted(SUITES))))
    return suite_residue(seed) if name == "residue" else SUITES[name]()
