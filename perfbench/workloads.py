"""The three benchmark workloads: how each one draws its requests from a
seed, what it sets up, what one request calls, and how the answer is
checked against an independent route.

A run is a sequence of rounds.  Every round of a workload has the same
cost-driving composition (group, truncation degree, number of factors,
weight-size window); the seed only picks the free inputs inside it
(labels, spins, Lambda, k, window members, order).  That keeps the run's
latency distribution, and so its medians and percentiles, steady from seed
to seed while the inputs still change with the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import factorial

# ----------------------------------------------------------------------
# orbit-oracle: criterion 1 for one configuration

# group -> (largest Dynkin label, largest k), as drawn by the criterion-1 sweep
ORBIT_GROUPS = {
    "A2": (3, 3), "B2": (3, 3), "C2": (3, 3), "G2": (3, 3),
    "A3": (2, 2), "B3": (2, 2), "C3": (2, 2),
    "A4": (1, 1), "D4": (1, 1),
}
# Highest weights k*Lambda of larger dimension are left out: one B3 (4,4,4)
# request alone runs Freudenthal for 9 s, most of a 12 s round.
ORBIT_DIM_CAP = 3000
# Ranks 2-3: each round takes one weight from each of 3 windows of 3
# neighbours, spread evenly over the group's dimension-sorted pool.
ORBIT_WINDOWS = 3
ORBIT_WINDOW_WIDTH = 3
# Rank 4: each round takes the smallest weights, whose cost is the
# fixed-point sum alone: 2 of A4 and 1 of D4.  These 3 of every 24 requests
# put p90 inside the A4 block (about 1.5 s), not on a steep stretch of
# rank-3 weights.
ORBIT_RANK4_WINDOW = 4
ORBIT_RANK4_PER_ROUND = {"A4": 2, "D4": 1}

# ----------------------------------------------------------------------
# fibration-a1: residue route on a product of SU(2) orbits

FIB_GROUP = "A1"
# number of sphere factors -> requests per round; the cost of a request is
# set almost entirely by the factor count (0.08, 0.23, 0.73, 1.94 s)
FIB_MIX = {4: 3, 5: 6, 6: 2, 7: 4}
FIB_MAX_SPIN = 3
FIB_MAX_LAMBDA = 3
FIB_MAX_K = 3

# ----------------------------------------------------------------------
# character-class: character series, then its expression in generators

# Rank 1-2 groups run 5 requests each at degree 6, their costs fall into
# tiers (A1 < A2 < B2 = C2 < G2), which puts p50 inside the B2/C2 tier.
# Spread over degrees 2-6 instead, they form a continuum where p50 moves
# by 20% from seed to seed.
CHAR_SMALL_GROUPS = ("A1", "A2", "B2", "C2", "G2")
CHAR_SMALL_TRUNC = 6
CHAR_SMALL_PER_GROUP = 5
CHAR_RANK3_GROUPS = ("A3", "B3", "C3")
# rank-3 series at degree 5-6 take 3.5-4.4 s each and would stretch a round
# past the run length
CHAR_RANK3_TRUNCS = (2, 3, 4)
CHAR_MAX_LABEL = 2


def _rng(workload: str, seed: int, *salt) -> random.Random:
    return random.Random(":".join(str(x) for x in (workload, seed) + salt))


# ----------------------------------------------------------------------


class OrbitOracle:
    name = "orbit-oracle"
    why = ("criterion 1 per request: Freudenthal weight diagrams (multiplicities, roots) "
           "in rank 2-3 and the rank-4 fixed-point sum (localization)")

    def __init__(self):
        self._windows = None

    def windows(self, orbitrr) -> dict[str, list[list[tuple]]]:
        """Per group, windows of neighbouring weights in the dimension-sorted
        pool of distinct nonzero k*Lambda."""
        if self._windows is None:
            self._windows = {}
            for label, (max_label, max_k) in ORBIT_GROUPS.items():
                rs = orbitrr.parse_group_label(label)
                weights = {tuple(k * c for c in lab)
                           for lab in product(range(max_label + 1), repeat=rs.rank)
                           for k in range(1, max_k + 1) if any(lab)}
                pool = sorted((orbitrr.weyl_dim(rs, w), w) for w in weights)
                pool = [w for d, w in pool if d <= ORBIT_DIM_CAP]
                if rs.rank == 4:
                    self._windows[label] = [pool[:ORBIT_RANK4_WINDOW]]
                    continue
                wins = []
                for j in range(ORBIT_WINDOWS):
                    centre = (2 * j + 1) * len(pool) // (2 * ORBIT_WINDOWS)
                    lo = max(0, min(centre - ORBIT_WINDOW_WIDTH // 2,
                                    len(pool) - ORBIT_WINDOW_WIDTH))
                    wins.append(pool[lo:lo + ORBIT_WINDOW_WIDTH])
                self._windows[label] = wins
        return self._windows

    def schedule(self, orbitrr, seed: int, rounds: int) -> list[list[dict]]:
        wins = self.windows(orbitrr)
        # one permutation per window for the whole run, so consecutive rounds
        # never repeat a highest weight until the window is used up
        prng = _rng(self.name, seed, "windows")
        perms = {(g, j): prng.sample(range(len(w)), len(w))
                 for g, ws in wins.items() for j, w in enumerate(ws)}
        out = []
        for r in range(rounds):
            rng = _rng(self.name, seed, r)
            reqs = []
            for g, ws in wins.items():
                max_label, max_k = ORBIT_GROUPS[g]
                per_round = ORBIT_RANK4_PER_ROUND.get(g, 1)
                for j, w in enumerate(ws):
                    for i in range(per_round):
                        target = w[perms[(g, j)][(r * per_round + i) % len(w)]]
                        reps = [(tuple(c // k for c in target), k)
                                for k in range(1, max_k + 1)
                                if all(c % k == 0 and c // k <= max_label for c in target)]
                        labels, k = rng.choice(reps)
                        reqs.append({"group": g, "labels": list(labels), "k": k})
            rng.shuffle(reqs)
            out.append(reqs)
        return out

    def setup(self, orbitrr):
        ctx = {}
        for g in ORBIT_GROUPS:
            rs = orbitrr.parse_group_label(g)
            orbitrr.enumerate_weyl_group(rs)
            ctx[g] = rs
        return ctx

    def call(self, orbitrr, ctx, req):
        rs = ctx[req["group"]]
        labels, k = tuple(req["labels"]), req["k"]
        kl = tuple(k * c for c in labels)
        return (orbitrr.rr_orbit_fixedpoint(rs, labels, k), orbitrr.weyl_dim(rs, kl),
                orbitrr.weight_count_dimension(rs, kl))

    def check(self, orbitrr, ctx, req, answer):
        rr, dim, count = answer
        return rr == dim == count, "rr=%s dim=%s weight_count=%s" % answer


class FibrationA1:
    name = "fibration-a1"
    why = ("residue route on products of 4-7 SU(2) orbits: term assembly (localization, "
           "series exp/mul/divide/inverse) and res_cone (residues); no Freudenthal")

    def schedule(self, orbitrr, seed: int, rounds: int) -> list[list[dict]]:
        out = []
        for r in range(rounds):
            rng = _rng(self.name, seed, r)
            reqs = []
            for n, count in FIB_MIX.items():
                for _ in range(count):
                    spins = [rng.randint(1, FIB_MAX_SPIN) for _ in range(n)]
                    lam = rng.randint(1, FIB_MAX_LAMBDA)
                    # k(mu(F) - Lambda) must lie in the root lattice (even)
                    ks = [k for k in range(1, FIB_MAX_K + 1) if k * (sum(spins) - lam) % 2 == 0]
                    reqs.append({"spins": spins, "lam": lam, "k": rng.choice(ks)})
            rng.shuffle(reqs)
            out.append(reqs)
        return out

    def setup(self, orbitrr):
        rs = orbitrr.parse_group_label(FIB_GROUP)
        orbitrr.enumerate_weyl_group(rs)
        registry = orbitrr.CalibrationRegistry()
        for n in FIB_MIX:
            registry.constant_for(rs, n)
        return {"rs": rs, "registry": registry}

    def call(self, orbitrr, ctx, req):
        rs = ctx["rs"]
        points = orbitrr.product_orbit_fixed_data(rs, [(s,) for s in req["spins"]])
        return orbitrr.fibration_rr_residue(points, rs, (req["lam"],), req["k"],
                                            registry=ctx["registry"])

    def check(self, orbitrr, ctx, req, answer):
        k = req["k"]
        oracle = orbitrr.tensor_multiplicity(ctx["rs"], [(k * s,) for s in req["spins"]],
                                             (k * req["lam"],))
        return answer == oracle, "residue=%s tensor=%s" % (answer, oracle)


class CharacterClass:
    name = "character-class"
    why = ("character_series then express_invariant on A1-C3: a few large 2-3 variable "
           "series at high degree (series, characters, invariants), unlike fibration-a1")

    def schedule(self, orbitrr, seed: int, rounds: int) -> list[list[dict]]:
        plan = ([(g, CHAR_SMALL_TRUNC) for g in CHAR_SMALL_GROUPS
                 for _ in range(CHAR_SMALL_PER_GROUP)]
                + [(g, t) for g in CHAR_RANK3_GROUPS for t in CHAR_RANK3_TRUNCS])
        out = []
        for r in range(rounds):
            rng = _rng(self.name, seed, r)
            reqs = [{"group": g, "trunc": t,
                     "labels": [rng.randint(0, CHAR_MAX_LABEL) for _ in range(int(g[1]))]}
                    for g, t in plan]
            rng.shuffle(reqs)
            out.append(reqs)
        return out

    def setup(self, orbitrr):
        ctx = {}
        for g in CHAR_SMALL_GROUPS + CHAR_RANK3_GROUPS:
            rs = orbitrr.parse_group_label(g)
            orbitrr.enumerate_weyl_group(rs)
            orbitrr.invariant_generators(rs)
            ctx[g] = rs
        return ctx

    def call(self, orbitrr, ctx, req):
        rs = ctx[req["group"]]
        series = orbitrr.character_series(rs, tuple(req["labels"]), req["trunc"])
        return series, orbitrr.express_invariant(rs, series)

    def check(self, orbitrr, ctx, req, answer):
        rs, trunc = ctx[req["group"]], req["trunc"]
        series, in_gens = answer
        # route 1: sum of m_mu e^{<mu,X>} over the Freudenthal weight diagram;
        # the coefficient of X^a is sum_mu m_mu mu^a / a!
        diagram = orbitrr.weight_multiplicities(rs, tuple(req["labels"]))
        expected = {}
        for deg in range(trunc + 1):
            for a in _exponents(rs.rank, deg):
                total = 0
                for mu, m in diagram.items():
                    term = m
                    for c, e in zip(mu, a):
                        term *= c ** e
                    total += term
                denom = 1
                for e in a:
                    denom *= factorial(e)
                if total:
                    expected[a] = Fraction(total, denom)
        if series.coeffs != expected:
            return False, "series differs from the weight-diagram sum through degree %d" % trunc
        # route 2: the generator polynomial re-expands to the series
        gens = orbitrr.invariant_generators(rs)
        back = orbitrr.TruncatedSeries(rs.rank, {}, trunc)
        for mono, c in in_gens.items():
            term = orbitrr.TruncatedSeries.constant(c, rs.rank, trunc)
            for g, e in zip(gens, mono):
                if e:
                    term = term * g.truncate(trunc) ** e
            back = back + term
        if back.coeffs != series.coeffs:
            return False, "generator polynomial does not re-expand to the series"
        return True, "%d coefficients" % len(expected)


def _exponents(num_vars: int, degree: int):
    if num_vars == 1:
        yield (degree,)
        return
    for e in range(degree, -1, -1):
        for rest in _exponents(num_vars - 1, degree - e):
            yield (e,) + rest


WORKLOADS = {w.name: w for w in (OrbitOracle(), FibrationA1(), CharacterClass())}
