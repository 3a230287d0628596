"""Command-line front end.

Every subcommand prints one canonical JSON document (sorted keys, no
whitespace variance) to stdout, so identical configurations produce
byte-identical reports.  Exact rationals are rendered as "p/q" strings.

Exit codes: 0 success, 1 input, usage or precondition error, 2 genericity
failure (``jk-residue`` only: a phase on a wall, whose one-sided values
differ, or a zero phase that the tie does not decide), 3 internal
inconsistency (a failed exact division or identity, or routes that
disagree).
"""

from __future__ import annotations

import argparse
import sys

from .characters import character_series, orbit_volume, weyl_dim
from .errors import ExactDivisionError, GenericityError, InternalInconsistencyError
from .jsonio import (canonical_json, load_base_oracle, load_fixed_points, load_residue_problem,
                     parse_weight_labels)
from .linalg import num_str, vec_str
from .localization import (CalibrationRegistry, _fold, fibration_rr_base, fibration_rr_residue,
                           product_orbit_fixed_data, rr_orbit_fixedpoint)
from .multiplicities import tensor_multiplicity
from .residues import res_cone
from .roots import parse_group_label
from .verify import DEFAULT_SEED, run_suite

EXIT_INPUT = 1
EXIT_GENERICITY = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors (exit 1), not argparse's exit 2, which
    is the genericity code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, "input error: %s\n" % message)


def _emit(doc: dict) -> None:
    sys.stdout.write(canonical_json(doc))


def _cmd_dim(args) -> int:
    rs = parse_group_label(args.group)
    labels = parse_weight_labels(args.weight)
    _emit({"group": rs.label, "weight": args.weight, "dim": weyl_dim(rs, labels)})
    return 0


def _cmd_orbit_volume(args) -> int:
    rs = parse_group_label(args.group)
    labels = parse_weight_labels(args.weight)
    _emit({"group": rs.label, "weight": args.weight, "volume": num_str(orbit_volume(rs, labels))})
    return 0


def _cmd_character(args) -> int:
    rs = parse_group_label(args.group)
    labels = parse_weight_labels(args.weight)
    series = character_series(rs, labels, args.trunc)
    _emit({"group": rs.label, "weight": args.weight, "trunc": args.trunc,
           "series": series.to_text(), "constant_term": num_str(series.constant_term())})
    return 0


def _cmd_rr_orbit(args) -> int:
    rs = parse_group_label(args.group)
    labels = parse_weight_labels(args.weight)
    _emit({"group": rs.label, "weight": args.weight, "k": args.k,
           "rr": rr_orbit_fixedpoint(rs, labels, args.k)})
    return 0


def _cmd_jk_residue(args) -> int:
    problem = load_residue_problem(args.input)
    value, _ = res_cone(problem["terms"], problem["xi"])
    _emit({"value": num_str(value)})
    return 0


def _factor_sums(points) -> dict:
    """(moment, tangent multiset) -> summed symplectic factor of the points."""
    return {key: factor for key, (_, factor) in _fold(points).items()}


def _cmd_fibration(args) -> int:
    rs, points = load_fixed_points(args.fixture)
    lam = parse_weight_labels(args.weight)
    doc = {"group": rs.label, "weight": args.weight, "k": args.k, "route": args.route}
    if args.oracle_factors:
        factors = [parse_weight_labels(part) for part in args.oracle_factors.split(";")]
        # the oracle knows products of orbits only: it must be this fixture's
        if _factor_sums(points) != _factor_sums(product_orbit_fixed_data(rs, factors)):
            raise ValueError("--oracle-factors %s do not describe the fixture's fixed points"
                             % args.oracle_factors)
        doc["oracle"] = tensor_multiplicity(rs, [tuple(args.k * c for c in f) for f in factors],
                                            tuple(args.k * c for c in lam))
    if args.route in ("residue", "both"):
        registry = CalibrationRegistry()
        residue = fibration_rr_residue(points, rs, lam, args.k, registry=registry)
        doc["residue"] = num_str(residue)
        constant = registry.constant_for(rs, len(points[0].tangent_weights))
        doc["constant"] = num_str(constant)
    if args.route in ("base", "both"):
        if not args.base_fixture:
            raise ValueError("--base-fixture is required for the base route")
        base_rs, oracle = load_base_oracle(args.base_fixture)
        if base_rs.label != rs.label:
            raise ValueError("base fixture group %s does not match %s"
                             % (base_rs.label, rs.label))
        # dim_C M_0: tangent weights per point - rank - 2 |positive roots|
        dims = {len(pt.tangent_weights) - rs.rank - 2 * len(rs.positive_roots) for pt in points}
        if dims != {oracle.top_degree}:
            raise ValueError("base fixture top degree %d does not fit the fixture's dim_C M_0 %s"
                             % (oracle.top_degree, vec_str(sorted(dims)) or "(no fixed points)"))
        base = fibration_rr_base(oracle, rs, lam, args.k)
        doc["base"] = num_str(base)
    if args.route == "both":
        doc["difference"] = num_str(residue - base)
    _emit(doc)
    if args.route == "both" and residue != base:
        raise InternalInconsistencyError("routes disagree by %s" % doc["difference"])
    return 0


def _cmd_verify(args) -> int:
    results = run_suite(args.suite, seed=args.seed)
    for r in results:
        sys.stderr.write(r.line() + "\n")
    doc = {
        "suite": args.suite,
        "seed": args.seed,
        "checks": [{"id": r.check_id, "passed": r.passed, "detail": r.detail}
                   for r in results],
        "all_passed": all(r.passed for r in results),
    }
    _emit(doc)
    return 0 if doc["all_passed"] else EXIT_INPUT


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="orbitrr",
        description="Exact Riemann-Roch numbers of coadjoint orbits and "
                    "symplectic fibrations")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("dim", _cmd_dim, help="Weyl dimension of a dominant integral weight")
    p.add_argument("--group", required=True)
    p.add_argument("--weight", required=True, help="Dynkin labels, e.g. 1,1")

    p = add("orbit-volume", _cmd_orbit_volume, help="symplectic volume of a coadjoint orbit")
    p.add_argument("--group", required=True)
    p.add_argument("--weight", required=True)

    p = add("character", _cmd_character, help="truncated character class")
    p.add_argument("--group", required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--trunc", type=int, default=0)

    p = add("rr-orbit", _cmd_rr_orbit, help="Riemann-Roch number of an orbit by fixed points")
    p.add_argument("--group", required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--k", type=int, required=True)

    p = add("jk-residue", _cmd_jk_residue, help="iterated residue of a problem file")
    p.add_argument("--input", required=True)

    p = add("fibration", _cmd_fibration, help="Riemann-Roch of a fibration from fixture data")
    p.add_argument("--weight", required=True, help="Dynkin labels of Lambda (rationals allowed)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--fixture", required=True, help="fixed-point data JSON")
    p.add_argument("--base-fixture", help="intersection oracle JSON (base route)")
    p.add_argument("--route", choices=("base", "residue", "both"), default="both")
    p.add_argument("--oracle-factors", dest="oracle_factors",
                   help="semicolon-separated factor weights for the tensor "
                        "oracle value, e.g. '1;1;1' for a product of orbits; "
                        "the product must have the fixture's fixed points")

    p = add("verify", _cmd_verify, help="run the acceptance suites")
    p.add_argument("--suite", default="all",
                   choices=("bwb", "identity", "residue", "fibration", "asymptotics", "all"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed of the residue suite's random problems (default: %(default)s)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InternalInconsistencyError, ExactDivisionError) as exc:
        sys.stderr.write("internal inconsistency: %s\n" % exc)
        return EXIT_INTERNAL
    except GenericityError as exc:
        sys.stderr.write("genericity failure: %s\n" % exc)
        return EXIT_GENERICITY
    except (ValueError, OSError, KeyError) as exc:
        sys.stderr.write("input error: %s\n" % exc)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
