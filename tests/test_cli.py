import json
import sys
import time
import tracemalloc
from fractions import Fraction as F
from math import factorial
from pathlib import Path

import pytest

from orbitrr import multiplicities
from orbitrr.cli import main
from orbitrr.characters import MAX_CHARACTER_MONOMIALS, MAX_TRUNCATION, weyl_dim
from orbitrr.jsonio import (MAX_MULTIPLICITY, MAX_NUMERATOR_DEGREE, MAX_NUMERATOR_MONOMIALS,
                            fixture_path, load_base_oracle, load_fixed_points,
                            load_residue_problem, parse_fixed_points, parse_fraction,
                            parse_residue_problem, parse_weight_labels)
from orbitrr.linalg import num_str
from orbitrr.localization import rr_orbit_fixedpoint
from orbitrr.roots import build_root_system

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = Path(__file__).parent.parent / "src" / "orbitrr" / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_fraction_round_trip():
    assert parse_fraction("3/7") == F(3, 7)
    assert parse_fraction(4) == F(4)
    assert num_str(F(-5, 3)) == "-5/3"
    assert num_str(F(6, 3)) == "2"
    with pytest.raises(ValueError):
        parse_fraction(1.5)


def test_parse_weight_labels():
    assert parse_weight_labels("2,1") == (F(2), F(1))
    assert parse_weight_labels("1/2, 1") == (F(1, 2), F(1))


def test_parsed_weights_are_ints_where_integral():
    labels = parse_weight_labels("2,4/2,1/2")
    assert labels == (2, 2, F(1, 2))
    assert [type(c) for c in labels] == [int, int, F]
    _, points = parse_fixed_points({"group": "A2", "fixed_points": [
        {"moment": ["2", "1/2"], "tangent_weights": [["4/2", "-1"]], "symplectic_factor": "6/3"},
        {"moment": ["4/2", "3/2"], "tangent_weights": [["2", "-1"]], "symplectic_factor": "1/2"},
    ]})
    assert [type(c) for c in points[0].moment] == [int, F]
    assert [type(c) for c in points[1].moment] == [int, F]
    assert all(type(c) is int for pt in points for t in pt.tangent_weights for c in t)
    assert points[0].symplectic_factor == 2 and type(points[0].symplectic_factor) is int
    assert points[1].symplectic_factor == F(1, 2)


def test_fixture_loading():
    rs, points = load_fixed_points(str(fixture_path("su2_three_spheres.json")))
    assert rs.label == "A1" and len(points) == 8
    assert all(len(pt.tangent_weights) == 3 for pt in points)
    rs3, points3 = load_fixed_points(str(fixture_path("su3_rho_pair.json")))
    assert rs3.label == "A2" and len(points3) == 36
    assert all(len(pt.tangent_weights) == 6 for pt in points3)
    rs2, oracle = load_base_oracle(str(fixture_path("su2_point_base.json")))
    assert rs2.label == "A1" and oracle.top_degree == 0
    problem = load_residue_problem(str(fixture_path("jk_chamber_problem.json")))
    assert problem["vars"] == 2 and len(problem["terms"]) == 1


@pytest.mark.parametrize("key", ["symplectic_factr", "symplectic_exponent"])
def test_unknown_fixed_point_field_is_refused(capsys, tmp_path, key):
    # a misspelt key, or the retired alias, used to be ignored: the point's
    # factor read as 1 and the report exited 0
    doc = json.loads((FIXTURES / "su2_three_spheres.json").read_text())
    doc["fixed_points"][0][key] = "2"
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(doc))
    code = main(["fibration", "--weight", "1", "--k", "1", "--fixture", str(path),
                 "--route", "residue"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "fixed point 0 has unknown field %r" % key in captured.err
    with pytest.raises(ValueError, match="unknown field"):
        parse_fixed_points(doc)


@pytest.mark.parametrize("golden,argv", [
    ("dim_a2_11.json", ["dim", "--group", "A2", "--weight", "1,1"]),
    ("character_a1_2_t2.json", ["character", "--group", "A1", "--weight", "2", "--trunc", "2"]),
    ("rr_orbit_a1_1_k5.json", ["rr-orbit", "--group", "A1", "--weight", "1", "--k", "5"]),
    ("jk_chamber.json", ["jk-residue", "--input",
                         str(FIXTURES / "jk_chamber_problem.json")]),
    ("fibration_both_k3.json", ["fibration", "--weight", "1", "--k", "3",
                                "--fixture", str(FIXTURES / "su2_three_spheres.json"),
                                "--base-fixture", str(FIXTURES / "su2_point_base.json"),
                                "--route", "both"]),
    ("rr_orbit_d4_1111_k2.json", ["rr-orbit", "--group", "D4", "--weight", "1,1,1,1",
                                  "--k", "2"]),
    ("character_c3_111_t4.json", ["character", "--group", "C3", "--weight", "1,1,1",
                                  "--trunc", "4"]),
    ("fibration_a2_rho_pair_k3.json", ["fibration", "--weight", "2,1", "--k", "3",
                                       "--fixture", str(FIXTURES / "su3_rho_pair.json"),
                                       "--route", "residue", "--oracle-factors", "1,1;1,1"]),
    ("fibration_a1_four_spheres_k2.json", ["fibration", "--weight", "2", "--k", "2",
                                           "--fixture", str(FIXTURES / "su2_four_spheres.json"),
                                           "--route", "residue",
                                           "--oracle-factors", "1;1;1;1"]),
    ("fibration_a1_mixed_spins_k2.json", ["fibration", "--weight", "2", "--k", "2",
                                          "--fixture", str(FIXTURES / "su2_mixed_spins.json"),
                                          "--route", "residue", "--oracle-factors", "1;2;1"]),
    ("jk_unlucky_frame.json", ["jk-residue", "--input",
                               str(FIXTURES / "jk_unlucky_frame.json")]),
])
def test_golden_outputs(capsys, golden, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()
    # only verify draws from a seed, so only its report carries one
    assert "seed" not in json.loads(out)


def test_reports_are_byte_identical_across_runs(capsys):
    argv = ["fibration", "--weight", "1", "--k", "2",
            "--fixture", str(FIXTURES / "su2_three_spheres.json"),
            "--route", "residue"]
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second
    assert json.loads(first)["residue"] == "3"


def test_seed_flag_and_env(capsys, monkeypatch):
    # the seed is a verify option, from --seed or the built-in default, never
    # the environment; no other command takes one
    monkeypatch.setenv("ORBITRR_SEED", "99")
    code, out = run(capsys, "verify", "--suite", "residue")
    assert code == 0 and json.loads(out)["seed"] == 20270614
    code, out = run(capsys, "verify", "--suite", "residue", "--seed", "7")
    assert code == 0 and json.loads(out)["seed"] == 7
    for argv in (["--seed", "7", "dim", "--group", "A1", "--weight", "1"],
                 ["dim", "--group", "A1", "--weight", "1", "--seed", "7"],
                 ["jk-residue", "--input", str(FIXTURES / "jk_chamber_problem.json"),
                  "--seed", "7"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 1 and captured.out == ""
        assert "input error:" in captured.err


def test_orbit_volume_of_a_regular_weight(capsys):
    # the README example
    code, out = run(capsys, "orbit-volume", "--group", "A2", "--weight", "2,1")
    assert code == 0
    assert out == '{"group":"A2","volume":"3","weight":"2,1"}\n'


def test_base_route_without_a_base_fixture_is_an_input_error(capsys):
    code = main(["fibration", "--weight", "1", "--k", "1", "--route", "base",
                 "--fixture", str(FIXTURES / "su2_three_spheres.json")])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "input error: --base-fixture is required for the base route\n"


def test_routes_that_disagree_exit_3_with_the_report(capsys, tmp_path):
    # a point oracle whose pairing is 2, not 1, against three spheres at k 1
    doc = json.loads((FIXTURES / "su2_point_base.json").read_text())
    doc["pairing"] = [[[0, 0], "2"]]
    path = tmp_path / "double_point.json"
    path.write_text(json.dumps(doc))
    code = main(["fibration", "--weight", "1", "--k", "1", "--route", "both",
                 "--fixture", str(FIXTURES / "su2_three_spheres.json"),
                 "--base-fixture", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.out)["difference"] == "-2"
    assert captured.err == "internal inconsistency: routes disagree by -2\n"


class _PairingOffByOne:
    """A root system whose pairing is off by one, so the Freudenthal
    recursion produces a non-integer."""

    def __init__(self, rs):
        self._rs = rs

    def __getattr__(self, name):
        return getattr(self._rs, name)

    def pairing(self, u, v):
        return self._rs.pairing(u, v) + 1


@pytest.mark.parametrize("case,message", [
    ("freudenthal", "Freudenthal recursion produced 3/2"),
    ("tensor", "negative tensor multiplicity -2"),
])
def test_oracle_inconsistencies_exit_3(capsys, monkeypatch, case, message):
    # both used to escape main() as a bare ArithmeticError traceback
    if case == "freudenthal":
        cached = multiplicities._weight_multiplicities_cached
        monkeypatch.setattr(multiplicities, "_weight_multiplicities_cached",
                            lambda rs, lam: cached.__wrapped__(_PairingOffByOne(rs), lam))
    else:
        diagram = multiplicities.weight_multiplicities
        monkeypatch.setattr(multiplicities, "weight_multiplicities",
                            lambda rs, lam: {mu: -m for mu, m in diagram(rs, lam).items()})
    code = main(["fibration", "--weight", "2", "--k", "1", "--route", "residue",
                 "--fixture", str(FIXTURES / "su2_mixed_spins.json"),
                 "--oracle-factors", "2;1;1"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "internal inconsistency: %s\n" % message


def test_exit_code_input_error(capsys):
    code, _ = run(capsys, "dim", "--group", "E8", "--weight", "1")
    assert code == 1
    code, _ = run(capsys, "dim", "--group", "A1", "--weight", "-1")
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["dim", "--group", "A1"],
    ["dim", "--group", "A1", "--weight", "1", "--bogus"],
    ["rr-orbit", "--group", "A1", "--weight", "1", "--k", "x"],
    ["jk-residue", "--retries", "0", "--input", str(FIXTURES / "jk_chamber_problem.json")],
])
def test_usage_errors_are_input_errors(capsys, argv):
    # argparse's own exit 2 would read as a genericity failure
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 1 and captured.out == ""
    assert "input error:" in captured.err


def test_zero_denominator_weight_is_an_input_error(capsys):
    code = main(["dim", "--group", "A2", "--weight", "1/0,1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("input error:") and "denominator" in captured.err


def test_fibration_at_k_zero_is_an_input_error(capsys):
    # the residue route is refused below k = 1 instead of disagreeing with
    # the base route
    code = main(["fibration", "--weight", "1", "--k", "0",
                 "--fixture", str(FIXTURES / "su2_three_spheres.json"),
                 "--base-fixture", str(FIXTURES / "su2_point_base.json"),
                 "--route", "both"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("input error:") and "k >= 1" in captured.err


def test_non_dominant_lambda_is_an_input_error(capsys):
    # the residue route used to print "-4" here and exit 0
    code = main(["fibration", "--weight", "-2", "--k", "1",
                 "--fixture", str(FIXTURES / "su2_four_spheres.json"), "--route", "residue"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("input error:") and "not dominant" in captured.err
    # the weight is printed in the --weight syntax, not as a Python repr
    assert "weight -2 is not dominant" in captured.err and "Fraction(" not in captured.err


@pytest.mark.parametrize("argv,message", [
    (["dim", "--group", "A2", "--weight", "1/2,1"], "weight 1/2,1 is not integral"),
    (["rr-orbit", "--group", "A2", "--weight", "1,-1", "--k", "1"],
     "weight 1,-1 is not dominant"),
    (["orbit-volume", "--group", "A2", "--weight", "1,0"], "wall of -1,2"),
], ids=["dim-not-integral", "rr-orbit-not-dominant", "orbit-volume-on-a-wall"])
def test_weights_in_errors_use_the_label_syntax(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert message in captured.err and "(" not in captured.err


def test_rational_moment_error_uses_the_label_syntax(capsys, tmp_path):
    doc = {"group": "A1", "fixed_points": [
        {"label": "p", "moment": ["1/2"], "tangent_weights": [["2"], ["2"]]},
        {"label": "q", "moment": ["-1/2"], "tangent_weights": [["-2"], ["-2"]]},
    ]}
    path = tmp_path / "half.json"
    path.write_text(json.dumps(doc))
    code = main(["fibration", "--weight", "1", "--k", "1", "--fixture", str(path),
                 "--route", "residue"])
    captured = capsys.readouterr()
    assert code == 1
    assert "k-scaled moment value 1/2 is not a weight" in captured.err
    assert "Fraction(" not in captured.err


def test_tangent_weight_outside_the_root_lattice_is_an_input_error(capsys, tmp_path):
    # CP^2 = P(V_1 + V_0) under SU(2): this printed "2" and exited 0, where
    # V_2 occurs once in Sym^4(V_1 + V_0)
    doc = {"group": "A1", "fixed_points": [
        {"label": "p0", "moment": ["1"], "tangent_weights": [["1"], ["2"]]},
        {"label": "p1", "moment": ["0"], "tangent_weights": [["-1"], ["1"]]},
        {"label": "p2", "moment": ["-1"], "tangent_weights": [["-2"], ["-1"]]},
    ]}
    path = tmp_path / "cp2.json"
    path.write_text(json.dumps(doc))
    code = main(["fibration", "--weight", "1/2", "--k", "4", "--fixture", str(path),
                 "--route", "residue"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("input error:")
    assert "tangent weight 1 is not in the root lattice" in captured.err


@pytest.mark.parametrize("route,k", [("base", 1), ("both", 2)])
def test_base_fixture_of_another_dimension_is_an_input_error(capsys, route, k):
    # the point oracle (top degree 0) fits three spheres, whose reduced space
    # is a point, but not four: the base route used to print "2" against the
    # tensor oracle's 0, and --route both exited 3 for this input mistake
    code = main(["fibration", "--weight", "1", "--k", str(k),
                 "--fixture", str(FIXTURES / "su2_four_spheres.json"),
                 "--base-fixture", str(FIXTURES / "su2_point_base.json"),
                 "--route", route, "--oracle-factors", "1;1;1;1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("input error:") and "top degree 0" in captured.err


def test_base_route_on_a_fixture_without_fixed_points_is_an_input_error(capsys, tmp_path):
    # the base route used to print "2" here, ignoring the fixture
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"group": "A1", "fixed_points": []}))
    code = main(["fibration", "--weight", "1", "--k", "1", "--fixture", str(path),
                 "--base-fixture", str(FIXTURES / "su2_point_base.json"), "--route", "base"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("input error:") and "no fixed points" in captured.err


def test_exit_code_singular_fibration(capsys, tmp_path):
    doc = {
        "group": "A1",
        "fixed_points": [
            {"label": "pp", "moment": ["2"], "tangent_weights": [["2"], ["2"]]},
            {"label": "pm", "moment": ["0"], "tangent_weights": [["2"], ["-2"]]},
            {"label": "mp", "moment": ["0"], "tangent_weights": [["-2"], ["2"]]},
            {"label": "mm", "moment": ["-2"], "tangent_weights": [["-2"], ["-2"]]},
        ],
    }
    path = tmp_path / "two_spheres.json"
    path.write_text(json.dumps(doc))
    code, _ = run(capsys, "fibration", "--weight", "2", "--k", "2",
                  "--fixture", str(path), "--route", "residue")
    assert code == 1


def test_exit_code_genericity(capsys, tmp_path):
    # a zero phase at a bare first-order pole is a wall: its residue is 1
    # from one side and 0 from the other
    doc = {
        "vars": 1,
        "terms": [{"num": [[[0], "1"]], "phase": ["0"], "dens": [[["1"], 1]]}],
        "xi": ["1"],
    }
    path = tmp_path / "marginal.json"
    path.write_text(json.dumps(doc))
    code = main(["jk-residue", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "one-sided values 1 and 0" in captured.err


def test_long_exact_results_are_printed(capsys, tmp_path):
    # both values pass the interpreter's int-to-str digit limit, which
    # guards parsing; they used to be computed and then exit 1
    limit = sys.get_int_max_str_digits()
    k = 10 ** 400
    rr = run(capsys, "rr-orbit", "--group", "D4", "--weight", "1,1,1,1", "--k", str(k))
    path = tmp_path / "pole.json"
    path.write_text(json.dumps({"vars": 1, "xi": ["1"],
                                "terms": [{"phase": ["1"], "dens": [[["1"], 3000]]}]}))
    residue = run(capsys, "jk-residue", "--input", str(path))
    assert sys.get_int_max_str_digits() == limit
    expected = rr_orbit_fixedpoint(build_root_system("D", 4), (1, 1, 1, 1), k)
    sys.set_int_max_str_digits(0)
    try:
        assert len(str(expected)) > limit > 0
        assert rr == (0, '{"group":"D4","k":%d,"rr":%d,"weight":"1,1,1,1"}\n' % (k, expected))
        assert residue == (0, '{"value":"1/%d"}\n' % factorial(2999))
    finally:
        sys.set_int_max_str_digits(limit)


def test_long_series_and_one_sided_values_are_printed(capsys, tmp_path):
    # str() stops at the interpreter's int-to-str limit: the character
    # series used to be computed and then exit 1, and the wall exit 1, not 2
    weight = "1" + "0" * 1500
    code, out = run(capsys, "character", "--group", "A2", "--weight", weight + ",1",
                    "--trunc", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["constant_term"] == num_str(weyl_dim(build_root_system("A", 2),
                                                    (10 ** 1500, 1)))
    assert doc["series"].startswith(doc["constant_term"] + " + ")
    coefficients = [part.split(" * ")[0] for part in doc["series"].split(" + ")]
    assert max(map(len, coefficients)) > sys.get_int_max_str_digits()
    path = tmp_path / "wall.json"
    path.write_text(json.dumps({"vars": 1, "xi": ["1"], "terms": [
        {"phase": ["0"], "dens": [[["1"], 1]]},
        {"phase": ["1/7"], "dens": [[["1"], 3000]]}]}))
    code = main(["jk-residue", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("genericity failure: the phase lies on a wall: "
                                   "one-sided values ")
    assert len(captured.err) > sys.get_int_max_str_digits()


@pytest.mark.parametrize("term,message", [
    ({"dens": [[["1"], MAX_MULTIPLICITY + 1]]},
     "denominator multiplicity must be at most %d, not %d"
     % (MAX_MULTIPLICITY, MAX_MULTIPLICITY + 1)),
    ({"dens": [[["1"], 10 ** 20]]},
     "denominator multiplicity must be at most %d, not %d" % (MAX_MULTIPLICITY, 10 ** 20)),
    ({"num": [[[MAX_NUMERATOR_DEGREE + 1, 0], "1"]], "dens": [[["1", "0"], 1], [["0", "1"], 1]]},
     "numerator degree must be at most %d, not %d"
     % (MAX_NUMERATOR_DEGREE, MAX_NUMERATOR_DEGREE + 1)),
    ({"num": [[[10 ** 20, 0], "1"]], "dens": [[["1", "0"], 1], [["0", "1"], 1]]},
     "numerator degree must be at most %d, not %d" % (MAX_NUMERATOR_DEGREE, 10 ** 20)),
    # x1^40 over (1,...,1) and e2..e6 ran for minutes in the Taylor shifts
    ({"num": [[[40, 0, 0, 0, 0, 0], "1"]],
      "dens": [[["1"] * 6, 1]] + [[["0"] * i + ["1"] + ["0"] * (5 - i), 1] for i in range(1, 6)]},
     "a numerator of degree 40 in 6 variables may expand to more than %d monomials"
     % MAX_NUMERATOR_MONOMIALS),
], ids=["multiplicity-above-the-bound", "huge-multiplicity", "degree-above-the-bound",
        "huge-degree", "expansion-above-the-bound"])
def test_residue_problem_sizes_are_bounded(capsys, tmp_path, term, message):
    # a pole of order 10^20 grew memory until the process was killed, and
    # a frame change steps through every power of a numerator variable
    n = len(term["dens"][0][0])
    doc = {"vars": n, "xi": ["1"] * n, "terms": [dict(term, phase=["1"] * n)]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code = main(["jk-residue", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "input error: %s\n" % message


def test_residue_problem_sizes_at_the_bounds_are_accepted(capsys, tmp_path):
    path = tmp_path / "at_bounds.json"
    path.write_text(json.dumps({"vars": 1, "xi": ["1"], "terms": [
        {"num": [[[MAX_NUMERATOR_DEGREE], "1"]], "phase": ["0"], "dens": [[["1"], 1]]},
        {"phase": ["1"], "dens": [[["1"], MAX_MULTIPLICITY]]}]}))
    code, out = run(capsys, "jk-residue", "--input", str(path))
    assert code == 0
    assert out == '{"value":"%s"}\n' % num_str(F(1, factorial(MAX_MULTIPLICITY - 1)))


def test_numerator_expansion_bound_is_C_of_degree_plus_vars():
    # C(179 + 3, 3) = 988,260 and C(180 + 3, 3) = 1,004,731 monomials
    def problem(degree):
        return {"vars": 3, "xi": ["1"] * 3, "terms": [{
            "num": [[[degree, 0, 0], "1"]], "phase": ["1"] * 3,
            "dens": [[["1", "1", "1"], 1], [["0", "1", "0"], 1], [["0", "0", "1"], 1]]}]}
    assert MAX_NUMERATOR_MONOMIALS == 10 ** 6
    assert parse_residue_problem(problem(179))["vars"] == 3
    with pytest.raises(ValueError, match="degree 180 in 3 variables may expand to more than"):
        parse_residue_problem(problem(180))


@pytest.mark.parametrize("group, weight, trunc, message", [
    ("A1", "1", MAX_TRUNCATION + 1, "truncation degree must be between 0 and %d, not %d"
     % (MAX_TRUNCATION, MAX_TRUNCATION + 1)),
    ("A1", "1", 10 ** 20, "truncation degree must be between 0 and %d, not %d"
     % (MAX_TRUNCATION, 10 ** 20)),
    ("A2", "1,1", 200, "truncation degree 200 for A2 expands to more than %d monomials"
     % MAX_CHARACTER_MONOMIALS),
], ids=[str(MAX_TRUNCATION + 1), str(10 ** 20), "A2-200"])
def test_character_truncation_is_bounded(capsys, group, weight, trunc, message):
    # exp_sum computed (trunc + |positive roots|)! and every monomial below it;
    # A2 at trunc 200, inside the degree bound, ran past 40 s
    start = time.perf_counter()
    code = main(["character", "--group", group, "--weight", weight, "--trunc", str(trunc)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and elapsed < 1
    assert captured.err == "input error: %s\n" % message


def test_residue_problem_lengths_are_checked_before_allocating():
    # vars 10^7 against a 1-entry xi used to build the default numerator's
    # 10^7-entry exponent tuple first (vars 10^9 asked for about 16 GB)
    doc = {"vars": 10 ** 7, "xi": ["1"], "terms": [{"phase": ["1"], "dens": [[["1"], 1]]}]}
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="has 1 entries, expected 10000000$"):
            parse_residue_problem(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20


def test_verify_single_suite(capsys):
    code, out = run(capsys, "verify", "--suite", "identity")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert any(c["id"].startswith("fiber-integral") for c in doc["checks"])


def test_fibration_group_mismatch(capsys):
    # the fixture names the group; fibration takes no --group of its own
    for group in ("A2", "A1"):
        with pytest.raises(SystemExit) as exc:
            main(["fibration", "--group", group, "--weight", "1", "--k", "1",
                  "--fixture", str(FIXTURES / "su2_three_spheres.json"), "--route", "residue"])
        captured = capsys.readouterr()
        assert exc.value.code == 1 and captured.out == ""
        assert "unrecognized arguments: --group" in captured.err


def _residue_problem(**changes):
    doc = {"vars": 2, "xi": ["1", "3"],
           "terms": [{"num": [[[0, 0], "1"]], "phase": ["1", "1"],
                      "dens": [[["1", "0"], 1], [["0", "1"], 1], [["1", "1"], 1]]}]}
    term = changes.pop("term", {})
    doc["terms"][0].update(term)
    doc.update(changes)
    return doc


def _without(doc, key, entry=None):
    """`doc` without `key`, or without `key` in the first entry of the list
    field `entry`."""
    doc = json.loads(json.dumps(doc))
    del (doc[entry][0] if entry else doc)[key]
    return doc


_FIXED_POINTS = {"group": "A1",
                 "fixed_points": [{"label": "p", "moment": ["1"], "tangent_weights": [["2"]]}]}


def _base_oracle(**changes):
    doc = {"group": "A1", "generators": [["w0", 1], ["a2", 2]], "top_degree": 0,
           "todd": [[[0, 0], "1"]], "pairing": [[[0, 0], "1"]]}
    doc.update(changes)
    return doc


@pytest.mark.parametrize("command,doc,fragment", [
    ("fibration", {"group": "A1",
                   "fixed_points": [{"label": "p", "moment": 5, "tangent_weights": [["2"]]}]},
     None),
    ("fibration", [{"group": "A1", "fixed_points": []}], None),
    ("jk-residue", {"vars": 2, "xi": ["1", "1"],
                    "terms": [{"phase": ["1"], "dens": [[["1", "0"], 1], [["0", "1"], 1]]}]},
     None),
    ("jk-residue", {"vars": 2, "xi": ["1", "1"],
                    "terms": [{"phase": ["1", "1"], "dens": [[["1", "0"], 1], [["2", "0"], 1]]}]},
     None),
    ("fibration", {"group": "A1", "fixed_points": [
        {"label": "p", "moment": ["1"], "tangent_weights": [["2"]]}, "q", 7]}, None),
    ("fibration", {"group": "A1", "fixed_points": 5}, None),
    ("fibration", {"group": "A1", "fixed_points": "nope"}, None),
    ("fibration", {"group": 5,
                   "fixed_points": [{"label": "p", "moment": ["1"], "tangent_weights": [["2"]]}]},
     None),
    ("jk-residue", _residue_problem(terms=5), "terms"),
    ("jk-residue", _residue_problem(terms=_residue_problem()["terms"] + [5]), "term 1"),
    ("jk-residue", _residue_problem(term={"dens": 5}), "dens"),
    ("jk-residue", _residue_problem(term={"num": 3}), "num"),
    ("jk-residue", _residue_problem(term={"dens": [[["1", "0"], 0], [["0", "1"], 1]]}),
     "multiplicity"),
    ("jk-residue", _residue_problem(term={"dens": [[["1", "0"], -1], [["0", "1"], 1]]}),
     "multiplicity"),
    ("jk-residue", {"vars": 0, "xi": [], "terms": []}, "vars"),
    ("base", _base_oracle(generators=5), "generators"),
    ("base", _base_oracle(pairing=5), "pairing"),
    ("base", _base_oracle(top_degree=None), "top_degree"),
    ("base", _base_oracle(pairing=[[[0, 0, 0], "1"]]), "one exponent per generator"),
    ("base", _base_oracle(todd=[[[0], "1"]]), "one exponent per generator"),
    ("fibration", {"group": "A1",
                   "fixed_points": [{"label": "p", "moment": ["1/0"], "tangent_weights": [["2"]]}]},
     "denominator"),
    ("jk-residue", _residue_problem(xi=["1/0", "1"]), "denominator"),
    ("jk-residue", {"vars": 1, "xi": ["1"],
                    "terms": [{"num": [[[-2], "1"]], "phase": ["1"], "dens": [[["1"], 1]]}]},
     "nonnegative"),
    ("base", _base_oracle(todd=[[[0, 0], "1"], [[0, -1], "1"]]), "nonnegative"),
    ("base", _base_oracle(pairing=[[[0, 0], "1"], [[2, -1], "1"]]), "nonnegative"),
    ("jk-residue", _residue_problem(term={"num": [[[0, 0], "1"], [[0, 0], "2"]]}),
     "repeated in 'num'"),
    ("base", _base_oracle(pairing=[[[0, 0], "1"], [[0, 0], "5"]]), "repeated in 'pairing'"),
    ("base", _base_oracle(todd=[[[0, 0], "1"], [[0, 0], "1"]]), "repeated in 'todd'"),
    ("jk-residue", _residue_problem(xi=["1", "-1"]), "xi pairs to zero with weight 1,1"),
    ("fibration", _without(_FIXED_POINTS, "group"), "fixed-point data has no field 'group'"),
    ("fibration", _without(_FIXED_POINTS, "fixed_points"),
     "fixed-point data has no field 'fixed_points'"),
    ("fibration", _without(_FIXED_POINTS, "moment", "fixed_points"),
     "fixed point 0 has no field 'moment'"),
    ("fibration", _without(_FIXED_POINTS, "tangent_weights", "fixed_points"),
     "fixed point 0 has no field 'tangent_weights'"),
    ("jk-residue", _without(_residue_problem(), "vars"), "residue problem has no field 'vars'"),
    ("jk-residue", _without(_residue_problem(), "xi"), "residue problem has no field 'xi'"),
    ("jk-residue", _without(_residue_problem(), "phase", "terms"), "term 0 has no field 'phase'"),
    ("jk-residue", _without(_residue_problem(), "dens", "terms"), "term 0 has no field 'dens'"),
    ("base", _without(_base_oracle(), "group"), "base oracle has no field 'group'"),
    ("base", _without(_base_oracle(), "top_degree"), "base oracle has no field 'top_degree'"),
    ("base", _without(_base_oracle(), "todd"), "base oracle has no field 'todd'"),
    # a misspelt key used to be read as its field's default and exit 0:
    # "nums" as the numerator 1 (value 1, not 5), "coord" as no frame
    ("jk-residue", {"vars": 1, "xi": ["1"],
                    "terms": [{"nums": [[[0], "5"]], "phase": ["1"], "dens": [[["1"], 1]]}]},
     "term 0 has unknown field 'nums'"),
    ("jk-residue", _residue_problem(coord=[["1", "0"], ["1", "3"]]),
     "residue problem has unknown field 'coord'"),
    ("base", _base_oracle(todd_class=[[[0, 0], "1"]]), "base oracle has unknown field 'todd_class'"),
    ("fibration", dict(json.loads((FIXTURES / "su2_three_spheres.json").read_text()),
                       oracle_factors="1;1;1"),
     "fixed-point data has unknown field 'oracle_factors'"),
    ("base", _base_oracle(group="A2"), "base fixture group A2 does not match A1"),
    ("fibration", {"group": "A1", "fixed_points": []}, "need at least one fixed point"),
    ("fibration", {"group": "A1", "fixed_points": [
        {"label": "p", "moment": ["1"], "tangent_weights": [["2"]]},
        {"label": "q", "moment": ["-1"], "tangent_weights": [["-2"], ["-2"]]}]},
     "fixed points disagree on the manifold dimension"),
    # the frame follows from xi: a frame left in an old problem file is
    # refused by name, whatever it holds, not ignored
    ("jk-residue", _residue_problem(coords=5), "residue problem has unknown field 'coords'"),
    ("jk-residue", _residue_problem(coords=[["1", "3"], ["1", "3"]]),
     "residue problem has unknown field 'coords'"),
    ("jk-residue", _residue_problem(coords=[["1", "0"], ["-1", "-3"]]),
     "residue problem has unknown field 'coords'"),
], ids=["scalar-moment", "top-level-list", "short-phase", "non-spanning-denominators",
        "non-object-fixed-point", "number-fixed-points", "string-fixed-points",
        "number-group", "number-terms", "number-term", "number-dens", "number-num",
        "zero-multiplicity", "negative-multiplicity", "zero-vars",
        "number-generators", "number-pairing", "null-top-degree", "long-pairing-monomial",
        "short-todd-monomial", "zero-denominator-moment", "zero-denominator-xi",
        "negative-num-exponent", "negative-todd-exponent",
        "negative-pairing-exponent", "repeated-num-monomial", "repeated-pairing-monomial",
        "repeated-todd-monomial", "degenerate-xi", "missing-fixture-group",
        "missing-fixed-points", "missing-moment", "missing-tangent-weights", "missing-vars",
        "missing-xi", "missing-phase", "missing-dens", "missing-base-group",
        "missing-top-degree", "missing-todd", "unknown-term-key", "unknown-problem-key",
        "unknown-base-key", "unknown-fixture-key", "base-of-another-group",
        "no-fixed-points", "mixed-dimensions", "number-coords", "singular-coords",
        "frame-outside-the-cone"])
def test_malformed_input_is_an_input_error(capsys, tmp_path, command, doc, fragment):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    if command == "jk-residue":
        argv = [command, "--input", str(path)]
    elif command == "base":
        argv = ["fibration", "--weight", "1", "--k", "1",
                "--fixture", str(FIXTURES / "su2_three_spheres.json"),
                "--base-fixture", str(path), "--route", "base"]
    else:
        argv = [command, "--weight", "1", "--k", "1", "--fixture", str(path),
                "--route", "residue"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("input error:")
    assert "Traceback" not in captured.err and captured.out == ""
    if fragment is not None:
        assert fragment in captured.err


@pytest.mark.parametrize("command,doc,fragment", [
    ("fibration", {"group": "A1", "fixed_points": [
        {"label": "p", "moment": [True], "tangent_weights": [["2"]]}]}, "got True"),
    ("fibration", {"group": "A1", "fixed_points": [
        {"label": "p", "moment": ["1"], "tangent_weights": [["2"]], "symplectic_factor": True}]},
     "got True"),
    ("jk-residue", _residue_problem(vars=True), "vars must be an integer"),
    ("jk-residue", _residue_problem(term={"num": [[[True, 0], "1"]]}), "integer exponents"),
    ("jk-residue", _residue_problem(term={"dens": [[["1", "0"], True], [["0", "1"], 1]]}),
     "multiplicity must be an integer"),
    ("base", _base_oracle(top_degree=False), "top_degree must be an integer"),
], ids=["moment", "symplectic-factor", "vars", "num-exponent", "multiplicity", "top-degree"])
def test_json_booleans_are_not_numbers(capsys, tmp_path, command, doc, fragment):
    # Python reads true as 1: "vars": true used to act as 1 variable
    test_malformed_input_is_an_input_error(capsys, tmp_path, command, doc, fragment)


@pytest.mark.parametrize("flag", ["--fixture", "--base-fixture", "--input"])
def test_deeply_nested_input_is_an_input_error(capsys, tmp_path, flag):
    # the JSON parser used to end in a RecursionError traceback
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    if flag == "--input":
        argv = ["jk-residue", "--input", str(path)]
    else:
        fixtures = {"--fixture": str(FIXTURES / "su2_three_spheres.json"),
                    "--base-fixture": str(FIXTURES / "su2_point_base.json"), flag: str(path)}
        argv = ["fibration", "--weight", "1", "--k", "1", "--route", "base"]
        argv += [part for item in fixtures.items() for part in item]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "input error: %s: JSON nested too deeply\n" % path


@pytest.mark.parametrize("factors", ["1;1", "3;1;1", "1;1;1;1", "1;2;1"])
def test_oracle_factors_must_describe_the_fixture(capsys, factors):
    # the tensor oracle used to print its value for any factors, beside a
    # residue of another manifold: "1;1" printed "oracle":0 beside "residue":"2"
    code = main(["fibration", "--weight", "1", "--k", "1", "--route", "residue",
                 "--fixture", str(FIXTURES / "su2_three_spheres.json"),
                 "--oracle-factors", factors])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "--oracle-factors %s do not describe the fixture" % factors in captured.err


def test_oracle_factors_describe_the_fixture_in_any_order(capsys):
    # moments add and tangent weights are a multiset, so the order is free
    code, out = run(capsys, "fibration", "--weight", "2", "--k", "2", "--route", "residue",
                    "--fixture", str(FIXTURES / "su2_mixed_spins.json"),
                    "--oracle-factors", "2;1;1")
    assert code == 0
    assert out == (GOLDEN / "fibration_a1_mixed_spins_k2.json").read_text()
