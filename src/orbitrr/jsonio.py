"""JSON interchange: exact rationals travel as strings "p/q", vectors as
lists of such strings, series in their canonical text form.

Three file schemas are read here (documented in the README): fixed-point
data for the residue route, intersection oracles for the base route, and
standalone residue problems.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb

from .linalg import Vec, num_str, rref, vec
from .localization import BaseIntersectionOracle, FixedPointDatum
from .residues import RatExpTerm, make_term
from .roots import RootSystem, parse_group_label
from .series import TruncatedSeries

# a residue problem bounds all three: a pole of order m takes m slices and
# (m - 1)!, a change of frame steps through every numerator power, and a
# Taylor shift can give a degree-d numerator all C(d + n, n) monomials
MAX_MULTIPLICITY = 10_000
MAX_NUMERATOR_DEGREE = 1_000
MAX_NUMERATOR_MONOMIALS = 1_000_000


def parse_fraction(s) -> Fraction:
    # a JSON boolean is an int to Python, but never a number here
    if type(s) is int:
        return Fraction(s)
    if isinstance(s, str):
        try:
            return Fraction(s)
        except ZeroDivisionError:
            raise ValueError("zero denominator in %r" % (s,)) from None
    raise ValueError("expected an integer or a 'p/q' string, got %r" % (s,))


def parse_vector(v) -> Vec:
    if not isinstance(v, list):
        raise ValueError("expected a list of rationals, got %r" % (v,))
    return vec(parse_fraction(c) for c in v)


def _parse_covector(v, n: int, what: str) -> Vec:
    out = parse_vector(v)
    if len(out) != n:
        raise ValueError("%s %r has %d entries, expected %d" % (what, v, len(out), n))
    return out


def _field(obj: dict, key: str, what: str):
    """The required field `key` of `obj`, which the message calls `what`."""
    if key not in obj:
        raise ValueError("%s has no field %r" % (what, key))
    return obj[key]


def _refuse_unknown(obj: dict, fields: set, what: str) -> None:
    """A misspelt key would otherwise be read as its field's default."""
    unknown = sorted(obj.keys() - fields)
    if unknown:
        raise ValueError("%s has unknown field %r" % (what, unknown[0]))


def _list_field(obj: dict, key: str, what: str) -> list:
    value = _field(obj, key, what)
    if not isinstance(value, list):
        raise ValueError("field %r must be a list, not %r" % (key, value))
    return value


def _pair_list(obj: dict, key: str, what: str) -> list:
    """A list field whose entries are two-element lists, such as
    [monomial, coefficient] rows or [form, multiplicity] denominators."""
    rows = _list_field(obj, key, what)
    for row in rows:
        if not isinstance(row, list) or len(row) != 2:
            raise ValueError("entries of %r must be two-element lists, not %r" % (key, row))
    return rows


def _parse_int(value, what: str, least: int, most: int | None = None) -> int:
    if type(value) is not int or value < least:
        raise ValueError("%s must be an integer >= %d, not %r" % (what, least, value))
    if most is not None and value > most:
        raise ValueError("%s must be at most %d, not %d" % (what, most, value))
    return value


def _parse_monomial(mono) -> tuple[int, ...]:
    if not isinstance(mono, list) or not all(type(e) is int for e in mono):
        raise ValueError("expected a list of integer exponents, got %r" % (mono,))
    if any(e < 0 for e in mono):
        raise ValueError("exponents must be nonnegative, got %r" % (mono,))
    return tuple(mono)


def _parse_table(rows, key: str) -> dict[tuple[int, ...], Fraction]:
    table = {_parse_monomial(mono): parse_fraction(c) for mono, c in rows}
    if len(table) < len(rows):
        raise ValueError("a monomial is repeated in %r" % key)
    return table


def _parse_group(doc: dict, what: str) -> RootSystem:
    label = _field(doc, "group", what)
    if not isinstance(label, str):
        raise ValueError("group must be a label string such as \"A2\", not %r" % (label,))
    return parse_group_label(label)


def _load_object(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("%s: JSON nested too deeply" % path) from None
    if not isinstance(doc, dict):
        raise ValueError("%s: top level must be a JSON object, not %s"
                         % (path, type(doc).__name__))
    return doc


def parse_weight_labels(text: str) -> Vec:
    """Comma-separated Dynkin labels, integers or rationals: "2,1" or "1/2,1"."""
    return vec(parse_fraction(part.strip()) for part in text.split(","))


def canonical_json(obj) -> str:
    """json.dumps(obj, sort_keys=True, separators=(",", ":")) and a newline,
    with ints of any length, rendered by ``linalg.num_str``."""
    def enc(o):
        if isinstance(o, dict):
            return "{%s}" % ",".join(json.dumps(k) + ":" + enc(o[k]) for k in sorted(o))
        if isinstance(o, (list, tuple)):
            return "[%s]" % ",".join(map(enc, o))
        return num_str(o) if type(o) is int else json.dumps(o)
    return enc(obj) + "\n"


# ----------------------------------------------------------------------
# fixed-point data files


def parse_fixed_points(doc: dict) -> tuple[RootSystem, tuple[FixedPointDatum, ...]]:
    what = "fixed-point data"
    _refuse_unknown(doc, {"group", "fixed_points"}, what)
    rs = _parse_group(doc, what)
    points = []
    for entry in _list_field(doc, "fixed_points", what):
        if not isinstance(entry, dict):
            raise ValueError("fixed point %d must be an object, not %r" % (len(points), entry))
        point = "fixed point %d" % len(points)
        _refuse_unknown(entry, {"label", "moment", "tangent_weights", "symplectic_factor"}, point)
        points.append(FixedPointDatum(
            label=str(entry.get("label", "F%d" % len(points))),
            moment=_parse_covector(_field(entry, "moment", point), rs.rank, "moment"),
            tangent_weights=tuple(_parse_covector(w, rs.rank, "tangent weight")
                                  for w in _list_field(entry, "tangent_weights", point)),
            symplectic_factor=parse_vector([entry.get("symplectic_factor", 1)])[0],
        ))
    return rs, tuple(points)


def load_fixed_points(path) -> tuple[RootSystem, tuple[FixedPointDatum, ...]]:
    return parse_fixed_points(_load_object(path))


# ----------------------------------------------------------------------
# base intersection oracle files


def parse_base_oracle(doc: dict) -> tuple[RootSystem, BaseIntersectionOracle]:
    what = "base oracle"
    _refuse_unknown(doc, {"group", "generators", "top_degree", "pairing", "todd"}, what)
    rs = _parse_group(doc, what)
    generators = _pair_list(doc, "generators", what)
    oracle = BaseIntersectionOracle(
        generator_names=tuple(str(n) for n, _ in generators),
        generator_degrees=tuple(_parse_int(d, "generator degree", 1) for _, d in generators),
        top_degree=_parse_int(_field(doc, "top_degree", what), "top_degree", 0),
        pairing=_parse_table(_pair_list(doc, "pairing", what), "pairing"),
        todd=_parse_table(_pair_list(doc, "todd", what), "todd"),
    )
    return rs, oracle


def load_base_oracle(path) -> tuple[RootSystem, BaseIntersectionOracle]:
    return parse_base_oracle(_load_object(path))


# ----------------------------------------------------------------------
# standalone residue problems


def parse_residue_problem(doc: dict) -> dict:
    what = "residue problem"
    _refuse_unknown(doc, {"vars", "terms", "xi"}, what)
    num_vars = _parse_int(_field(doc, "vars", what), "vars", 1)
    # every length is checked against vars before the default numerator,
    # the one object whose size is vars rather than the input's, is built
    xi = _parse_covector(_field(doc, "xi", what), num_vars, "xi")
    terms: list[RatExpTerm] = []
    for t in _list_field(doc, "terms", what):
        if not isinstance(t, dict):
            raise ValueError("term %d must be an object, not %r" % (len(terms), t))
        term = "term %d" % len(terms)
        _refuse_unknown(t, {"num", "phase", "dens"}, term)
        phase = _parse_covector(_field(t, "phase", term), num_vars, "phase")
        dens = [(_parse_covector(form, num_vars, "denominator"),
                 _parse_int(mult, "denominator multiplicity", 1, MAX_MULTIPLICITY))
                for form, mult in _pair_list(t, "dens", term)]
        if len(rref([form for form, _ in dens], num_vars)[1]) < num_vars:
            # such a term has no iterated residue: it would silently add 0
            raise ValueError("the denominators of term %d do not span the %d variables"
                             % (len(terms), num_vars))
        rows = _pair_list(t, "num", term) if "num" in t else [[[0] * num_vars, "1"]]
        num = TruncatedSeries(num_vars, _parse_table(rows, "num"), None)
        degree = _parse_int(num.max_degree(), "numerator degree", 0, MAX_NUMERATOR_DEGREE)
        if comb(degree + num_vars, num_vars) > MAX_NUMERATOR_MONOMIALS:
            raise ValueError("a numerator of degree %d in %d variables may expand to more than "
                             "%d monomials" % (degree, num_vars, MAX_NUMERATOR_MONOMIALS))
        terms.append(make_term(num_vars, num, phase, dens))
    return {"vars": num_vars, "terms": terms, "xi": xi}


def load_residue_problem(path) -> dict:
    return parse_residue_problem(_load_object(path))


def fixture_path(name: str):
    """Path of a fixture shipped with the package (see src/orbitrr/fixtures)."""
    from importlib.resources import files

    return files("orbitrr").joinpath("fixtures", name)
