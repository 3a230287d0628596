"""Small exact-rational linear algebra helpers on tuples whose entries
are ints where integral and Fractions otherwise; ``vec`` alone decides.

Everything here works on immutable tuples so results can live inside
frozen dataclasses and be hashed/cached.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Vec = tuple[int | Fraction, ...]
Mat = tuple[Vec, ...]


def _exact(e) -> int | Fraction:
    q = e if type(e) is int else Fraction(e)
    return q.numerator if q.denominator == 1 else q


def vec(entries) -> Vec:
    """The one weight normaliser: each entry an int or, if not integral, a Fraction."""
    return tuple(map(_exact, entries))


def vec_str(v) -> str:
    """Comma-joined entries, the command line's label syntax: "1,-1", "1/2"."""
    return ",".join(map(str, v))


def vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_dot(u: Vec, v: Vec) -> Fraction:
    """Dot product; stays an int when both vectors are integer."""
    return sum(a * b for a, b in zip(u, v, strict=True))


def mat_vec(m: Mat, v: Vec) -> Vec:
    return tuple(vec_dot(row, v) for row in m)


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = tuple(zip(*b))
    return tuple(tuple(vec_dot(row, col) for col in bt) for row in a)


def identity(n: int) -> Mat:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def rref(m, ncols: int) -> tuple[list[list[Fraction]], list[int], Fraction]:
    """Reduced row echelon form over the rationals, pivoting only in the
    first `ncols` columns (the rest are carried along, e.g. right-hand
    sides).  Entries are coerced to Fraction, so int input stays exact.

    Returns (rows, pivot columns, scale), where scale is the product of
    the pivots negated once per row swap: det(m) for a square m of full
    rank.
    """
    rows = [[Fraction(x) for x in row] for row in m]
    pivots: list[int] = []
    scale = Fraction(1)
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            scale = -scale
        p = rows[r][c]
        scale *= p
        rows[r] = [x / p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots, scale


def mat_det(m: Mat) -> Fraction:
    n = len(m)
    _, pivots, scale = rref(m, n)
    return scale if len(pivots) == n else Fraction(0)


def mat_inv(m: Mat) -> Mat:
    """Exact inverse; raises ZeroDivisionError on singular input."""
    n = len(m)
    rows, pivots, _ = rref([list(r) + [int(i == j) for j in range(n)]
                            for i, r in enumerate(m)], n)
    if len(pivots) < n:
        raise ZeroDivisionError("singular matrix")
    return tuple(tuple(row[n:]) for row in rows)


def solve_exact(a: Mat, b: list[Vec]) -> list[Vec] | None:
    """Solve a (possibly non-square, possibly inconsistent) system a·x = b.

    `b` is a list of right-hand-side vectors handled simultaneously.
    Returns one exact solution per rhs (free variables set to 0), or None
    when any rhs is inconsistent.
    """
    ncols = len(a[0]) if a else 0
    aug = [list(row) + [rhs[i] for rhs in b] for i, row in enumerate(a)]
    rows, pivots, _ = rref(aug, ncols)
    if any(x != 0 for row in rows[len(pivots):] for x in row[ncols:]):
        return None
    out = []
    for k in range(len(b)):
        x = [Fraction(0)] * ncols
        for i, c in enumerate(pivots):
            x[c] = rows[i][ncols + k]
        out.append(tuple(x))
    return out


def kernel_basis(a: Mat) -> list[Vec]:
    """Basis of the right kernel of `a`, via reduced row echelon form."""
    ncols = len(a[0]) if a else 0
    rows, pivots, _ = rref(a, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -rows[i][f]
        basis.append(tuple(v))
    return basis


def primitive_covector(form) -> tuple[tuple[int, ...], Fraction]:
    """Scale a nonzero covector of ints or Fractions to coprime integers with
    positive leading entry. Returns (canonical int form, scalar) with
    form = scalar·canonical.
    """
    denom_lcm = lcm(*(e.denominator for e in form))
    ints = [int(e * denom_lcm) for e in form]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero covector has no canonical form")
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints), Fraction(g, denom_lcm)
