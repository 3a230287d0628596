"""Exact root-system and Weyl-group data for the simple compact groups of
rank at most 4 (families A, B, C, D and G2).

Every weight is a tuple of Dynkin labels, the pairings against the simple
coroots; these are the covector coordinates dual to the integer-lattice
basis of t.  The simple root alpha_i is row i of the integer Cartan
matrix, the fundamental weights are the unit vectors and rho is all ones.
The simple reflection s_i acts as lambda -> lambda - lambda_i alpha_i, so
the whole Weyl group acts by integer matrices.  The invariant form, with
long roots of squared length 2, is stored on the weight basis as an
integer matrix over a common denominator, so all pairings are exact.

The Cartan matrix is the only per-family table.  The simple root lengths
follow from its symmetrisation, the positive roots from closure under
simple reflections, and the fundamental degrees from the positive roots
by height (Kostant); the Weyl closure is checked against their product.

Simple-root coordinates appear only at the edges: ``dynkin`` and
``weight_vector`` convert between them and labels, for the root-lattice
membership test, the Freudenthal search box and the root heights.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod

from .errors import ConfigurationError
from .linalg import Mat, Vec, identity, mat_det, mat_inv, mat_mul, mat_vec, vec

SUPPORTED = {
    "A": (1, 2, 3, 4),
    "B": (2, 3, 4),
    "C": (2, 3, 4),
    "D": (4,),
    "G": (2,),
}


def _cartan_matrix(family: str, rank: int) -> Mat:
    """Cartan matrix A[i][j] = <alpha_i, alpha_j_vee>: the chain A_rank,
    edited for the other families, so node j > 0 has an earlier neighbour."""
    a = [[2 * int(i == j) for j in range(rank)] for i in range(rank)]
    for i in range(rank - 1):
        a[i][i + 1] = a[i + 1][i] = -1
    if family == "B":
        # last simple root is short
        a[rank - 2][rank - 1] = -2
    elif family == "C":
        # last simple root is long, the others short
        a[rank - 1][rank - 2] = -2
    elif family == "D":
        # fork: detach the chain end and attach it to the third-to-last node
        a[rank - 2][rank - 1] = a[rank - 1][rank - 2] = 0
        a[rank - 3][rank - 1] = a[rank - 1][rank - 3] = -1
    elif family == "G":
        a[0][1], a[1][0] = -1, -3
    return tuple(tuple(row) for row in a)


def _combine(coeffs: Vec, rows: Mat) -> Vec:
    """sum_i coeffs_i rows_i: with the Cartan matrix as rows, simple-root
    coordinates become Dynkin labels; with its inverse, the reverse."""
    return tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(len(rows)))


@dataclass(frozen=True)
class WeylElement:
    """A Weyl group element: reduced word, integer matrix acting on Dynkin
    labels, length, and sign = (-1)^length = det(matrix)."""

    word: tuple[int, ...]
    matrix: Mat
    length: int
    sign: int

    def act(self, v: Vec) -> Vec:
        return mat_vec(self.matrix, v)


@dataclass(frozen=True)
class RootSystem:
    label: str
    rank: int
    cartan: Mat
    # derived from cartan, so left out of hashing and comparison
    cartan_inv: Mat = field(compare=False)
    form: Mat
    form_scale: int
    simple_roots: tuple[Vec, ...]
    positive_roots: tuple[Vec, ...]
    fundamental_weights: tuple[Vec, ...]
    rho: Vec

    def pairing(self, u: Vec, v: Vec) -> Fraction:
        """Invariant bilinear form on Dynkin labels (long roots have squared
        length 2): u^T form v / form_scale."""
        if len(u) != self.rank or len(v) != self.rank:
            raise ValueError("dimension mismatch with rank %d" % self.rank)
        total = sum(a * f * b for a, row in zip(u, self.form) for f, b in zip(row, v))
        return Fraction(total, self.form_scale)

    def dynkin(self, v: Vec) -> Vec:
        """Dynkin labels of the vector with simple-root coordinates v."""
        return _combine(v, self.cartan)

    def weight_vector(self, labels) -> Vec:
        """Simple-root coordinates of the weight with the given Dynkin labels."""
        labels = vec(labels)
        if len(labels) != self.rank:
            raise ValueError("expected %d Dynkin labels" % self.rank)
        return _combine(labels, self.cartan_inv)

    def is_regular(self, v: Vec) -> bool:
        return all(self.pairing(g, v) != 0 for g in self.positive_roots)

    def simple_reflection_matrix(self, i: int) -> Mat:
        """s_i on labels: lambda -> lambda - lambda_i alpha_i."""
        return tuple(tuple(int(j == k) - int(k == i) * self.simple_roots[i][j]
                           for k in range(self.rank)) for j in range(self.rank))


def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct the root system of the given Cartan type.

    Positive roots are generated by closure: starting from the simple
    roots, apply simple reflections and keep every image that stays in
    the positive cone, until nothing new appears.
    """
    return _build_cached(family.upper(), int(rank))


@lru_cache(maxsize=None)
def _build_cached(family: str, rank: int) -> RootSystem:
    if family not in SUPPORTED or rank not in SUPPORTED[family]:
        raise ConfigurationError("unsupported Cartan type %s%s" % (family, rank))
    cartan = _cartan_matrix(family, rank)
    # half squared lengths d_i of the simple roots: (alpha_i, alpha_j) =
    # A_ij d_j is symmetric, so d_j = d_i A_ji / A_ij along each edge
    d = [Fraction(1)]
    for j in range(1, rank):
        i = next(i for i in range(j) if cartan[i][j])
        d.append(d[i] * Fraction(cartan[j][i], cartan[i][j]))
    # invariant form on the weight basis, long roots of length^2 2:
    # (omega_i, omega_j) = (A^-1)_ij d_j
    inv = mat_inv(cartan)
    top = max(d)
    form = [[inv[i][j] * d[j] / top for j in range(rank)] for i in range(rank)]
    scale = lcm(*(x.denominator for row in form for x in row))

    # closure in simple-root coordinates, where positivity is visible:
    # s_i changes only coordinate i, by the i-th label of the root
    positive = set(identity(rank))
    frontier = list(positive)
    while frontier:
        root = frontier.pop()
        labels = _combine(root, cartan)
        for i in range(rank):
            img = root[:i] + (root[i] - labels[i],) + root[i + 1:]
            if img not in positive and min(img) >= 0:
                positive.add(img)
                frontier.append(img)
    pos = tuple(_combine(r, cartan) for r in sorted(positive, key=lambda r: (sum(r), r)))
    if any(sum(r[k] for r in pos) != 2 for k in range(rank)):
        raise ConfigurationError("rho mismatch for %s%d" % (family, rank))
    return RootSystem(
        label="%s%d" % (family, rank),
        rank=rank,
        cartan=cartan,
        cartan_inv=inv,
        form=tuple(tuple(int(x * scale) for x in row) for row in form),
        form_scale=scale,
        simple_roots=cartan,
        positive_roots=pos,
        fundamental_weights=identity(rank),
        rho=(1,) * rank,
    )


def parse_group_label(label: str) -> RootSystem:
    """Parse a label like "A2" or "G2" into a root system."""
    label = label.strip().upper()
    if len(label) < 2 or not label[0].isalpha():
        raise ConfigurationError("bad group label %r" % label)
    try:
        rank = int(label[1:])
    except ValueError as exc:
        raise ConfigurationError("bad group label %r" % label) from exc
    return build_root_system(label[0], rank)


@lru_cache(maxsize=None)
def fundamental_degrees(rs: RootSystem) -> tuple[int, ...]:
    """Degrees of the basic Weyl-invariant polynomials, ascending.  By
    Kostant the exponents d_i - 1 are the partition dual to the numbers
    of positive roots of each height, so sum (d_i - 1) = |positive roots|
    and prod d_i = |W|."""
    per_height = Counter(sum(rs.weight_vector(r)) for r in rs.positive_roots).values()
    return tuple(sorted(1 + sum(c >= j for c in per_height) for j in range(1, rs.rank + 1)))


@lru_cache(maxsize=None)
def enumerate_weyl_group(rs: RootSystem) -> tuple[WeylElement, ...]:
    """All Weyl group elements, by breadth-first closure over reduced words.

    Deduplication is by matrix; the returned order is deterministic,
    sorted by (length, word).
    """
    ident = WeylElement(word=(), matrix=identity(rs.rank), length=0, sign=1)
    refl = [rs.simple_reflection_matrix(i) for i in range(rs.rank)]
    seen = {ident.matrix: ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in sorted(frontier, key=lambda e: e.word):
            for i in range(rs.rank):
                m = mat_mul(w.matrix, refl[i])
                if m not in seen:
                    elem = WeylElement(word=w.word + (i,), matrix=m, length=w.length + 1,
                                       sign=-w.sign)
                    seen[m] = elem
                    nxt.append(elem)
        frontier = nxt
    order = prod(fundamental_degrees(rs))  # from the root closure, not this one
    if len(seen) != order:
        raise ConfigurationError("Weyl closure found %d elements for %s, expected %d"
                                 % (len(seen), rs.label, order))
    for w in seen.values():
        if mat_det(w.matrix) != w.sign:
            raise ConfigurationError("sign/determinant mismatch in %s" % rs.label)
    return tuple(sorted(seen.values(), key=lambda e: (e.length, e.word)))
