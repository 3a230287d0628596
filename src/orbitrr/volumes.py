"""Brute-force chamber volumes for vector partition problems.

For weights beta_1..beta_n spanning R^l and a target p, this computes the
normalized (n-l)-dimensional volume of {t >= 0 : sum t_i beta_i = p},
i.e. the density at p of the pushforward of Lebesgue measure on the
positive orthant.  An exact kernel basis makes the fiber a polytope
{y : a_i . y <= b_i} in R^d, d = n - l, measured in any d by Lasserre's
recursion (J. Optim. Theory Appl. 1983):

    vol_d(P) = (1/d) sum_i (b_i / |a_ij|) vol_{d-1}(pi_j F_i),

with F_i the face on a_i . y = b_i and pi_j dropping a coordinate j with
a_ij != 0, so every step stays rational.  Its cost grows like m!/(m-d)!
in the m distinct constraints, factorially in d: keep d small.

This is deliberately independent of the residue kernel, which tests
compare against it: it shares no code with it beyond exact linear algebra.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import kernel_basis, mat_det, solve_exact, vec


def partition_fiber_volume(weights, p) -> Fraction:
    """Normalized volume of {t >= 0 : sum t_i beta_i = p}."""
    cols = [vec(w) for w in weights]
    p = vec(p)
    n = len(cols)
    if n == 0:
        raise ValueError("need at least one weight")
    l = len(cols[0])
    for w in cols:
        if len(w) != l:
            raise ValueError("weights of lengths %d and %d" % (l, len(w)))
    if len(p) != l:
        raise ValueError("target of length %d for weights of length %d" % (len(p), l))
    b_rows = tuple(tuple(cols[j][i] for j in range(n)) for i in range(l))
    kernel = kernel_basis(b_rows)
    if len(kernel) != n - l:
        raise ValueError("weights do not span the target space")
    rhs = [tuple(Fraction(int(i == k)) for i in range(l)) for k in range(l)]
    section_cols = solve_exact(b_rows, rhs)  # consistent: the weights span

    # t(y, p) = K y + S p ; Lebesgue on R^n = |det [K | S]| dy dp
    square = tuple(tuple(([k[i] for k in kernel] + [s[i] for s in section_cols])[j]
                         for j in range(n)) for i in range(n))
    jac = abs(mat_det(square))

    base = [sum(section_cols[k][i] * p[k] for k in range(l)) for i in range(n)]
    # t_i >= 0 reads -K_i . y <= base_i
    return jac * _volume([(tuple(-k[i] for k in kernel), base[i]) for i in range(n)], n - l)


def _volume(rows, d: int) -> Fraction:
    """Volume of {y in R^d : a . y <= b for (a, b) in rows}; 0 or 1 at d = 0."""
    tight: dict = {}
    for a, b in rows:
        j = next((j for j, x in enumerate(a) if x), None)
        if j is None:
            if b < 0:
                return Fraction(0)
            continue
        # scale to |a_j| = 1 for the first j with a_j != 0; a repeated
        # facet would count twice, so equal constraints keep the tightest b
        s = abs(Fraction(a[j]))
        key = tuple(x / s for x in a)
        tight[key] = min(b / s, tight.get(key, b / s))
    if d == 0:
        return Fraction(1)
    if len(tight) < 2:
        raise ValueError("fiber is unbounded")
    total = Fraction(0)
    for a, b in tight.items():
        j = next(j for j, x in enumerate(a) if x)
        # on a . y = b: y_j = (b - sum_{k != j} a_k y_k) / a_j
        facet = [(tuple(ar[k] - ar[j] * a[k] / a[j] for k in range(d) if k != j),
                  br - ar[j] * b / a[j]) for ar, br in tight.items() if ar != a]
        total += b * _volume(facet, d - 1)  # b / |a_j| with |a_j| = 1
    return total / d
