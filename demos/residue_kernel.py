"""The residue kernel at work: one-variable residue sums with the
sign rule, iterated cone residues, and their agreement with chamber
volumes of vector partition problems.

Run:  python demos/residue_kernel.py
"""

from fractions import Fraction as F

from orbitrr import TruncatedSeries, make_term, partition_fiber_volume, res_cone, res_plus_1d
from orbitrr.linalg import vec_str

one = TruncatedSeries.constant(1, 1)

print("res+ of e^{3z}/z^2 (positive phase, double pole):",
      res_plus_1d([make_term(1, one, (F(3),), [((F(1),), 2)])], 0)[0][0].numerator.to_text())
print("res+ of e^{-2z}/z (negative phase):",
      res_plus_1d([make_term(1, one, (F(-2),), [((F(1),), 1)])], 0)[0] or 0)

weights = [(F(1), F(0)), (F(0), F(1)), (F(1), F(1))]
xi = (F(1), F(3))
print()
print("weights:", " ".join(map(vec_str, weights)), " xi:", vec_str(xi))

one2 = TruncatedSeries.constant(1, 2)
for p in [(F(1), F(1)), (F(2), F(1)), (F(1), F(3)), (F(5), F(2))]:
    term = make_term(2, one2, p, [(w, 1) for w in weights])
    value, _ = res_cone([term], xi)
    volume = partition_fiber_volume(weights, p)
    print("p = %-14s  iterated residue = %-5s  chamber volume = %-5s  %s"
          % (vec_str(p), value, volume, "agree" if value == volume else "DISAGREE"))

print()
print("the volume function of this weight system is min(p1, p2), piecewise")
print("linear across the wall p1 = p2; the residue reproduces each branch")
print("because the sign rule switches which poles contribute.")
