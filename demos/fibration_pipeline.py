"""End to end: the Riemann-Roch number of the fibration built from three
SU(2) spheres, computed three independent ways.

The manifold is the product of three unit coadjoint orbits; its reduction
at zero is a single point (the equilateral triangle), so the base route
needs only the point intersection oracle.  The residue route sums the
(fixed point, Weyl element) contributions into one rational-exponential
term per (phase, tangent-weight multiset) and takes an iterated residue;
its overall constant det(Cartan) / |W| (1 for SU(2)) is derived from the
root system and frozen in the registry.  The tensor-product oracle is pure
representation-theoretic combinatorics and shares no code with either.

Run:  python demos/fibration_pipeline.py
"""

from orbitrr import (BaseIntersectionOracle, CalibrationRegistry, build_root_system,
                     fibration_rr_base, fibration_rr_residue, product_orbit_fixed_data,
                     tensor_multiplicity)
from orbitrr.linalg import vec_str

a1 = build_root_system("A", 1)
points = product_orbit_fixed_data(a1, [(1,), (1,), (1,)])
print("fixed points of the product of three spheres:")
for pt in points:
    print("  label %-10s moment %-6s tangent weights %s"
          % (pt.label, vec_str(pt.moment), " ".join(map(vec_str, pt.tangent_weights))))

registry = CalibrationRegistry()
oracle = BaseIntersectionOracle.point(a1)
print()
print(" k | residue route | base route | tensor oracle")
for k in range(1, 7):
    res = fibration_rr_residue(points, a1, (1,), k, registry=registry)
    base = fibration_rr_base(oracle, a1, (1,), k)
    tens = tensor_multiplicity(a1, [(k,)] * 3, (k,))
    print("%2d | %13s | %10s | %13s" % (k, res, base, tens))
print()
print("calibrated constant det(Cartan) / |W| for A1:", registry.constant_for(a1, 3))
