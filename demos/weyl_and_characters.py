"""Tour of the exact root-system layer: Weyl groups, dimensions, orbit
volumes, and truncated character classes.

Run:  python demos/weyl_and_characters.py
"""

from orbitrr import (build_root_system, character_series, enumerate_weyl_group,
                     orbit_volume, weyl_dim)

for label in ("A2", "B2", "G2"):
    rs = build_root_system(label[0], int(label[1]))
    group = enumerate_weyl_group(rs)
    print("%s: %d positive roots, |W| = %d" % (label, len(rs.positive_roots), len(group)))
    print("   rho in Dynkin labels:", rs.rho)

a2 = build_root_system("A", 2)
print()
print("dim V_(1,1) on A2 (the adjoint):", weyl_dim(a2, (1, 1)))
print("dim V_(2,1):", weyl_dim(a2, (2, 1)))
print("orbit volume through (2,1):", orbit_volume(a2, (2, 1)))
print("orbit volume through rho/2 (rational points allowed):",
      orbit_volume(a2, ("1/2", "1/2")))

a1 = build_root_system("A", 1)
print()
print("character class of the weight 2 on A1, truncated at degree 4:")
print("  ", character_series(a1, (2,), 4).to_text())
print("its constant term is the dimension:",
      character_series(a1, (2,), 4).constant_term())
print()
print("character class of (1,1) on A2 at degree 2:")
print("  ", character_series(a2, (1, 1), 2).to_text())
