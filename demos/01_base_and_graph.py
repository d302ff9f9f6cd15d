"""The fibration base: face strata, the discriminant graph, its fattening.

The smooth members of the quintic pencil fiber over the boundary of the
moment 4-simplex.  The discriminant of the expected torus fibration is a
trivalent graph with 20 barycenter vertices and 30 legs; the gradient-flow
construction instead produces a fattened, 2-dimensional discriminant whose
strata are classified by three quintic inequalities in face coordinates.
"""

import numpy as np

from quintfib import basecomplex as bc
from quintfib import flowlab as fl

vertices, edges = bc.enumerate_graph()
print(f"graph: {len(vertices)} vertices, {len(edges)} legs")
pair = bc.GraphVertex(frozenset({2, 4}))
print(f"legs at {pair!r}: {bc.edges_at(pair)}")
triple = bc.GraphVertex(frozenset({1, 2, 3}))
print(f"legs at {triple!r}: {bc.edges_at(triple)}")

print("\nmirror involution swaps pair and triple barycenters:")
print(f"  s({pair!r}) = {pair.mirror()!r}")
print(f"  s(s({triple!r})) = {triple.mirror().mirror()!r}")

print("\nfattened discriminant strata in face coordinates (r1, r2):")
for r1, r2 in ((1.0, 1.0), (2 ** -0.2, 2 ** -0.2), (1.0, 0.0), (0.5, 0.5)):
    print(f"  ({r1:.3f}, {r2:.3f}) -> {bc.classify_fattened(r1, r2).value}")

print("\nmoment images (weights |z_k|^2 / sum):")
print("  coordinate point  ->", fl.moment_image([1, 0, 0, 0, 0]))
print("  symmetric point   ->", fl.moment_image([1, 1, 1, 1, 1]))
z = np.array([1.0, 1.0j, -1.0, 1.0, 0.0])
print("  face barycenter   ->", fl.moment_image(z))
