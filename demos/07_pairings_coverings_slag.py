"""Loop pairings, covering counts and the explicit special Lagrangians.

Three numerical probes supporting the symbolic story: the pairing matrix
between chart cycles and logarithmic forms (a Kronecker delta with one
column of -1), the number of times a fiber torus meets the singular
surface over each fattened stratum (50 / 25 / 5), and the calibration
check on the torus-invariant special Lagrangian fibers in C^3.
"""

import numpy as np

from quintfib import flowlab as fl

print("pairing matrix in the chart with divisor 1, dominant 2:")
print("        " + "".join(f"  l={l}" for l in (1, 3, 4, 5)))
for k in (3, 4, 5):
    # one loop computation serves the row's four forms
    row = [res.value for res in
           fl.loop_pairing_detailed((1, 2, k), [(l, 2) for l in (1, 3, 4, 5)])]
    print(f"  k={k}: " + "".join(f"  {v:>3d}" for v in row))

print("\ncovering counts over the fattened discriminant:")
edge = 2.0 ** (-1.0 / 5.0)
for r1, r2 in ((1.0, 1.0), (1.1, 0.9), (edge, edge), (1.0, 0.0)):
    from quintfib.basecomplex import classify_fattened
    stratum = classify_fattened(r1, r2).value
    print(f"  ({r1:.3f}, {r2:.3f}) [{stratum:<9}]: "
          f"{fl.covering_count(r1, r2)} points")

print("\nspecial Lagrangian fibers in C^3:")
for c in ((0.0, 1.0, 1.0), (0.4, 1.0, 0.7), (0.0, -1.0, 0.0), (0.0, 0.0, 0.0)):
    res = fl.hl_fiber_probe(c, n_samples=48)
    kind, branch = res.classification
    extra = f", branch {branch}" if branch else ""
    print(f"  c = {c}: defect {res.slag_defect:.1e} ({kind}{extra})")

res = fl.hl_fiber_probe((0.0, 0.0, 0.0), n_samples=100)
print(f"\norigin fiber rank drop: axis samples {res.axis_ranks}, "
      f"generic samples all rank 3: {all(r == 3 for r in res.generic_ranks)}")
