"""Crepant resolution of the mirror's quotient singularities, torically.

The point singularities are cones over a 5-fold dilated triangle in the
dual lattice.  All 21 lattice points of the triangle are crepant rays; the
standard triangulation into 25 unit cells is unimodular, the edge-interior
rays resolve the singular curves (4 each) and the interior rays the
singular points (6 each), for 100 exceptional divisors and the Hodge
vector (1, 0, 101, 4, 101, 0, 1).
"""

from quintfib import toriccrepant as tc

classified = tc.classify_rays()
print("lattice points of the dilated triangle:")
for kind in ("vertex", "edge", "interior"):
    pts = classified[kind]
    print(f"  {kind:<9} {len(pts):>2}: {[repr(p) for p in pts]}")

print("\ncrepancy of every ray:",
      all(tc.crepancy_check(p.coords) for p in tc.enumerate_crepant_rays()))

cones = tc.triangulate_dilated_triangle()
print(f"triangulation: {len(cones)} unit cells, "
      f"all unimodular: {all(c.is_unimodular() for c in cones)}, "
      f"overlaps: {tc.coverage_report(cones)['barycenter_overlaps']}")

dc = tc.divisor_census()
print(f"\nexceptional divisors: {dc.curves} curves x {dc.per_curve} "
      f"+ {dc.points} points x {dc.per_point} = {dc.total}")

print(f"hodge vector: {tc.mirror_hodge_summary()}")
print(f"euler number: {tc.mirror_euler_number()} "
      "(opposite the quintic's -200)")
print(f"singularity-model lattice index: {tc.quotient_lattice_index()}")
