"""Toric crepant resolution of the mirror quotient singularities.

The point singularities of the quotient are modeled by the affine toric
variety of the cone spanned by 5e^1, 5e^2, 5e^3 inside the lattice
M = <5e^1, 5e^2, 5e^3, e^1+e^2+e^3>.  Resolving means subdividing the dual
cone, spanned by e_1, e_2, e_3 in the dual lattice N; crepancy of an added
ray v is the condition that v is a convex combination of e_1, e_2, e_3
with coefficient sum exactly 1.

The rays available for a crepant subdivision are the 21 points
(i/5, j/5, k/5) with i + j + k = 5 in the dilated triangle; the standard
triangulation into 25 unit cells is unimodular and uses all of them.  Any
unimodular triangulation gives the same divisor census (the count depends
only on the ray set), so the standard one is chosen.

N consists of the rational vectors (a, b, c)/5 with a + b + c divisible
by 5.  Every point of N is held in the integer chart
w -> (5 w_1, 5 w_1 + 5 w_2, w_1 + w_2 + w_3), the coordinates of w in the
Z-basis (1, -1, 0)/5, (0, 1, -1)/5, (0, 0, 1) of N, so all arithmetic is
over the integers.  The point (i, j, k)/5 of the triangle reads
(i, i + j, 1) there.
"""

from dataclasses import dataclass

from . import ratkernel


@dataclass(frozen=True)
class LatticePoint:
    """Point v_{ijk} = (i e_1 + j e_2 + k e_3)/5 of the dilated triangle."""

    i: int
    j: int
    k: int

    def __post_init__(self):
        if self.i < 0 or self.j < 0 or self.k < 0 or self.i + self.j + self.k != 5:
            raise ValueError("triangle points have nonnegative i+j+k = 5")

    @property
    def coords(self):
        """The point in N's integer chart."""
        return (self.i, self.i + self.j, 1)

    @property
    def classification(self):
        zeros = (self.i == 0) + (self.j == 0) + (self.k == 0)
        if zeros == 2:
            return "vertex"
        if zeros == 1:
            return "edge"
        return "interior"

    def __repr__(self):
        return f"v_{self.i}{self.j}{self.k}"


@dataclass(frozen=True)
class LatticeCone:
    """Simplicial cone spanned by three points of the dilated triangle."""

    generators: tuple

    def determinant(self):
        return ratkernel.det([g.coords for g in self.generators])

    def is_unimodular(self):
        return abs(self.determinant()) == 1


def crepancy_check(ray):
    """Whether a ray extends the volume form without zeros or poles.

    True exactly when ray = sum(lambda_i * e_i) with lambda_i >= 0 and
    sum(lambda_i) = 1; equivalently the dual weight functional takes the
    value 1 on the ray.  The ray is given in N's chart as (a, b, c), so
    lambda = (a, b - a, 5c - b)/5 and sum(lambda) = c.
    """
    coords = [ratkernel.as_int(x) for x in ray]
    if len(coords) != 3:
        raise ValueError("a ray of the dual cone has three coordinates")
    a, b, c = coords
    return c == 1 and 0 <= a <= b <= 5


def enumerate_crepant_rays():
    """All 21 dual-lattice points of the dilated triangle, classified.

    3 vertices, 4 interior points on each of the 3 edges, 6 interior
    points; every one of them passes the crepancy check.
    """
    pts = []
    for i in range(5, -1, -1):
        for j in range(5 - i, -1, -1):
            pts.append(LatticePoint(i, j, 5 - i - j))
    return pts


def classify_rays():
    out = {"vertex": [], "edge": [], "interior": []}
    for p in enumerate_crepant_rays():
        out[p.classification].append(p)
    return out


def triangulate_dilated_triangle():
    """Standard unimodular triangulation of the dilated triangle, as its
    tuple of 25 cones.

    Upward cells {(i,j,k), (i-1,j+1,k), (i-1,j,k+1)} and downward cells
    {(i,j,k), (i+1,j-1,k), (i,j-1,k+1)} tile the triangle into 25 unit
    cells; each spans a unimodular subcone of the dual cone.
    """
    cones = []
    for a in range(5):
        for b in range(5 - a):
            up = (LatticePoint(a, b, 5 - a - b),
                  LatticePoint(a + 1, b, 4 - a - b),
                  LatticePoint(a, b + 1, 4 - a - b))
            cones.append(LatticeCone(up))
            if a + b <= 3:
                down = (LatticePoint(a + 1, b, 4 - a - b),
                        LatticePoint(a, b + 1, 4 - a - b),
                        LatticePoint(a + 1, b + 1, 3 - a - b))
                cones.append(LatticeCone(down))
    return tuple(cones)


def coverage_report(cones):
    """Cell count and pairwise interior disjointness of a triangulation's
    unimodular cones.

    In N's integer chart a cone's generators are the columns of a unimodular
    matrix G, and three times a cell's barycenter (the chart is linear) is
    the sum p of its charted generators; the barycenter lies strictly inside
    another cone's triangle exactly when every coordinate of G^{-1} p is
    positive.  Each G is inverted once, and every ordered pair of distinct
    cells is counted.
    """
    charted = [[v.coords for v in c.generators] for c in cones]
    inverses = [ratkernel.inverse(tuple(zip(*g))) for g in charted]
    sums = [[sum(x) for x in zip(*g)] for g in charted]
    overlaps = sum(all(sum(x * y for x, y in zip(row, p)) > 0 for row in inv)
                   for i, inv in enumerate(inverses)
                   for j, p in enumerate(sums) if i != j)
    return {"cells": len(cones), "barycenter_overlaps": overlaps}


@dataclass(frozen=True)
class DivisorCount:
    per_curve: int
    per_point: int
    curves: int
    points: int

    @property
    def total(self):
        return self.per_curve * self.curves + self.per_point * self.points


def divisor_census():
    """Exceptional divisors of the crepant resolution of the quotient.

    Each of the 10 singular curves contributes the 4 edge-interior rays of
    one triangle edge; each of the 10 singular points contributes the 6
    interior rays.
    """
    classified = classify_rays()
    per_edge = len(classified["edge"]) // 3
    per_point = len(classified["interior"])
    return DivisorCount(per_curve=per_edge, per_point=per_point,
                        curves=10, points=10)


def mirror_hodge_summary():
    """Betti/Hodge vector (h^0..h^6) of the resolved mirror.

    h^2 counts the ambient polarization class plus one class per
    exceptional divisor; h^4 matches by duality; h^3 = 4 is the middle
    cohomology forced by the mirror spectral-sequence table.
    """
    total = divisor_census().total
    h2 = 1 + total
    return (1, 0, h2, 4, h2, 0, 1)


def mirror_euler_number():
    h = mirror_hodge_summary()
    return sum((-1) ** i * x for i, x in enumerate(h))


def quotient_lattice_index():
    """Index in Z^3 of the sublattice <5e^1, 5e^2, 5e^3, e^1+e^2+e^3>.

    Structural check on the singularity model: the product of the Hermite
    normal form's pivots (the value 25 is not consumed anywhere else).
    """
    gens = [[5, 0, 0], [0, 5, 0], [0, 0, 5], [1, 1, 1]]
    return ratkernel.sublattice_index(gens)


def toric_json():
    classified = classify_rays()
    cones = triangulate_dilated_triangle()
    dc = divisor_census()
    return {
        "rays": [repr(p) for p in enumerate_crepant_rays()],
        "classification": {k: [repr(p) for p in v]
                           for k, v in sorted(classified.items())},
        "triangulation": {
            "cells": len(cones),
            "all_unimodular": all(c.is_unimodular() for c in cones),
            "all_crepant": all(crepancy_check(p.coords)
                               for p in enumerate_crepant_rays()),
        },
        "divisor_census": {
            "per_curve": dc.per_curve, "per_point": dc.per_point,
            "curves": dc.curves, "points": dc.points, "total": dc.total,
        },
        "hodge": list(mirror_hodge_summary()),
        "euler": mirror_euler_number(),
        "quotient_lattice_index": quotient_lattice_index(),
    }
