"""Combinatorics and geometry of the fibration base.

The base is the boundary of the 4-simplex Delta, the image of projective
space under the torus moment map with vertices P_1..P_5.  Proper faces are
indexed by subsets I of {1..5} (the coordinates that vanish there).

Two discriminants live here:

- the graph Gamma: vertices are the barycenters P_ij of 2-faces and P_ijk of
  3-faces, and 30 legs connect each P_ijk to its three P_ij;
- the fattened discriminant: a 2-dimensional thickening, described inside a
  2-face by the coordinates r = (r1, r2) and the three quintic inequalities
  r1^5 + r2^5 >= 1,  r1^5 + 1 >= r2^5,  r2^5 + 1 >= r1^5.

The mirror involution `GraphVertex.mirror` sends every graph vertex to the
vertex of the complementary index set, swapping pair and triple barycenters.
"""

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from math import inf

INDEX_SET = frozenset({1, 2, 3, 4, 5})


@dataclass(frozen=True)
class GraphVertex:
    """Barycenter vertex of the discriminant graph.

    Indices name the spanning vertices of the simplex face: kind 'pair' is
    P_ij, the midpoint of the edge joining the i-th and j-th vertices (two
    coordinates 1/2); kind 'triple' is P_ijk, the barycenter of the face
    they span (three coordinates 1/3).
    """

    indices: frozenset

    def __post_init__(self):
        idx = frozenset(self.indices)
        object.__setattr__(self, "indices", idx)
        if not idx <= INDEX_SET or len(idx) not in (2, 3):
            raise ValueError(f"graph vertices are P_ij or P_ijk, got {sorted(idx)}")

    @property
    def kind(self):
        return "pair" if len(self.indices) == 2 else "triple"

    def mirror(self):
        return GraphVertex(INDEX_SET - self.indices)

    def __repr__(self):
        return "P_{%s}" % "".join(str(i) for i in sorted(self.indices))


@dataclass(frozen=True)
class GraphEdge:
    """Leg of the discriminant graph joining P_ijk to P_ij.

    `pair` is the unordered pair {i, j}; `apex` is k, the remaining index of
    the triple vertex.
    """

    pair: frozenset
    apex: int

    def __post_init__(self):
        p = frozenset(self.pair)
        object.__setattr__(self, "pair", p)
        if len(p) != 2 or not p <= INDEX_SET:
            raise ValueError("leg pair must be two indices in 1..5")
        if self.apex not in INDEX_SET or self.apex in p:
            raise ValueError("leg apex must be a third index")

    @property
    def pair_vertex(self):
        return GraphVertex(self.pair)

    @property
    def triple_vertex(self):
        return GraphVertex(self.pair | {self.apex})

    def __repr__(self):
        i, j = sorted(self.pair)
        return f"Gamma_{i}{j}^{self.apex}"


class FattenedStratum(Enum):
    INTERIOR2 = "Interior2"
    EDGE1 = "Edge1"
    VERTEX0 = "Vertex0"
    OUTSIDE = "Outside"


def enumerate_graph():
    """All vertices and legs of the discriminant graph.

    Returns (vertices, edges): 10 pair vertices + 10 triple vertices, and the
    30 legs.  Every vertex is incident to exactly three legs.
    """
    vertices = [GraphVertex(frozenset(c)) for c in combinations(range(1, 6), 2)]
    vertices += [GraphVertex(frozenset(c)) for c in combinations(range(1, 6), 3)]
    edges = []
    for c in combinations(range(1, 6), 2):
        pair = frozenset(c)
        for apex in sorted(INDEX_SET - pair):
            edges.append(GraphEdge(pair, apex))
    return vertices, edges


def edges_at(vertex):
    """The three legs incident to a graph vertex, ordered by apex."""
    if vertex.kind == "pair":
        return [GraphEdge(vertex.indices, k)
                for k in sorted(INDEX_SET - vertex.indices)]
    legs = []
    for k in sorted(vertex.indices):
        legs.append(GraphEdge(vertex.indices - {k}, k))
    return legs


def classify_fattened(r1, r2, tol=1e-9):
    """Stratum of the point (r1, r2) relative to the fattened discriminant.

    The region is cut out by r1^5 + r2^5 >= 1, r1^5 + 1 >= r2^5 and
    r2^5 + 1 >= r1^5 inside the quadrant.  Interior2 means all three hold
    strictly (margin > tol); Vertex0 is within tol of (1, 0) or (0, 1);
    Edge1 is on a boundary curve; everything else is Outside.
    """
    if not (0 <= r1 < inf and 0 <= r2 < inf):  # also refuses NaN
        raise ValueError(f"face coordinates must be finite and nonnegative, "
                         f"got ({r1}, {r2})")
    a, b = float(r1) ** 5, float(r2) ** 5
    exprs = (a + b - 1.0, a + 1.0 - b, b + 1.0 - a)
    if min((r1 - 1.0) ** 2 + r2 ** 2, r1 ** 2 + (r2 - 1.0) ** 2) <= tol ** 2:
        return FattenedStratum.VERTEX0
    if all(e > tol for e in exprs):
        return FattenedStratum.INTERIOR2
    if any(abs(e) <= tol for e in exprs) and all(e >= -tol for e in exprs):
        return FattenedStratum.EDGE1
    return FattenedStratum.OUTSIDE


def graph_json():
    """JSON-friendly description of the graph with stable key order."""
    vertices, edges = enumerate_graph()
    vput = [{"name": repr(v), "kind": v.kind,
             "indices": sorted(v.indices),
             "barycentric": [f"1/{len(v.indices)}" if i in v.indices else "0"
                             for i in range(1, 6)]}
            for v in vertices]
    eput = [{"name": repr(e), "pair": sorted(e.pair), "apex": e.apex,
             "endpoints": [repr(e.triple_vertex), repr(e.pair_vertex)]}
            for e in edges]
    inc = {repr(v): [repr(e) for e in edges_at(v)] for v in vertices}
    return {"vertices": vput, "edges": eput, "incidence": inc}
