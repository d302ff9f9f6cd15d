"""Monodromy of the torus fibration from the chart/cycle relation engine.

Transitions between the 20 charts are derived from the three cycle
relations by exact rewriting; composing them around a leg of the
discriminant graph produces the unipotent shear with off-diagonal 5, and
around each graph vertex three commuting shears whose product is the
identity.  The vanishing sublattices have rank 1 at triple barycenters and
rank 2 at pair barycenters.
"""

from quintfib.basecomplex import GraphEdge, GraphVertex
from quintfib import monodromy as mono
from quintfib.monodromy import ChartId


def rows(m):
    """An operator's rows, printed as lists."""
    return [list(r) for r in m]


print("single chart steps (columns = old basis in the new basis):")
for a, b in (((5, 4), (5, 2)), ((5, 2), (1, 2)), ((1, 2), (1, 4)), ((1, 4), (5, 4))):
    m = mono.transition(ChartId(*a), ChartId(*b))
    print(f"  U_{a[0]}^{a[1]} -> U_{b[0]}^{b[1]}: {rows(m)}")

leg = GraphEdge(frozenset({2, 4}), 3)
op = mono.leg_monodromy(leg, basepoint=ChartId(5, 4))
print(f"\nloop around {leg!r} at U_5^4: {rows(op.matrix)}")
rev = mono.leg_monodromy(leg, basepoint=ChartId(5, 4), orientation=-1)
print(f"reversed orientation:          {rows(rev.matrix)}")

detour = (ChartId(5, 4), ChartId(5, 1), ChartId(5, 2),
          ChartId(1, 2), ChartId(1, 4), ChartId(5, 4))
print(f"subdivided loop, same class:   {rows(mono.monodromy_along(detour).matrix)}")

for label in ({2, 3, 4}, {2, 4}):
    v = GraphVertex(frozenset(label))
    ops = mono.vertex_monodromies(v)
    print(f"\noperators around {v!r} in basis {[repr(s) for s in ops[0].basis]}:")
    for o in ops:
        print(f"  {o.label}: {rows(o.matrix)}")
    w = mono.vanishing_filtration(ops)
    print(f"  vanishing sublattice rank {w.rank}: "
          f"{[repr(n) if n else list(b) for n, b in zip(w.names, w.basis)]}")

pv = GraphVertex(frozenset({2, 4}))
c = mono.mirror_dual_conjugator(pv)
print(f"\nmirror duality at {pv!r}: the triple at its complementary vertex is")
print(f"conjugate to the dual triple via the unimodular matrix {rows(c)}")
