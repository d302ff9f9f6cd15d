"""Chart/cycle algebra and monodromy of the torus fibration.

Away from the discriminant graph the fibration is a smooth 3-torus bundle;
its first homology is tracked through an atlas of 20 charts U_i^j (divisor
index i, dominant index j, i != j).  Chart U_i^j carries the canonical
ordered basis (gamma_i^k for k not in {i, j}, k ascending), where gamma_i^k
is the circle class on which the coordinate ratio with index k winds once.

The 20 symbols gamma_i^j satisfy, chart-locally,

    sum_{j != i} gamma_i^j = 0
    gamma_i^j + gamma_j^i = 0
    gamma_i^j + gamma_j^k + gamma_k^i = 0

Inside chart U_i^j, with the sum relation taken for the divisor row i,
they have one solution: gamma_m^a = v_a - v_m, where the corner class v_k
is e_k for a basis index k, -(1, 1, 1) for the dominant index j (the sum
relation) and 0 for the divisor index i.  Every transition matrix below is
read off this solution, and the tests hold it to the relations in all 20
charts.  The symbols are deliberately never globalized into a single
lattice: the global relations are inconsistent, and that inconsistency is
precisely the monodromy picked up around the legs of the discriminant
graph.

Orientation convention: the loop around a leg with pair {i, j} and apex k is
traversed as U_m^j -> U_m^i -> U_l^i -> U_l^j -> U_m^j where (i, j, k, l, m)
is an even permutation of (1, 2, 3, 4, 5); this is declared the positive
orientation, and reversing a loop inverts its operator.
"""

from dataclasses import dataclass
from itertools import product as iter_product
from typing import NamedTuple

import numpy as np

from . import ratkernel
from .basecomplex import INDEX_SET, edges_at, enumerate_graph


@dataclass(frozen=True)
class CycleSymbol:
    """The class gamma_m^l: lower (base divisor) index m, upper index l."""

    base: int
    upper: int

    def __post_init__(self):
        if self.base not in INDEX_SET or self.upper not in INDEX_SET:
            raise ValueError("cycle indices must lie in 1..5")
        if self.base == self.upper:
            raise ValueError("cycle indices must differ")

    def __repr__(self):
        return f"gamma_{self.base}^{self.upper}"


@dataclass(frozen=True)
class SignedSymbol:
    sign: int
    symbol: CycleSymbol

    def __repr__(self):
        return ("-" if self.sign < 0 else "") + repr(self.symbol)


@dataclass(frozen=True)
class ChartId:
    """Chart U_i^j: divisor index i, dominant index j."""

    divisor: int
    dominant: int

    def __post_init__(self):
        if self.divisor not in INDEX_SET or self.dominant not in INDEX_SET:
            raise ValueError("chart indices must lie in 1..5")
        if self.divisor == self.dominant:
            raise ValueError("divisor and dominant indices must differ")

    @property
    def basis(self):
        """Canonical ordered basis (gamma_i^k, k ascending, k not in {i, j})."""
        i, j = self.divisor, self.dominant
        return tuple(CycleSymbol(i, k) for k in sorted(INDEX_SET - {i, j}))

    def __repr__(self):
        return f"U_{self.divisor}^{self.dominant}"


def all_charts():
    return [ChartId(i, j) for i in range(1, 6) for j in range(1, 6) if i != j]


def _corner(k, dominant, uppers):
    """The corner class v_k in a chart's basis, whose upper indices are
    `uppers`: e_k for a basis index, the sum relation's -(1, 1, 1) for the
    dominant index, 0 for the divisor index."""
    return [-1, -1, -1] if k == dominant else [int(u == k) for u in uppers]


def expand(symbol, chart):
    """Coordinates of gamma_m^a = v_a - v_m in the canonical basis of the
    chart."""
    uppers = sorted(INDEX_SET - {chart.divisor, chart.dominant})
    upper = _corner(symbol.upper, chart.dominant, uppers)
    base = _corner(symbol.base, chart.dominant, uppers)
    return np.array([a - m for a, m in zip(upper, base)], dtype=object)


def _legal_step(a, b):
    return a == b or a.divisor == b.divisor or a.dominant == b.dominant


def transition(from_chart, to_chart):
    """Single-step change of basis between charts.

    Columns are the coordinates of the from-chart basis symbols expressed in
    the to-chart basis, so coordinate vectors transform as v_to = M @ v_from.
    Legal steps share the divisor or the dominant index.
    """
    if not _legal_step(from_chart, to_chart):
        raise ValueError(
            f"no single-step transition {from_chart} -> {to_chart}: "
            "charts share neither divisor nor dominant index")
    cols = [expand(sym, to_chart) for sym in from_chart.basis]
    return np.stack(cols, axis=1)


@dataclass(frozen=True)
class ChartPath:
    """Ordered chart sequence; consecutive charts must be a legal step."""

    charts: tuple

    def __post_init__(self):
        charts = tuple(self.charts)
        object.__setattr__(self, "charts", charts)
        if len(charts) < 1:
            raise ValueError("empty chart path")
        for a, b in zip(charts, charts[1:]):
            if not _legal_step(a, b):
                raise ValueError(f"illegal step {a} -> {b} in chart path")

    @property
    def closed(self):
        return self.charts[0] == self.charts[-1]

    def reversed(self):
        return ChartPath(tuple(reversed(self.charts)))

    def __repr__(self):
        return " -> ".join(repr(c) for c in self.charts)


@dataclass(frozen=True)
class MonodromyOperator:
    """Integer operator on H_1 of the fiber, attached to a based loop."""

    matrix: np.ndarray
    basepoint: ChartId
    label: str
    sign: int = 1

    @property
    def basis(self):
        return self.basepoint.basis

    def dual(self):
        """Operator induced on the dual lattice (inverse transpose)."""
        inv = ratkernel.inverse(self.matrix)
        return MonodromyOperator(inv.T.copy(), self.basepoint,
                                 self.label + " (dual)", self.sign)

    def __repr__(self):
        return f"{self.label} @ {self.basepoint}: {self.matrix.tolist()}"


def path_product(path, step=None):
    """Product of step transitions along a chart path (last step leftmost);
    `step(a, b)` gives the transition of each step, `transition` by default."""
    step = step or transition
    m = ratkernel.identity(3)
    for a, b in zip(path.charts, path.charts[1:]):
        m = step(a, b) @ m
    return m


def monodromy_along(path):
    """Monodromy operator of a closed chart path."""
    if not path.closed:
        raise ValueError(f"chart path is not closed: starts at {path.charts[0]}, "
                         f"ends at {path.charts[-1]}")
    return MonodromyOperator(path_product(path), path.charts[0], f"loop {path}")


def _is_even(seq):
    """True when the sequence has an even number of inversions."""
    return sum(x > y for i, x in enumerate(seq) for y in seq[i + 1:]) % 2 == 0


def oriented_leg_frame(leg, base_divisor):
    """The even-orientation index frame (i, j, k, l, m) for a leg.

    k is the apex; {l, m} is the complement of the leg's three indices with
    m the loop's base divisor (preferring `base_divisor` when usable); the
    order of (i, j) within the pair is fixed by requiring (i, j, k, l, m) to
    be an even permutation of (1..5).
    """
    k = leg.apex
    comp = sorted(INDEX_SET - leg.pair - {k})
    if base_divisor in comp:
        m = base_divisor
        l = comp[0] if comp[1] == m else comp[1]
    else:
        l, m = comp
    p, q = sorted(leg.pair)
    for i, j in ((p, q), (q, p)):
        if _is_even((i, j, k, l, m)):
            return i, j, k, l, m
    raise AssertionError("one ordering of the pair is always even")


def standard_leg_loop(leg, base_divisor):
    """Positively oriented 4-chart loop around a leg.

    With frame (i, j, k, l, m) the loop is
    U_m^j -> U_m^i -> U_l^i -> U_l^j -> U_m^j.
    """
    i, j, _, l, m = oriented_leg_frame(leg, base_divisor)
    seq = (ChartId(m, j), ChartId(m, i), ChartId(l, i), ChartId(l, j))
    return seq


def _rotate_loop(seq, start):
    r = seq.index(start)
    rotated = seq[r:] + seq[:r]
    return ChartPath(rotated + (rotated[0],))


def leg_loop_at(leg, basepoint):
    """Closed positively oriented path around a leg, based at `basepoint`.

    The loop always lives on the four charts with divisors {l, m} and
    dominants {i, j}; the basepoint is joined to it by the canonical short
    connection (at most one dominant change followed by one divisor change).
    Different connections differ by loop conjugation; the one here is the
    deterministic convention used throughout.
    """
    d0, t0 = basepoint.divisor, basepoint.dominant
    seq = standard_leg_loop(leg, base_divisor=d0)
    loop_divisors = {c.divisor for c in seq}
    loop_dominants = {c.dominant for c in seq}
    if d0 in loop_divisors:
        if t0 in loop_dominants:
            start = ChartId(d0, t0)
            connection = ()
        else:
            start = next(c for c in seq if c.divisor == d0)
            connection = (basepoint,)
    elif t0 in loop_dominants:
        m = max(loop_divisors)
        start = ChartId(m, t0)
        connection = (basepoint,)
    else:
        m = max(loop_divisors)
        j = max(d for d in loop_dominants if d != d0)
        start = ChartId(m, j)
        connection = (basepoint, ChartId(d0, j))
    loop = _rotate_loop(seq, start)
    charts = connection + loop.charts + tuple(reversed(connection))
    return ChartPath(charts)


def leg_monodromy(leg, basepoint=None, orientation=1):
    """Monodromy around a leg, expressed in the basepoint chart basis;
    orientation is 1 (positive) or -1 (reversed), ValueError otherwise."""
    return _leg_operator(leg, basepoint, orientation, transition)


def _leg_operator(leg, basepoint, orientation, step):
    """`leg_monodromy`, with the loop multiplied out through `step(a, b)`:
    `transition` itself, or an :class:`Atlas`'s table of it."""
    if orientation not in (1, -1):
        raise ValueError(f"orientation must be 1 or -1, got {orientation!r}")
    if basepoint is None:
        comp = INDEX_SET - leg.pair - {leg.apex}
        basepoint = ChartId(max(comp), max(leg.pair))
    path = leg_loop_at(leg, basepoint)
    if orientation < 0:
        path = path.reversed()
    # the loop path is closed by construction
    i, j = sorted(leg.pair)
    sign = "+" if orientation > 0 else "-"
    return MonodromyOperator(path_product(path, step), path.charts[0],
                             f"T_{i}{j}^{leg.apex} ({sign})",
                             1 if orientation > 0 else -1)


def vertex_basepoint(vertex):
    """Canonical chart used to express all monodromies around a vertex."""
    return ChartId(max(INDEX_SET - vertex.indices), max(vertex.indices))


def vertex_monodromies(vertex):
    """The three leg monodromies around a graph vertex in the basis of its
    :func:`vertex_basepoint` chart.

    Legs are taken in ascending apex order.  The operators pairwise commute
    and their product is the identity; callers interested in the vanishing
    sublattice feed them to :func:`vanishing_filtration`.
    """
    return _vertex_operators(vertex, transition)


def _vertex_operators(vertex, step):
    basepoint = vertex_basepoint(vertex)
    return [_leg_operator(leg, basepoint, 1, step) for leg in edges_at(vertex)]


class Atlas(NamedTuple):  # immutable, and a tenth of a dataclass's import cost
    """The exact chart data, built by :func:`atlas` and passed to its
    readers, never cached: `transitions[a, b]` is `transition(a, b)` for
    each of the 120 legal ordered pairs a != b, `legs[leg]` the leg's
    `leg_monodromy` at its default basepoint and `vertices[v]` the
    `vertex_monodromies` triple, all multiplied out from `transitions`."""

    transitions: dict
    legs: dict
    vertices: dict

    def leg_monodromy(self, leg, basepoint, orientation):
        """`leg_monodromy(leg, basepoint, orientation)` from this atlas's
        transitions."""
        return _leg_operator(leg, basepoint, orientation,
                             lambda a, b: self.transitions[a, b])


def atlas():
    """The :class:`Atlas`, in chart, leg and vertex enumeration order."""
    charts = all_charts()
    transitions = {(a, b): transition(a, b) for a in charts for b in charts
                   if a != b and _legal_step(a, b)}

    def step(a, b):
        return transitions[a, b]

    vertices, legs = enumerate_graph()
    return Atlas(transitions,
                 {leg: _leg_operator(leg, None, 1, step) for leg in legs},
                 {v: tuple(_vertex_operators(v, step)) for v in vertices})


def in_basis(op, symbols):
    """Rewrite an operator in an alternative ordered symbol basis.

    `symbols` are three cycle symbols whose expansions in the basepoint
    chart form a unimodular basis B; returns B^{-1} M B as an integer
    matrix, and ValueError (from `ratkernel.inverse`) for any other B.
    """
    b = np.stack([expand(s, op.basepoint) for s in symbols], axis=1)
    return ratkernel.inverse(b) @ op.matrix @ b


def standard_shear_basis(leg, base_divisor):
    """Symbol basis (gamma_m^l, gamma_m^i, gamma_m^k) of the shear form."""
    i, _, k, l, m = oriented_leg_frame(leg, base_divisor)
    return (CycleSymbol(m, l), CycleSymbol(m, i), CycleSymbol(m, k))


@dataclass(frozen=True)
class VanishingFiltration:
    """Saturated vanishing sublattice W0 of a family of operators."""

    basis: tuple
    names: tuple
    basepoint: ChartId

    @property
    def rank(self):
        return len(self.basis)


def vanishing_filtration(ops):
    """Saturation of the lattice spanned by all columns of (T - I).

    Basis vectors matching +-(a chart basis symbol) are reported with their
    symbolic names.
    """
    if not ops:
        raise ValueError("need at least one operator")
    basepoint = ops[0].basepoint
    if any(o.basepoint != basepoint for o in ops):
        raise ValueError("operators must share a basepoint basis")
    eye = ratkernel.identity(3)
    cols = []
    for o in ops:
        d = o.matrix - eye
        for c in range(3):
            col = d[:, c]
            if any(x != 0 for x in col):
                cols.append([int(x) for x in col])
    basis = ratkernel.saturate(cols)
    chart_basis = basepoint.basis
    names = []
    for v in basis:
        name = None
        nz = [(t, v[t]) for t in range(3) if v[t] != 0]
        if len(nz) == 1 and abs(nz[0][1]) == 1:
            t, s = nz[0]
            name = SignedSymbol(int(s), chart_basis[t])
        names.append(name)
    return VanishingFiltration(tuple(tuple(int(x) for x in v) for v in basis),
                               tuple(names), basepoint)


def dual_invariants(ops):
    """Hermite basis of the common fixed sublattice of a family of operators
    acting on the dual lattice (inverse transpose): the simultaneous integer
    kernel of T^{-T} - I.  The stack needs no inverse: T^{-T} - I =
    -T^{-T} (T^T - I) with T^{-T} unimodular, so stacking T^T - I gives the
    same row lattice, hence the same kernel basis.
    """
    if not ops:
        raise ValueError("need at least one operator")
    eye = ratkernel.identity(3)
    stacked = np.concatenate([o.matrix.T - eye for o in ops], axis=0)
    return ratkernel.kernel_basis(stacked)


# coefficients in [-3, 3] on each generator of the conjugator solution space
CONJUGATOR_SEARCH = range(-3, 4)


def mirror_dual_conjugator(pair_vertex):
    """Integer conjugator between the mirror-vertex triple and the dual triple.

    For a pair vertex P, the base involution carries the three legs at P to
    the three legs at its complementary triple vertex, apex for apex.  This
    returns a unimodular C with C A_t C^{-1} = B_t for all three apexes,
    where A_t are the triple-vertex monodromies and B_t the duals
    (inverse transposes) of the pair-vertex monodromies, or None when no
    conjugator exists in the searched lattice of solutions.
    """
    if pair_vertex.kind != "pair":
        raise ValueError("expected a pair vertex P_ij")
    mirror_vertex = pair_vertex.mirror()
    a_ops = vertex_monodromies(mirror_vertex)
    b_ops = [o.dual() for o in vertex_monodromies(pair_vertex)]
    # C A - B C is linear in the row-major entries of C: kron(I, A^T) - kron(B, I)
    eye = ratkernel.identity(3)
    rows = np.concatenate([np.kron(eye, a.matrix.T) - np.kron(b.matrix, eye)
                           for a, b in zip(a_ops, b_ops)])
    gens = ratkernel.kernel_basis(rows)
    if not gens:
        return None
    for coeffs in iter_product(CONJUGATOR_SEARCH, repeat=len(gens)):
        if any(coeffs):
            vec = [sum(c * g[t] for c, g in zip(coeffs, gens)) for t in range(9)]
            m = ratkernel.imat([vec[0:3], vec[3:6], vec[6:9]])
            if abs(ratkernel.det(m)) == 1:
                return m
    return None
