import numpy as np
import pytest

from quintfib import ratkernel as rk
from quintfib.basecomplex import GraphEdge, GraphVertex, enumerate_graph
from quintfib import monodromy as mono
from quintfib.monodromy import ChartId, CycleSymbol


def _eq(m, rows):
    return [list(r) for r in m] == rows


def _array(m):
    """An operator's rows as a numpy object array, for matrix arithmetic."""
    return np.array(m, dtype=object)


# ---------------------------------------------------------------- transitions

def test_chart_basis_ordering():
    assert [repr(s) for s in ChartId(5, 4).basis] == \
        ["gamma_5^1", "gamma_5^2", "gamma_5^3"]
    assert [repr(s) for s in ChartId(5, 2).basis] == \
        ["gamma_5^1", "gamma_5^3", "gamma_5^4"]


def test_transition_within_divisor():
    m = mono.transition(ChartId(5, 4), ChartId(5, 2))
    assert _eq(m, [[1, -1, 0], [0, -1, 1], [0, -1, 0]])


def test_transition_across_divisors():
    m = mono.transition(ChartId(5, 2), ChartId(1, 2))
    assert _eq(m, [[0, 1, 0], [0, 0, 1], [-1, -1, -1]])


def test_transition_remaining_golden_steps():
    assert _eq(mono.transition(ChartId(1, 2), ChartId(1, 4)),
               [[0, -1, 0], [1, -1, 0], [0, -1, 1]])
    assert _eq(mono.transition(ChartId(1, 4), ChartId(5, 4)),
               [[-1, -1, -1], [1, 0, 0], [0, 1, 0]])


def test_transition_same_chart_is_identity():
    m = mono.transition(ChartId(5, 4), ChartId(5, 4))
    assert _eq(m, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_transition_illegal_step_names_charts():
    with pytest.raises(ValueError, match=r"U_5\^4 -> U_1\^2"):
        mono.transition(ChartId(5, 4), ChartId(1, 2))


def test_transition_inverse_consistency():
    for a, b in (((5, 4), (5, 2)), ((5, 2), (1, 2)), ((3, 1), (3, 5))):
        fwd = mono.transition(ChartId(*a), ChartId(*b))
        bwd = mono.transition(ChartId(*b), ChartId(*a))
        assert rk.matmul3(fwd, bwd) == mono.IDENTITY


def test_transition_determinants_are_units():
    charts = mono.all_charts()
    for a in charts:
        for b in charts:
            if a == b or not (a.divisor == b.divisor or a.dominant == b.dominant):
                continue
            assert abs(rk.det(mono.transition(a, b))) == 1


def test_within_family_composition_is_path_independent():
    # dominant family: U_5^1 -> U_3^1 equals the detour through U_2^1
    direct = mono.transition(ChartId(5, 1), ChartId(3, 1))
    via = rk.matmul3(mono.transition(ChartId(2, 1), ChartId(3, 1)),
                     mono.transition(ChartId(5, 1), ChartId(2, 1)))
    assert direct == via
    # divisor family likewise
    direct = mono.transition(ChartId(5, 1), ChartId(5, 3))
    via = rk.matmul3(mono.transition(ChartId(5, 2), ChartId(5, 3)),
                     mono.transition(ChartId(5, 1), ChartId(5, 2)))
    assert direct == via


# ----------------------------------------------------------------- monodromy

def test_leg_loop_monodromy_golden():
    leg = GraphEdge(frozenset({2, 4}), 3)
    op = mono.leg_monodromy(leg, basepoint=ChartId(5, 4))
    assert _eq(op.matrix, [[1, -5, 0], [0, 1, 0], [0, 0, 1]])


def test_leg_loop_reversed():
    leg = GraphEdge(frozenset({2, 4}), 3)
    op = mono.leg_monodromy(leg, basepoint=ChartId(5, 4), orientation=-1)
    assert _eq(op.matrix, [[1, 5, 0], [0, 1, 0], [0, 0, 1]])


@pytest.mark.parametrize("orientation", [0, 2, -2, 0.5])
def test_leg_orientation_is_plus_or_minus_one(orientation):
    # 0 used to return the forward matrix labelled (-) with sign -1, and 2
    # was taken as 1
    leg = GraphEdge(frozenset({2, 4}), 3)
    with pytest.raises(ValueError, match="orientation must be 1 or -1"):
        mono.leg_monodromy(leg, orientation=orientation)


def test_monodromy_along_trivial_loop():
    op = mono.monodromy_along((ChartId(5, 4),))
    assert _eq(op.matrix, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_monodromy_along_requires_closed_path():
    with pytest.raises(ValueError, match="not closed"):
        mono.monodromy_along((ChartId(5, 4), ChartId(5, 2)))


def test_monodromy_along_refuses_an_empty_path():
    with pytest.raises(ValueError, match="empty chart path"):
        mono.monodromy_along(())


def test_monodromy_along_refuses_an_illegal_step_in_transition():
    # U_5^4 and U_1^2 share neither index; the step is refused where it is
    # multiplied out, with both charts named
    with pytest.raises(ValueError,
                       match=r"no single-step transition U_5\^4 -> U_1\^2"):
        mono.monodromy_along((ChartId(5, 4), ChartId(1, 2), ChartId(5, 4)))


def test_monodromy_along_labels_the_loop():
    op = mono.monodromy_along((ChartId(5, 4), ChartId(5, 2), ChartId(5, 4)))
    assert op.label == "loop U_5^4 -> U_5^2 -> U_5^4"
    assert op.basepoint == ChartId(5, 4)


def test_explicit_golden_loop_path():
    path = (ChartId(5, 4), ChartId(5, 2), ChartId(1, 2),
            ChartId(1, 4), ChartId(5, 4))
    op = mono.monodromy_along(path)
    assert _eq(op.matrix, [[1, -5, 0], [0, 1, 0], [0, 0, 1]])


def test_subdivided_loop_same_monodromy():
    # insert a within-divisor detour; the homotopy class is unchanged
    path = (ChartId(5, 4), ChartId(5, 1), ChartId(5, 2),
            ChartId(1, 2), ChartId(1, 4), ChartId(5, 4))
    op = mono.monodromy_along(path)
    assert _eq(op.matrix, [[1, -5, 0], [0, 1, 0], [0, 0, 1]])


def test_rotated_loop_is_conjugate_value_at_its_basepoint():
    leg = GraphEdge(frozenset({2, 4}), 3)
    op12 = mono.leg_monodromy(leg, basepoint=ChartId(1, 2))
    c = mono.path_product((ChartId(5, 4), ChartId(5, 2), ChartId(1, 2)))
    cinv = rk.inverse(c)
    back = rk.matmul3(rk.matmul3(cinv, op12.matrix), c)
    want = mono.leg_monodromy(leg, basepoint=ChartId(5, 4)).matrix
    assert back == want


def test_vertex_monodromies_triple_golden():
    ops = mono.vertex_monodromies(GraphVertex(frozenset({2, 3, 4})))
    mats = [[list(r) for r in op.matrix] for op in ops]
    assert mats == [
        [[1, 0, 5], [0, 1, 0], [0, 0, 1]],    # around the apex-2 leg
        [[1, -5, 0], [0, 1, 0], [0, 0, 1]],   # around the apex-3 leg
        [[1, 5, -5], [0, 1, 0], [0, 0, 1]],   # around the apex-4 leg
    ]


def test_vertex_monodromies_pair_golden():
    ops = mono.vertex_monodromies(GraphVertex(frozenset({2, 4})))
    mats = [[list(r) for r in op.matrix] for op in ops]
    assert mats == [
        [[1, 0, 0], [0, 1, 0], [0, 5, 1]],
        [[1, -5, 0], [0, 1, 0], [0, 0, 1]],
        [[1, 5, 0], [0, 1, 0], [0, -5, 1]],
    ]


def test_all_vertices_commute_product_identity_ranks():
    verts, _ = enumerate_graph()
    for v in verts:
        ops = mono.vertex_monodromies(v)
        assert len(ops) == 3
        for a in ops:
            assert rk.det(a.matrix) == 1
            for b in ops:
                assert rk.matmul3(a.matrix, b.matrix) == rk.matmul3(b.matrix, a.matrix)
        prod = mono.IDENTITY
        for op in ops:
            prod = rk.matmul3(op.matrix, prod)
        assert prod == mono.IDENTITY
        w = mono.vanishing_filtration(ops)
        assert w.rank == (1 if v.kind == "triple" else 2)


def test_vanishing_filtration_names():
    ops = mono.vertex_monodromies(GraphVertex(frozenset({2, 3, 4})))
    w = mono.vanishing_filtration(ops)
    assert [repr(n) for n in w.names] == ["gamma_5^1"]
    ops = mono.vertex_monodromies(GraphVertex(frozenset({2, 4})))
    w = mono.vanishing_filtration(ops)
    assert {repr(n) for n in w.names} == {"gamma_5^1", "gamma_5^3"}


def test_vanishing_filtration_identity_rank_zero():
    op = mono.monodromy_along((ChartId(5, 4),))
    assert mono.vanishing_filtration([op]).rank == 0


def test_every_leg_is_the_standard_shear():
    _, legs = enumerate_graph()
    for leg in legs:
        op = mono.leg_monodromy(leg)
        frame = mono.standard_shear_basis(leg, op.basepoint.divisor)
        m = mono.in_basis(op, frame)
        assert _eq(m, [[1, -5, 0], [0, 1, 0], [0, 0, 1]])


def test_leg_conjugacy_class_over_all_basepoints():
    # integer conjugacy invariants: unipotent, rank-one, entry gcd 5
    leg = GraphEdge(frozenset({1, 3}), 5)
    eye = np.eye(3, dtype=int)
    for chart in mono.all_charts():
        m = mono.leg_monodromy(leg, basepoint=chart).matrix
        n = _array(m) - eye
        sq = n @ n
        assert all(x == 0 for x in np.asarray(sq).ravel())
        assert rk.rank(n) == 1
        d, _, _ = rk.smith_normal_form(n)
        assert [d[i, i] for i in range(3)] == [5, 0, 0]


def test_basepoint_change_is_conjugation():
    leg = GraphEdge(frozenset({2, 4}), 3)
    a = mono.leg_monodromy(leg, basepoint=ChartId(5, 4))
    b = mono.leg_monodromy(leg, basepoint=ChartId(3, 2))
    # some connecting product conjugates one into the other: same invariants
    da, _, _ = rk.smith_normal_form(_array(a.matrix) - np.eye(3, dtype=int))
    db, _, _ = rk.smith_normal_form(_array(b.matrix) - np.eye(3, dtype=int))
    assert [da[i, i] for i in range(3)] == [db[i, i] for i in range(3)]


def test_in_basis_round_trip():
    ops = mono.vertex_monodromies(GraphVertex(frozenset({2, 3, 4})))
    alt = (CycleSymbol(5, 1), CycleSymbol(5, 4), CycleSymbol(5, 2))
    m = mono.in_basis(ops[1], alt)
    assert abs(rk.det(m)) == 1
    with pytest.raises(ValueError, match="not unimodular"):
        mono.in_basis(ops[1], (alt[0], alt[0], alt[2]))


# -------------------------------------------------------------- local system

def test_local_system_reproduces_vertex_triple():
    """The product of the chart transitions around a leg loop is the leg's
    monodromy, the apex-3 operator of the P_234 triple."""
    leg = GraphEdge(frozenset({2, 4}), 3)
    path = mono.leg_loop_at(leg, ChartId(5, 4))
    m = mono.path_product(path)
    assert _eq(m, [[1, -5, 0], [0, 1, 0], [0, 0, 1]])
    triple = mono.vertex_monodromies(GraphVertex(frozenset({2, 3, 4})))
    assert triple[1].matrix == m


def test_every_leg_loop_is_a_closed_tuple_of_legal_steps():
    """Each of the 600 based leg loops is a tuple of charts that starts and
    ends at its basepoint, and each consecutive pair shares the divisor or
    the dominant index."""
    _, legs = enumerate_graph()
    loops = [(bp, mono.leg_loop_at(leg, bp))
             for leg in legs for bp in mono.all_charts()]
    assert len(loops) == 600
    for bp, path in loops:
        assert type(path) is tuple
        assert all(type(c) is ChartId for c in path)
        assert path[0] == path[-1] == bp
        for a, b in zip(path, path[1:]):
            assert a.divisor == b.divisor or a.dominant == b.dominant, (bp, path)


def test_dual_system_is_inverse_transpose():
    leg = GraphEdge(frozenset({2, 4}), 3)
    path = mono.leg_loop_at(leg, ChartId(5, 4))
    op = mono.monodromy_along(path)
    m = np.asarray(op.matrix, dtype=float)
    md = np.asarray(op.dual().matrix, dtype=float)
    assert np.allclose(md, np.linalg.inv(m).T)


def test_dual_of_a_non_unimodular_operator_is_refused():
    """The inverse of diag(2, 1, 1) holds 1/2: the dual refuses it rather
    than truncating it to 0."""
    op = mono.MonodromyOperator(((2, 0, 0), (0, 1, 0), (0, 0, 1)),
                                ChartId(1, 2), "diag(2, 1, 1)")
    with pytest.raises(ValueError, match="not unimodular"):
        op.dual()


def test_mirror_pullback_conjugate_to_dual():
    """The base involution carries the local system to its dual: a single
    unimodular matrix conjugates the mirror-vertex triple into the
    inverse-transposes of the pair-vertex triple, at each of the 10 pair
    vertices."""
    pairs = [v for v in enumerate_graph()[0] if v.kind == "pair"]
    assert len(pairs) == 10
    for pv in pairs:
        c = mono.mirror_dual_conjugator(pv)
        assert c is not None
        assert abs(rk.det(c)) == 1
        cinv = rk.inverse(c)
        a_ops = mono.vertex_monodromies(pv.mirror())
        b_ops = [o.dual() for o in mono.vertex_monodromies(pv)]
        for a, b in zip(a_ops, b_ops):
            assert rk.matmul3(rk.matmul3(c, a.matrix), cinv) == b.matrix


def test_dual_invariant_dimensions():
    # invariants of the dual system, of dimension 3 - rank W0: 1 at pair
    # vertices, 2 at triples
    verts, _ = enumerate_graph()
    for v in verts:
        ops = mono.vertex_monodromies(v)
        assert 3 - mono.vanishing_rank(ops) == (1 if v.kind == "pair" else 2)


def test_dual_invariants_match_the_inverse_transpose_stack():
    # the dual invariants are the kernel of the stacked T^{-T} - I, whose
    # rows span the lattice of the columns of T - I, so their dimension is
    # 3 - vanishing_rank; and vanishing_rank is the saturated W0's rank
    verts, legs = enumerate_graph()
    families = [[mono.leg_monodromy(leg)] for leg in legs]
    families += [mono.vertex_monodromies(v) for v in verts]
    assert len(families) == 50
    eye = np.eye(3, dtype=int)
    for ops in families:
        stacked = np.concatenate([_array(o.dual().matrix) - eye for o in ops], axis=0)
        rank = mono.vanishing_rank(ops)
        assert 3 - rank == len(rk.kernel_basis(stacked))
        assert rank == mono.vanishing_filtration(ops).rank


def test_vanishing_rank_refuses_an_empty_family_and_mixed_basepoints():
    leg = GraphEdge(frozenset({2, 4}), 3)
    mixed = [mono.leg_monodromy(leg, ChartId(5, 4)),
             mono.leg_monodromy(leg, ChartId(1, 4))]
    with pytest.raises(ValueError, match="at least one operator"):
        mono.vanishing_rank([])
    with pytest.raises(ValueError, match="share a basepoint"):
        mono.vanishing_rank(mixed)


def test_expand_relations_consistency():
    # the sum relation inside a chart: all basis symbols plus the dominant
    # symbol add to zero
    chart = ChartId(3, 1)
    total = np.array([0, 0, 0], dtype=object)
    for k in sorted({1, 2, 4, 5}):
        total = total + mono.expand(CycleSymbol(3, k), chart)
    assert all(x == 0 for x in total)
    # antisymmetry through a chart where both symbols are foreign
    a = mono.expand(CycleSymbol(1, 2), ChartId(4, 5))
    b = mono.expand(CycleSymbol(2, 1), ChartId(4, 5))
    assert all(x + y == 0 for x, y in zip(a, b))


def _rewrite(symbol, chart):
    """The chart-local rewriting the closed form solves, as the oracle:
    antisymmetry and the three-term relation reduce any symbol to the
    divisor row, and the sum relation eliminates the dominant symbol."""
    i, j = chart.divisor, chart.dominant
    m, a = symbol.base, symbol.upper
    if m == i:
        if a == j:
            return [-1, -1, -1]
        return [int(s.upper == a) for s in chart.basis]
    if a == i:
        return [-x for x in _rewrite(CycleSymbol(i, m), chart)]
    return [x - y for x, y in zip(_rewrite(CycleSymbol(i, a), chart),
                                  _rewrite(CycleSymbol(i, m), chart))]


def test_expand_equals_the_rewriting_in_every_chart():
    charts = mono.all_charts()
    symbols = [CycleSymbol(m, a) for m in range(1, 6) for a in range(1, 6)
               if m != a]
    pairs = [(s, c) for s in symbols for c in charts]
    assert len(pairs) == 400
    for s, c in pairs:
        assert list(mono.expand(s, c)) == _rewrite(s, c), (s, c)


def test_expand_satisfies_the_relations_in_every_chart():
    def g(m, a, chart):
        return _array(mono.expand(CycleSymbol(m, a), chart))

    for chart in mono.all_charts():
        i = chart.divisor
        # the basis symbols are the unit vectors
        for t, s in enumerate(chart.basis):
            assert g(s.base, s.upper, chart).tolist() == \
                [int(t == u) for u in range(3)]
        # sum relation of the divisor row
        assert sum(g(i, k, chart) for k in range(1, 6) if k != i).tolist() \
            == [0, 0, 0]
        for m in range(1, 6):
            for a in range(1, 6):
                if m == a:
                    continue
                # antisymmetry
                assert (g(m, a, chart) + g(a, m, chart)).tolist() == [0, 0, 0]
                # three-term relation
                for k in set(range(1, 6)) - {m, a}:
                    total = g(m, a, chart) + g(a, k, chart) + g(k, m, chart)
                    assert total.tolist() == [0, 0, 0]


# ------------------------------------------------------------------- atlas

def _same_operator(a, b):
    return (a.matrix == b.matrix and a.basepoint == b.basepoint
            and a.label == b.label and a.sign == b.sign)


def test_atlas_transitions_are_the_legal_transitions():
    atlas = mono.atlas()
    charts = mono.all_charts()
    legal = [(a, b) for a in charts for b in charts
             if a != b and (a.divisor == b.divisor or a.dominant == b.dominant)]
    assert list(atlas.transitions) == legal
    assert len(legal) == 120
    for (a, b), t in atlas.transitions.items():
        assert t == mono.transition(a, b)


def test_operators_are_tuples_of_int_tuples():
    """The exact chart data is plain Python ints: every transition and
    operator of the atlas, and each dual, is three int tuples (its rows)."""
    atlas = mono.atlas()
    ops = list(atlas.legs.values()) + [o for t in atlas.vertices.values() for o in t]
    mats = list(atlas.transitions.values()) + [o.matrix for o in ops]
    mats += [o.dual().matrix for o in ops]
    for m in mats:
        assert type(m) is tuple and len(m) == 3
        assert all(type(r) is tuple and len(r) == 3 for r in m)
        assert all(type(x) is int for r in m for x in r)


def test_atlas_operators_are_leg_and_vertex_monodromies():
    atlas = mono.atlas()
    vertices, legs = enumerate_graph()
    assert list(atlas.legs) == legs
    for leg, op in atlas.legs.items():
        assert _same_operator(op, mono.leg_monodromy(leg))
    assert list(atlas.vertices) == vertices
    for v, ops in atlas.vertices.items():
        want = mono.vertex_monodromies(v)
        assert len(ops) == len(want) == 3
        assert all(_same_operator(a, b) for a, b in zip(ops, want))


def test_atlas_leg_monodromy_at_every_basepoint_and_orientation():
    atlas = mono.atlas()
    _, legs = enumerate_graph()
    for leg in legs:
        for bp in mono.all_charts():
            for o in (1, -1):
                assert _same_operator(atlas.leg_monodromy(leg, bp, o),
                                      mono.leg_monodromy(leg, bp, o))
    with pytest.raises(ValueError, match="orientation must be 1 or -1"):
        atlas.leg_monodromy(legs[0], None, 0)


def test_atlas_computes_each_transition_once(monkeypatch):
    calls = []
    inner = mono.transition
    monkeypatch.setattr(mono, "transition", lambda a, b: calls.append((a, b)) or inner(a, b))
    atlas = mono.atlas()
    assert calls == list(atlas.transitions)
    # its operators read the table, not the function
    _, legs = enumerate_graph()
    atlas.leg_monodromy(legs[0], ChartId(1, 2), -1)
    assert len(calls) == 120
