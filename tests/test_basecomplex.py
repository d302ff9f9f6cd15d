from fractions import Fraction

import numpy as np
import pytest

from quintfib import basecomplex as bc
from quintfib.flowlab.points import moment_image, standard_anchors


def test_vertex_and_edge_counts():
    vertices, edges = bc.enumerate_graph()
    assert len(vertices) == 20
    assert len(edges) == 30
    assert sum(1 for v in vertices if v.kind == "pair") == 10
    assert sum(1 for v in vertices if v.kind == "triple") == 10


def test_every_vertex_has_degree_three():
    vertices, _ = bc.enumerate_graph()
    for v in vertices:
        legs = bc.edges_at(v)
        assert len(legs) == 3
        for leg in legs:
            assert v in (leg.triple_vertex, leg.pair_vertex)


def test_edges_at_triple_vertex():
    v = bc.GraphVertex(frozenset({1, 2, 3}))
    legs = {repr(e) for e in bc.edges_at(v)}
    assert legs == {"Gamma_23^1", "Gamma_13^2", "Gamma_12^3"}


def test_graph_is_connected():
    vertices, edges = bc.enumerate_graph()
    adj = {v: set() for v in vertices}
    for e in edges:
        a, b = e.triple_vertex, e.pair_vertex
        adj[a].add(b)
        adj[b].add(a)
    seen = {vertices[0]}
    stack = [vertices[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    assert len(seen) == 20


def test_barycentric_coordinates_exact():
    for v in bc.graph_json()["vertices"]:
        coords = [Fraction(x) for x in v["barycentric"]]
        support = [i for i, x in enumerate(coords, 1) if x]
        assert support == v["indices"]
        assert sum(coords[i - 1] for i in support) == 1
        assert {coords[i - 1] for i in support} == {Fraction(1, len(support))}


@pytest.mark.parametrize("r1,r2,want", [
    (1.0, 1.0, bc.FattenedStratum.INTERIOR2),
    (1.0, 0.0, bc.FattenedStratum.VERTEX0),
    (0.0, 1.0, bc.FattenedStratum.VERTEX0),
    (2.0 ** (-1.0 / 5.0), 2.0 ** (-1.0 / 5.0), bc.FattenedStratum.EDGE1),
    (0.5, 0.5, bc.FattenedStratum.OUTSIDE),
    (2.0, 1.0, bc.FattenedStratum.OUTSIDE),
])
def test_classify_fattened(r1, r2, want):
    assert bc.classify_fattened(r1, r2) == want


def test_classify_fattened_swap_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(200):
        r1, r2 = rng.uniform(0.0, 1.8, 2)
        assert bc.classify_fattened(r1, r2) == bc.classify_fattened(r2, r1)


def test_classify_fattened_rejects_negatives():
    with pytest.raises(ValueError):
        bc.classify_fattened(-0.1, 1.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_classify_fattened_rejects_non_finite(bad):
    for r1, r2 in ((bad, 1.0), (1.0, bad)):
        with pytest.raises(ValueError, match="finite"):
            bc.classify_fattened(r1, r2)


def test_mirror_involution_pairs():
    p12 = bc.GraphVertex(frozenset({1, 2}))
    assert p12.mirror() == bc.GraphVertex(frozenset({3, 4, 5}))
    p134 = bc.GraphVertex(frozenset({1, 3, 4}))
    assert p134.mirror().mirror() == p134


def test_mirror_maps_pairs_onto_triples():
    vertices, _ = bc.enumerate_graph()
    pairs = {v for v in vertices if v.kind == "pair"}
    triples = {v for v in vertices if v.kind == "triple"}
    assert {v.mirror() for v in pairs} == triples


def test_moment_image_vertex():
    img = moment_image([1, 0, 0, 0, 0])
    assert np.allclose(img, standard_anchors()[0])


def test_moment_image_barycenter():
    img = moment_image([1, 1, 1, 1, 1])
    assert np.allclose(img, standard_anchors().mean(axis=0))


def test_moment_image_face_barycenter():
    img = moment_image([1, 1, 1, 1, 0])
    assert np.allclose(img, standard_anchors()[:4].mean(axis=0))


def test_moment_image_weights():
    rng = np.random.default_rng(1)
    anchors = standard_anchors()
    for _ in range(100):
        z = rng.normal(size=5) + 1j * rng.normal(size=5)
        img = moment_image(z)
        w = np.abs(z) ** 2
        w /= w.sum()
        assert abs(w.sum() - 1.0) < 1e-12
        assert np.allclose(img, w @ anchors)


def test_moment_image_zero_rejected():
    with pytest.raises(ValueError):
        moment_image([0, 0, 0, 0, 0])


def test_graph_json_stable():
    a = bc.graph_json()
    b = bc.graph_json()
    assert a == b
    assert len(a["vertices"]) == 20
    assert len(a["edges"]) == 30
    assert all(len(v) == 3 for v in a["incidence"].values())
