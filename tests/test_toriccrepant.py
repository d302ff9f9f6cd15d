from fractions import Fraction
from itertools import product

import pytest

from quintfib import toriccrepant as tc


def test_ray_count_and_classification():
    pts = tc.enumerate_crepant_rays()
    assert len(pts) == 21
    cl = tc.classify_rays()
    assert len(cl["vertex"]) == 3
    assert len(cl["edge"]) == 12
    assert len(cl["edge"]) // 3 == 4
    assert len(cl["interior"]) == 6


def _chart(w):
    """N's integer chart w -> (5 w_1, 5 w_1 + 5 w_2, w_1 + w_2 + w_3),
    computed over the rationals."""
    c = (5 * w[0], 5 * (w[0] + w[1]), w[0] + w[1] + w[2])
    assert all(x.denominator == 1 for x in c), f"{w} is not a point of N"
    return tuple(int(x) for x in c)


def test_crepancy_of_base_vectors():
    assert tc.crepancy_check((5, 5, 1))      # e_1
    assert not tc.crepancy_check((5, 10, 2))  # e_1 + e_2


def test_crepancy_interior_ray():
    v = (Fraction(1, 5), Fraction(1, 5), Fraction(3, 5))
    assert _chart(v) == (1, 2, 1)
    assert tc.crepancy_check((1, 2, 1))
    with pytest.raises(ValueError, match="expected an integer"):
        tc.crepancy_check(v)  # a ray is read in N's chart, never truncated
    with pytest.raises(ValueError, match="three coordinates"):
        tc.crepancy_check((1, 2))


def test_crepancy_matches_the_rational_criterion():
    # every chart point of a box around the triangle, mapped back to
    # w = (a, b - a, 5c - b)/5 and checked against lambda = w directly
    for a, b, c in product(range(-2, 8), range(-2, 13), range(-1, 3)):
        w = (Fraction(a, 5), Fraction(b - a, 5), c - Fraction(b, 5))
        assert _chart(w) == (a, b, c)
        assert tc.crepancy_check((a, b, c)) == (min(w) >= 0 and sum(w) == 1)


def test_all_enumerated_rays_crepant():
    for p in tc.enumerate_crepant_rays():
        assert tc.crepancy_check(p.coords)


def test_rays_live_in_dual_lattice():
    for p in tc.enumerate_crepant_rays():
        assert p.coords == _chart([Fraction(x, 5) for x in (p.i, p.j, p.k)])


def test_triangulation_is_unimodular_cover():
    cones = tc.triangulate_dilated_triangle()
    assert len(cones) == 25
    assert all(c.is_unimodular() for c in cones)
    rep = tc.coverage_report(cones)
    assert rep["cells"] == 25
    assert rep["barycenter_overlaps"] == 0
    used = {g for c in cones for g in c.generators}
    assert len(used) == 21


def test_undivided_cone_has_the_quotient_index():
    cone = tc.LatticeCone((tc.LatticePoint(5, 0, 0), tc.LatticePoint(0, 5, 0),
                           tc.LatticePoint(0, 0, 5)))
    assert abs(cone.determinant()) == 25 == tc.quotient_lattice_index()
    assert not cone.is_unimodular()


def test_coverage_report_counts_repeated_cells():
    cones = tc.triangulate_dilated_triangle()
    rep = tc.coverage_report(cones + cones)
    assert rep == {"cells": 50, "barycenter_overlaps": 50}


def test_coverage_report_inverts_each_cell_once(monkeypatch):
    calls = []
    inner = tc.ratkernel.inverse
    monkeypatch.setattr(tc.ratkernel, "inverse",
                        lambda m: calls.append(m) or inner(m))
    rep = tc.coverage_report(tc.triangulate_dilated_triangle())
    assert rep == {"cells": 25, "barycenter_overlaps": 0}
    assert len(calls) == 25


def test_divisor_census():
    dc = tc.divisor_census()
    assert dc.per_curve == 4
    assert dc.per_point == 6
    assert dc.total == 100


def test_hodge_summary():
    h = tc.mirror_hodge_summary()
    assert h == (1, 0, 101, 4, 101, 0, 1)
    assert h[2] == 1 + tc.divisor_census().total
    assert tc.mirror_euler_number() == 200


def test_middle_hodge_matches_mirror_table():
    from quintfib import sheafcoh
    table = sheafcoh.assemble_E2("mirror")
    assert tc.mirror_hodge_summary()[3] == table.antidiagonal_sum(3)


def test_quotient_lattice_index():
    assert tc.quotient_lattice_index() == 25


def test_toric_json():
    payload = tc.toric_json()
    assert payload["divisor_census"]["total"] == 100
    assert payload["triangulation"]["all_unimodular"]
    assert payload["triangulation"]["all_crepant"]
    assert payload["hodge"] == [1, 0, 101, 4, 101, 0, 1]
    assert payload["euler"] == 200
