from fractions import Fraction

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


def test_crepancy_of_base_vectors():
    assert tc.crepancy_check((1, 0, 0))
    assert not tc.crepancy_check((1, 1, 0))


def test_crepancy_interior_ray():
    v = (Fraction(1, 5), Fraction(1, 5), Fraction(3, 5))
    assert tc.crepancy_check(v)


def test_all_enumerated_rays_crepant():
    for p in tc.enumerate_crepant_rays():
        assert tc.crepancy_check(p.vector)


def test_rays_live_in_dual_lattice():
    for p in tc.enumerate_crepant_rays():
        tc.dual_lattice_coords(p.vector)
    with pytest.raises(ValueError, match="not a point of the dual lattice"):
        tc.dual_lattice_coords((Fraction(1, 5), 0, 0))


def test_triangulation_is_unimodular_cover():
    fan = tc.triangulate_dilated_triangle()
    assert len(fan.cones) == 25
    assert all(c.is_unimodular() for c in fan.cones)
    rep = tc.coverage_report(fan)
    assert rep["cells"] == 25
    assert rep["barycenter_overlaps"] == 0
    used = {g for c in fan.cones for g in c.generators}
    assert len(used) == 21


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
