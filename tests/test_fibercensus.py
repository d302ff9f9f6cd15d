import pytest

from quintfib import fibercensus as fc
from quintfib import sheafcoh, toriccrepant


def test_expected_census_counts():
    rows = {r.fiber.name: r for r in fc.census("expected")}
    assert rows["I5"].count == 30
    assert rows["II5x5"].count == 10
    assert rows["III5"].count == 10
    assert rows["Smooth"].dimension == 3


def test_constructed_census_strata():
    rows = fc.census("constructed")
    names = [r.fiber.name for r in rows]
    assert names == ["Smooth", "GradI50", "GradI25", "GradII5"]
    vertex_row = rows[-1]
    assert vertex_row.fiber.singular_set == \
        "5 two-tori collapsed to 5 singular points"
    assert vertex_row.count == 20  # two vertex points per component


def test_mirror_census_types():
    rows = {r.fiber.name: r for r in fc.census("mirror")}
    assert set(rows) == {"Smooth", "I", "II", "III"}
    assert rows["I"].count == 30
    assert rows["I"].fiber.euler == 0


def test_census_rejects_unknown_fibration():
    with pytest.raises(ValueError, match="unknown fibration"):
        fc.census("imagined")


def test_euler_ledger_expected():
    assert fc.euler_ledger("expected") == -200
    assert fc.euler_ledger("expected") == 10 * (-25) + 10 * 5


def test_euler_ledger_mirror_cancels():
    assert fc.euler_ledger("mirror") == 0


def test_euler_ledger_constructed_is_descriptive_only():
    with pytest.raises(ValueError, match="descriptive"):
        fc.euler_ledger("constructed")


def test_euler_ledger_zero_multiplicities():
    rows = [fc.CensusRow("nowhere", fc.FIBER_TYPES["II5x5"], 0, 0)]
    total, _ = fc.euler_ledger_from_rows(rows)
    assert total == 0


def test_positive_dimensional_strata_contribute_zero():
    _, breakdown = fc.euler_ledger_from_rows(fc.census("expected"))
    legs = [b for b in breakdown if b[2] == "I5"]
    assert legs[0][3] == 0


def test_singular_surface_genus():
    s = fc.singular_surface((1, 2, 3))
    assert (s.euler, s.genus) == (-10, 6)
    assert s.euler == 3 * 5 - 25


def test_quotient_surface_is_rational():
    s = fc.singular_surface((1, 2, 3), quotient=True)
    assert s.genus == 0
    assert s.euler == 2 - 2 * s.genus


def test_genus_from_euler():
    assert fc.genus_from_euler(2) == 0
    assert fc.genus_from_euler(-10) == 6
    with pytest.raises(ValueError):
        fc.genus_from_euler(3)


def test_surface_invariant_enforced():
    with pytest.raises(ValueError):
        fc.SingularSurface("bad", -2, 0)


def test_quotient_fiber_map():
    assert fc.quotient_fiber("II5x5").euler == 1
    assert fc.quotient_fiber("III5").euler == -1
    assert fc.quotient_fiber("I5").euler == 0
    with pytest.raises(ValueError, match="no quotient rule"):
        fc.quotient_fiber("Smooth")


def test_euler_values_match_catalog():
    t = fc.FIBER_TYPES
    assert (t["I5"].euler, t["II5x5"].euler, t["III5"].euler) == (0, -25, 5)
    assert (t["I"].euler, t["II"].euler, t["III"].euler) == (0, 1, -1)


def test_collapse_recomputation_flags():
    """The recomputable Euler numbers agree with the catalog except for the
    two mirror point-fiber types, whose described collapse models carry the
    swapped signs; the catalog keeps the stated values, flagged."""
    t = fc.FIBER_TYPES
    for name in ("Smooth", "I5", "II5x5", "III5", "I"):
        assert not t[name].flagged
    assert t["GradI50"].euler_recomputed == 50
    assert t["GradI25"].euler_recomputed == 25
    assert t["II"].flagged and t["III"].flagged
    assert t["II"].euler + t["III"].euler == \
        t["II"].euler_recomputed + t["III"].euler_recomputed == 0


def test_cross_module_mirror_flip():
    assert fc.euler_ledger("expected") == -toriccrepant.mirror_euler_number()


def test_cross_module_mirror_table():
    table = sheafcoh.assemble_E2("mirror")
    assert fc.euler_ledger("mirror") == table.alternating_sum()


def test_census_counts_match_graph():
    from quintfib.basecomplex import enumerate_graph
    verts, edges = enumerate_graph()
    rows = {r.fiber.name: r for r in fc.census("expected")}
    assert rows["I5"].count == len(edges)
    assert rows["II5x5"].count == sum(1 for v in verts if v.kind == "triple")
    assert rows["III5"].count == sum(1 for v in verts if v.kind == "pair")
