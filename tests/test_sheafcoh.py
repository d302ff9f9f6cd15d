import hashlib

import numpy as np
import pytest

from quintfib import monodromy as mono
from quintfib import ratkernel as rk
from quintfib import sheafcoh as sc
from quintfib.basecomplex import enumerate_graph


def test_cech_dimensions():
    cx = sc.build_K3()
    assert (cx.c0, cx.c1) == (280, 120)


def test_sheaf_specs_pin_stalk_dimensions():
    assert (sc.K3_SPEC.edge_dim, sc.K3_SPEC.pair_dim, sc.K3_SPEC.triple_dim) \
        == (4, 4, 24)
    assert (sc.K2_SPEC.edge_dim, sc.K2_SPEC.pair_dim, sc.K2_SPEC.triple_dim) \
        == (4, 0, 8)
    assert (sc.K3_SPEC.c0(), sc.K3_SPEC.c1()) == (280, 120)
    assert (sc.K2_SPEC.c0(), sc.K2_SPEC.c1()) == (80, 120)
    cx = sc.build_K3()
    assert cx.c0 == sc.K3_SPEC.c0() and cx.c1 == sc.K3_SPEC.c1()


def test_kernel_sheaf_cohomology():
    h0, h1 = sc.K3_cohomology()
    assert h0 == 160
    assert h1 == 0


def test_rank_of_differential():
    """The differential's rank accounts for the whole Euler count:
    280 - 160 sections = 120 = full edge dimension.  Its sparse rows, its
    dense matrix and the transpose agree, plain and under 5 relabelings."""
    rng = np.random.default_rng(7)
    for rel in [None] + [sc.random_relabeling(rng) for _ in range(5)]:
        cx = sc.build_K3(rel)
        assert rk.rank(cx.rows) == rk.rank(cx.differential) == 120
        assert rk.rank(cx.differential.T.copy()) == 120


def test_kernel_dimension_matches_kernel_basis():
    cx = sc.build_K3()
    assert len(rk.kernel_basis(cx.differential)) == 160


def test_surjectivity_ranks():
    rep = sc.surjectivity_check_pijk()
    # ambient image is cut out by two sum-matching conditions: 15 - 2
    assert rep.rank_ambient == 13
    assert rep.image_characterized
    # restricted to sum-zero parts the map fills all three leg stalks
    assert rep.rank_kernel_sheaf == 12
    assert rep.surjective


def test_x00_restriction_pattern():
    rep = sc.surjectivity_check_pijk()
    assert rep.x00_pattern == (1, 1, 1)


def test_relabeling_invariance():
    rng = np.random.default_rng(42)
    for _ in range(5):
        rel = sc.random_relabeling(rng)
        assert sc.K3_cohomology(rel) == (160, 0)


def test_index_rule_enforced_by_labels():
    lab = sc._triple_labels((1, 2, 3), None)
    for l in range(5):
        for m in range(5):
            n = lab("n", l, m)
            assert (lab("l", l, m) + lab("m", l, m) + n) % 5 == 0


def test_relabeled_labels_keep_index_rule():
    rng = np.random.default_rng(3)
    rel = sc.random_relabeling(rng)
    for triple, (unit, alpha, beta) in rel.triple_affine.items():
        lab = sc._triple_labels(triple, rel)
        base = sc._triple_labels(triple, None)
        for l in range(5):
            for m in range(5):
                assert lab("l", l, m) == (unit * base("l", l, m) + alpha) % 5
                assert (lab("l", l, m) + lab("m", l, m) + lab("n", l, m)) % 5 == 0


def test_K2_counts():
    k2 = sc.K2_dimension_count()
    assert (k2.c0, k2.c1) == (80, 120)
    assert k2.chi == -40
    assert k2.h0 == 0
    assert k2.h1 == 40
    assert k2.h1_R2 == 41


def test_ic_chain_dims():
    ic = sc.ic_chain_dims()
    assert ic.dims() == (30, 60, 60, 30)
    assert ic.chi == 0
    # each leg contributes 2 to c2; the vertex counts behind c3 are
    # test_monodromy's test_dual_invariant_dimensions
    _, legs = enumerate_graph()
    for leg in legs:
        assert len(mono.dual_invariants([mono.leg_monodromy(leg)])) == 2


def test_cycle_L_boundary_vanishes():
    reports = sc.check_cycle_L()
    assert len(reports) == 10
    assert all(r.vanishes for r in reports)
    names = {r.vertex for r in reports}
    assert "P_1" in names and "P_{2345}" in names
    assert all(r.residue == (0, 0, 0) for r in reports)


def test_e2_quintic_table():
    t = sc.assemble_E2("quintic")
    assert t.display_rows() == ((161, 0, 0, 1), (0, 41, 1, 0),
                                (0, 1, 1, 0), (1, 0, 0, 1))
    assert t.entry(1, 2) == 41


def test_e2_mirror_table():
    t = sc.assemble_E2("mirror")
    assert t.display_rows() == ((1, 0, 0, 1), (0, 1, 1, 0),
                                (0, 1, 1, 0), (1, 0, 0, 1))
    assert t.centrally_symmetric()


def test_e2_derived_sums():
    q = sc.assemble_E2("quintic")
    m = sc.assemble_E2("mirror")
    assert q.antidiagonal_sum(3) == 204           # middle Betti number
    assert q.antidiagonal_sum(2) == 1
    assert q.alternating_sum() == -200
    assert m.antidiagonal_sum(3) == 4
    assert m.alternating_sum() == 0


def test_e2_quintic_table_is_genuinely_asymmetric():
    """Documented departure from the generic picture: the big corner entry
    has no partner, so the pointwise central symmetry fails on this page
    even though the abutted Betti numbers are palindromic."""
    q = sc.assemble_E2("quintic")
    assert not q.centrally_symmetric()
    betti = [sum(q.entry(p, k - p) for p in range(4) if 0 <= k - p <= 3)
             for k in range(7)]
    assert betti == [1, 0, 1, 204, 1, 0, 1]
    assert betti == betti[::-1]


def test_e2_unknown_fibration():
    with pytest.raises(ValueError):
        sc.assemble_E2("sextic")


def test_spectral_json_shape():
    payload = sc.spectral_json("quintic")
    assert payload["table_rows_top_down"][0] == [161, 0, 0, 1]
    assert payload["checks"]["alternating_sum"] == -200
    payload = sc.spectral_json("mirror")
    assert payload["checks"]["middle_antidiagonal_sum"] == 4


def test_sparse_triplets_roundtrip():
    cx = sc.build_K3()
    trips = cx.sparse_triplets()
    dense = rk.zeros(cx.c1, cx.c0)
    for r, c, v in trips:
        dense[r, c] = v
    assert (np.asarray(dense) == np.asarray(cx.differential)).all()


def test_differential_triplets_are_pinned():
    """Count and sha256 of the triplets, plain and under one seeded
    relabeling: `spectral --explain K3` prints them, so the differential
    must stay fixed entry for entry."""

    def pin(cx):
        trips = cx.sparse_triplets()
        return len(trips), hashlib.sha256(repr(trips).encode()).hexdigest()

    assert pin(sc.build_K3()) == (
        720, "06b4e1fbfd26d3457509197baee2ef11da2d054c897f1fc67348da16edeb039b")
    rel = sc.random_relabeling(np.random.default_rng(2024))
    assert pin(sc.build_K3(rel)) == (
        1077, "0722cc2c525526cde50ae888fab6577fc2c78e808b718a39c1c1313e5500a6aa")


def test_K3_elimination_touches_only_nonzeros(monkeypatch):
    """The elimination reads only the nonzeros of the two rows it combines:
    over a whole K3 rank that stays below ten times the differential's
    nonzero count, where a dense elimination reads 2 x 280 entries per
    combination (44,800 for the unrelabeled complex)."""
    combine = rk._combine
    touched = []

    def counted(p, row, f, pivot_row):
        touched.append(len(row) + len(pivot_row))
        return combine(p, row, f, pivot_row)

    monkeypatch.setattr(rk, "_combine", counted)
    for rel in (None, sc.random_relabeling(np.random.default_rng(2024))):
        touched.clear()
        assert sc.K3_cohomology(rel) == (160, 0)
        assert touched
        assert sum(touched) < 10 * len(sc.build_K3(rel).sparse_triplets())


def test_h0_sections_satisfy_all_edge_constraints():
    """Independent spot check that kernel vectors really are sections:
    plugging one into every leg's two restrictions gives matching values."""
    cx = sc.build_K3()
    vec = rk.kernel_basis(cx.differential)[0]
    prod = cx.differential @ vec
    assert all(x == 0 for x in prod)
