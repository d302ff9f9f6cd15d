import hashlib
import random

import numpy as np
import pytest

from quintfib import monodromy as mono
from quintfib import ratkernel as rk
from quintfib import sheafcoh as sc
from quintfib import verify
from quintfib.basecomplex import GraphEdge, enumerate_graph


def _dense(cx):
    """The differential as a dense matrix, from its triplets."""
    d = np.zeros((cx.c1, cx.c0), dtype=object)
    for r, c, v in cx.sparse_triplets():
        d[r, c] = v
    return d


def _reference_leg_roles(triple):
    """apex -> index-role map at a sorted triple (i, j, k)."""
    i, j, k = triple
    return {k: "l", i: "m", j: "n"}


def _reference_triple_labels(triple, relabeling):
    """(l, m) -> ambient index functions for the three roles at a triple,
    dispatched on the role name, with the n role's -alpha-beta shift
    written out."""
    unit, alpha, beta = (1, 0, 0)
    if relabeling is not None and triple in relabeling.triple_affine:
        unit, alpha, beta = relabeling.triple_affine[triple]

    def lab(role, l, m):
        if role == "l":
            return (unit * l + alpha) % 5
        if role == "m":
            return (unit * m + beta) % 5
        n = (-l - m) % 5
        return (unit * n - alpha - beta) % 5

    return lab


def _reference_sum_zero_rows(labels, zero_label):
    """Restriction between sum-zero coordinates: column s is
    e_{labels[s]} - e_{zero_label} on components 1..4."""
    rows = [{} for _ in range(4)]
    for s, a in enumerate(labels):
        if a != zero_label:
            if a:
                rows[a - 1][s] = 1
            if zero_label:
                rows[zero_label - 1][s] = -1
    return rows


def _reference_K3_rows(relabeling):
    """The K3 differential's rows assembled leg by leg from the role-dispatch
    labels and the pair permutations."""
    tri_offset = {t: 24 * i for i, t in enumerate(sc._TRIPLES)}
    pair_offset = {p: 24 * len(sc._TRIPLES) + 4 * i for i, p in enumerate(sc._PAIRS)}
    rows = []
    for leg in sc._LEGS:
        pair = tuple(sorted(leg.pair))
        triple = tuple(sorted(leg.pair | {leg.apex}))
        role = _reference_leg_roles(triple)[leg.apex]
        lab = _reference_triple_labels(triple, relabeling)
        labels = [lab(role, l, m) for l in range(5) for m in range(5) if (l, m) != (0, 0)]
        perm = tuple(range(5))
        if relabeling is not None and (pair, leg.apex) in relabeling.pair_leg_perms:
            perm = relabeling.pair_leg_perms[(pair, leg.apex)]
        for t_row, p_row in zip(_reference_sum_zero_rows(labels, lab(role, 0, 0)),
                                _reference_sum_zero_rows(perm[1:], perm[0])):
            row = {tri_offset[triple] + s: -v for s, v in t_row.items()}
            row.update((pair_offset[pair] + s, v) for s, v in p_row.items())
            rows.append(row)
    return rows


def test_cech_dimensions():
    cx = sc.build_K3()
    assert (cx.c0, cx.c1) == (280, 120)


def test_sheaf_specs_pin_stalk_dimensions():
    # (triple, pair, leg) stalk dimensions
    assert sc.K3_STALKS == (24, 4, 4)
    assert sc.K2_STALKS == (8, 0, 4)
    assert sc._cech_dims(sc.K3_STALKS) == (280, 120)
    assert sc._cech_dims(sc.K2_STALKS) == (80, 120)
    cx = sc.build_K3()
    assert (cx.c0, cx.c1) == sc._cech_dims(sc.K3_STALKS)


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
        dense = _dense(cx)
        assert rk.rank(cx.rows) == rk.rank(dense) == 120
        assert rk.rank(dense.T.copy()) == 120


def test_kernel_dimension_matches_kernel_basis():
    cx = sc.build_K3()
    assert len(rk.kernel_basis(_dense(cx))) == 160


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
    # random_relabeling draws from either generator type
    for rng in (np.random.default_rng(42), random.Random(42)):
        for _ in range(5):
            rel = sc.random_relabeling(rng)
            assert sc.K3_cohomology(rel) == (160, 0)


@pytest.mark.parametrize("seed", [3, 4, 5, 6, 1, 7, 23, 42, 2024])
def test_random_relabeling_keeps_its_draw_stream(seed):
    """Field for field, the relabelings drawn are those of the reference
    draws `int(rng.choice([1, 2, 3, 4]))` for a unit and
    `tuple(int(x) for x in rng.permutation(5))` for a permutation, and the
    stream stays in step after them.  Seeds: c12's seed + 3 at seeds 0-3,
    demo 04's seed 1 and the seeds of this module's tests."""
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(20):
        rel = sc.random_relabeling(rng)
        tri = {}
        for t in sc._TRIPLES:
            unit = int(ref.choice([1, 2, 3, 4]))
            tri[t] = (unit, int(ref.integers(5)), int(ref.integers(5)))
        perms = {}
        for leg in sc._LEGS:
            perms[(tuple(sorted(leg.pair)), leg.apex)] = \
                tuple(int(x) for x in ref.permutation(5))
        assert list(rel.triple_affine.items()) == list(tri.items())
        assert list(rel.pair_leg_perms.items()) == list(perms.items())
        for field in (rel.triple_affine, rel.pair_leg_perms):
            assert all(type(v) is tuple and {type(x) for x in v} == {int}
                       for v in field.values())
    assert rng.integers(1 << 62) == ref.integers(1 << 62)


def _role_labels(triple, relabeling):
    """The l, m and n labels of a sorted triple (i, j, k): those of its
    apex-k, apex-i and apex-j legs."""
    i, j, k = triple
    return [sc._leg_labels(triple, apex, relabeling) for apex in (k, i, j)]


def test_index_rule_enforced_by_labels():
    l_lab, m_lab, n_lab = _role_labels((1, 2, 3), sc._IDENTITY)
    for s in range(25):
        assert (l_lab[s] + m_lab[s] + n_lab[s]) % 5 == 0


def test_relabeled_labels_keep_index_rule():
    rng = np.random.default_rng(3)
    rel = sc.random_relabeling(rng)
    for triple, (unit, alpha, beta) in rel.triple_affine.items():
        l_lab, m_lab, n_lab = _role_labels(triple, rel)
        base, _, _ = _role_labels(triple, sc._IDENTITY)
        for s in range(25):
            assert l_lab[s] == (unit * base[s] + alpha) % 5
            assert (l_lab[s] + m_lab[s] + n_lab[s]) % 5 == 0


def test_labels_match_the_role_dispatch_reference():
    """The affine label formula against the role-dispatch reference: equal
    labels on every leg of every triple, and equal K3 rows, plain and under
    200 seeded relabelings."""
    rng = np.random.default_rng(23)
    for rel in [None] + [sc.random_relabeling(rng) for _ in range(200)]:
        for triple in sc._TRIPLES:
            lab = _reference_triple_labels(triple, rel)
            for apex, role in _reference_leg_roles(triple).items():
                assert sc._leg_labels(triple, apex, rel or sc._IDENTITY) == \
                    [lab(role, l, m) for l in range(5) for m in range(5)]
        assert sc.build_K3(rel).rows == _reference_K3_rows(rel)


_AFFINE_MAPS = [(unit, alpha, beta) for unit in (1, 2, 3, 4)
                for alpha in range(5) for beta in range(5)]


def test_affine_relabeling_permutes_the_generators():
    """Under each of the 100 affine maps (unit, alpha, beta), at every
    triple and apex, the leg labels are the canonical ones composed with
    the generator permutation (l, m) -> (unit*l + alpha, unit*m + beta):
    a relabeling only permutes a triple's 25 generators, so on sum-zero
    coordinates it changes the triple's block by a unimodular column map."""
    for unit, alpha, beta in _AFFINE_MAPS:
        perm = [5 * ((unit * l + alpha) % 5) + (unit * m + beta) % 5
                for l in range(5) for m in range(5)]
        assert sorted(perm) == list(range(25))
        for triple in sc._TRIPLES:
            rel = sc.Relabeling({triple: (unit, alpha, beta)}, {})
            for apex in triple:
                canonical = sc._leg_labels(triple, apex, sc._IDENTITY)
                assert sc._leg_labels(triple, apex, rel) == [canonical[g] for g in perm]


def test_every_affine_triple_block_has_rank_12():
    """All 1,000 (triple, affine map) blocks have rank 12, by brute force:
    what the permutation lemma proves for every relabeling from the ten
    canonical blocks that c12 ranks."""
    for affine in _AFFINE_MAPS:
        rel = sc.Relabeling(dict.fromkeys(sc._TRIPLES, affine), {})
        blocks = sc.triple_blocks(sc.build_K3(rel).rows)
        assert list(blocks) == list(sc._TRIPLES)
        assert [rk.rank(b) for b in blocks.values()] == [12] * 10


def test_pair_leg_permutations_leave_the_triple_blocks():
    rng = np.random.default_rng(5)
    for _ in range(5):
        rel = sc.random_relabeling(rng)
        affine_only = sc.Relabeling(rel.triple_affine, {})
        assert sc.triple_blocks(sc.build_K3(rel).rows) == \
            sc.triple_blocks(sc.build_K3(affine_only).rows)


def test_triple_blocks_are_the_triple_columns():
    """Shifted back to its triple's offset, each block row is its leg row's
    part in the 240 triple columns, plain and relabeled."""
    offsets = {t: 24 * i for i, t in enumerate(sc._TRIPLES)}
    for rel in (None, sc.random_relabeling(np.random.default_rng(2024))):
        rows = sc.build_K3(rel).rows
        blocks = sc.triple_blocks(rows)
        assert all(len(b) == 12 for b in blocks.values())
        block_rows = {t: iter(b) for t, b in blocks.items()}
        for n, leg in enumerate(sc._LEGS):
            triple = tuple(sorted(leg.pair | {leg.apex}))
            for row in rows[4 * n:4 * n + 4]:
                shifted = {offsets[triple] + c: x
                           for c, x in next(block_rows[triple]).items()}
                assert shifted == {c: x for c, x in row.items() if c < 240}


def test_triple_blocks_refuse_a_foreign_triple_entry():
    rows = [dict(row) for row in sc.build_K3().rows]
    assert sc._LEGS[1] == GraphEdge({1, 2}, 4)
    rows[5][24 * 9 + 3] = 1  # a row of leg Gamma_12^4, in (3, 4, 5)'s columns
    with pytest.raises(ValueError, match=r"leg Gamma_12\^4: .* \(1, 2, 4\)"):
        sc.triple_blocks(rows)
    with pytest.raises(ValueError, match="expected 120 rows, got 116"):
        sc.triple_blocks(sc.build_K3().rows[:-4])


def test_c12_names_a_rank_deficient_triple_block(monkeypatch):
    """c12 asserts the ten block ranks that `exact_data` holds; a patched
    `ExactData` with one block of rank 11 fails c12 alone, naming the
    triple and the rank."""
    cfg = verify.VerifyConfig(seed=0, skip="numeric")
    exact = verify.exact_data()
    assert exact.k3_block_ranks == dict.fromkeys(sc._TRIPLES, 12)
    assert verify.check_property_suite(cfg, exact)[1:] == ("verified", True, "")
    broken = exact._replace(
        k3_block_ranks={**exact.k3_block_ranks, (2, 3, 5): 11})
    monkeypatch.setattr(verify, "exact_data", lambda: broken)
    checks = verify.verify_all(cfg).checks
    assert [c.check_id for c in checks if c.status == "fail"] == ["c12-property-suite"]
    assert checks[-1].computed == "violated"
    assert checks[-1].detail == "K3 block of triple (2, 3, 5) has rank 11 != 12"


def test_K2_counts():
    k2 = sc.K2_dimension_count()
    assert (k2.c0, k2.c1) == (80, 120)
    assert k2.chi == -40
    assert k2.h0 == 0
    assert k2.h1 == 40
    assert k2.h1_R2 == 41


def test_ic_chain_dims():
    ic = sc.ic_chain_dims(mono.atlas())
    assert ic.dims() == (30, 60, 60, 30)
    assert ic.chi == 0
    # each leg's W0 has rank 1, so it contributes 2 to c2; the vertex
    # counts behind c3 are test_monodromy's test_dual_invariant_dimensions
    _, legs = enumerate_graph()
    for leg in legs:
        assert mono.vanishing_rank([mono.leg_monodromy(leg)]) == 1


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
    dense = np.zeros((cx.c1, cx.c0), dtype=object)
    for r, c, v in trips:
        dense[r, c] = v
    from_rows = np.zeros((cx.c1, cx.c0), dtype=object)
    for r, row in enumerate(cx.rows):
        for c, v in row.items():
            from_rows[r, c] = v
    assert (np.asarray(dense) == np.asarray(from_rows)).all()


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
    """The elimination reads only the nonzeros of the two rows of each row
    update: over a whole K3 differential that stays below ten times its
    nonzero count, where a dense elimination reads 2 x 280 entries per
    update (44,800 for the unrelabeled complex).  `rank` certifies these
    ranks over GF(2), so the elimination is called directly."""
    subtract = rk._subtract
    touched = []

    def counted(row, q, pivot_row):
        touched.append(len(row) + len(pivot_row))
        return subtract(row, q, pivot_row)

    monkeypatch.setattr(rk, "_subtract", counted)
    for rel in (None, sc.random_relabeling(np.random.default_rng(2024))):
        cx = sc.build_K3(rel)
        touched.clear()
        assert len(rk._eliminate(rk._sparse(cx.rows))[1]) == 120
        assert touched
        assert sum(touched) < 10 * len(cx.sparse_triplets())


def test_K3_ranks_need_no_elimination(monkeypatch):
    """The unrelabeled complex and 20 relabelings all reach rank 120 over
    GF(2), and each of their ten triple blocks rank 12, so `rank` proves
    h1 = 0 and the blocks' ranks with `_eliminate` never called."""

    def refuse(rows):
        raise AssertionError("the K3 rank eliminated over Z")

    rng = np.random.default_rng(2024)
    rels = [None] + [sc.random_relabeling(rng) for _ in range(20)]
    monkeypatch.setattr(rk, "_eliminate", refuse)
    for rel in rels:
        assert sc.K3_cohomology(rel) == (160, 0)
        blocks = sc.triple_blocks(sc.build_K3(rel).rows).values()
        assert [rk.rank(b) for b in blocks] == [12] * 10


def test_h0_sections_satisfy_all_edge_constraints():
    """Independent spot check that kernel vectors really are sections:
    plugging one into every leg's two restrictions gives matching values."""
    cx = sc.build_K3()
    dense = _dense(cx)
    vec = rk.kernel_basis(dense)[0]
    prod = dense @ vec
    assert all(x == 0 for x in prod)
