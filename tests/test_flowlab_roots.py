import warnings

import numpy as np
import pytest

from quintfib import flowlab as fl
from quintfib import verify
from quintfib.basecomplex import FattenedStratum, classify_fattened
from quintfib.flowlab import covering, pairing


# ------------------------------------------------------------------ pairings

def _pairing(loop, form, psi=10.0):
    """The integer pairing of one loop with one form, at c09's residue bar."""
    res, = fl.loop_pairing_detailed(loop, [form], psi=psi)
    assert res.residue < 1e-6
    return res.value


def test_pairing_delta_pattern_chart_12():
    # <gamma_12^k, alpha_l2> = delta_kl for l outside the pair
    assert _pairing((1, 2, 3), (3, 2)) == 1
    assert _pairing((1, 2, 3), (4, 2)) == 0
    assert _pairing((1, 2, 3), (5, 2)) == 0


def test_pairing_divisor_column():
    assert _pairing((1, 2, 3), (1, 2)) == -1
    assert _pairing((1, 2, 4), (1, 2)) == -1


def test_pairing_matrix_two_charts():
    for (i, j) in ((1, 2), (5, 4)):
        forms = sorted(set(range(1, 6)) - {j})
        for k in sorted(set(range(1, 6)) - {i, j}):
            results = fl.loop_pairing_detailed((i, j, k), [(l, j) for l in forms])
            for l, res in zip(forms, results):
                want = -1 if l == i else (1 if l == k else 0)
                assert res.value == want
                assert res.residue < 1e-6


def test_pairing_residue_is_tiny():
    res, = fl.loop_pairing_detailed((1, 2, 3), [(3, 2)])
    assert res.residue < 1e-9


def test_pairing_forms_share_one_loop_computation(monkeypatch):
    calls = []
    inner = pairing._loop_coordinates
    monkeypatch.setattr(pairing, "_loop_coordinates",
                        lambda *a: calls.append(a) or inner(*a))
    forms = [(1, 2), (3, 2), (4, 2), (5, 2)]
    results = fl.loop_pairing_detailed((1, 2, 4), forms)
    assert len(calls) == 1
    # each form reads the same result as its own one-form call, field by field
    assert [r.form for r in results] == forms
    for form, res in zip(forms, results):
        assert fl.loop_pairing_detailed((1, 2, 4), [form]) == [res]
    assert len(calls) == 1 + len(forms)


def test_pairing_rejects_degenerate_input():
    with pytest.raises(ValueError):
        _pairing((1, 1, 3), (3, 2))
    with pytest.raises(ValueError):
        _pairing((1, 2, 3), (2, 2))
    # an index 0 would read z_5 through index -1, an index 6 lies past z_5
    for loop, form in (((0, 2, 3), (3, 2)), ((1, 2, 3), (0, 2)),
                       ((6, 2, 3), (3, 2)), ((1, 2, 3), (3, 6)),
                       ((1, 2), (3, 2)), ((1, 2, 3), (3, 2, 1))):
        with pytest.raises(ValueError):
            fl.loop_pairing_detailed(loop, [form])
    # one bad form among good ones rejects the whole call
    with pytest.raises(ValueError):
        fl.loop_pairing_detailed((1, 2, 3), [(3, 2), (4, 4)])


def test_pairing_near_pole_reported():
    # a huge pencil parameter drives the tracked root onto the form's pole
    with pytest.raises(ArithmeticError, match="pole"):
        _pairing((1, 2, 3), (1, 2), psi=1e7)


C09_LOOPS = [(i, j, k) for (i, j) in ((1, 2), (5, 4))
             for k in sorted(set(range(1, 6)) - {i, j})]


def test_pairing_continuation_certified_on_c09_loops():
    # every c09 loop is tracked with a wide margin (worst step ratio 7.5e-4)
    for i, j, k in C09_LOOPS:
        _, worst = pairing._loop_coordinates(i, j, k, psi=10.0)
        assert worst < pairing.STEP_FRACTION


def _loop_roots(small, other):
    """(n, 5) roots along a loop: two moving columns and three fixed far roots."""
    n = len(small)
    return np.column_stack([small, other, np.full(n, 5.0), np.full(n, 6j),
                            np.full(n, -7.0)])


CIRCLE = np.exp(2j * np.pi * np.arange(64) / 64)


def test_pairing_continuation_accepts_smooth_track():
    eigs = _loop_roots(0.1 * CIRCLE, np.full(64, -2.0))
    track, worst = pairing._track_small_root(eigs)
    assert np.array_equal(track, eigs[:, 0])
    assert worst < pairing.STEP_FRACTION


def test_pairing_continuation_rejects_root_jump():
    eigs = _loop_roots(0.1 * CIRCLE, np.full(64, -2.0))
    eigs[20, 0] = 1.5       # one step of 1.4, 3.5 away from the other roots
    with pytest.raises(ArithmeticError, match="uncertified at step 20"):
        pairing._track_small_root(eigs)


def test_pairing_continuation_rejects_unclosed_loop():
    # a small pair turning half way round swaps places: every step is
    # certified, but the tracked root ends on the other one
    half = 0.1 * np.sqrt(CIRCLE)
    with pytest.raises(ArithmeticError, match="close up"):
        pairing._track_small_root(_loop_roots(half, -half))


# ------------------------------------------------------------ covering counts

def test_covering_interior_point():
    assert fl.covering_count(1.0, 1.0) == 50


def test_covering_edge_point():
    r = 2.0 ** (-1.0 / 5.0)
    assert fl.covering_count(r, r) == 25


def test_covering_vertex_points():
    assert fl.covering_count(1.0, 0.0) == 5
    assert fl.covering_count(0.0, 1.0) == 5


def test_covering_outside_warns_zero():
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        assert fl.covering_count(0.5, 0.5) == 0
    assert len(log) == 1


def test_covering_random_interior_points():
    rng = np.random.default_rng(31)
    found = 0
    while found < 8:
        r1, r2 = rng.uniform(0.7, 1.6, 2)
        if classify_fattened(r1, r2) != FattenedStratum.INTERIOR2:
            continue
        found += 1
        assert fl.covering_count(r1, r2) == 50


def test_covering_other_edge_branch():
    # r1^5 = r2^5 + 1 boundary
    r2 = 1.1
    r1 = (r2 ** 5 + 1.0) ** 0.2
    assert classify_fattened(r1, r2) == FattenedStratum.EDGE1
    assert fl.covering_count(r1, r2) == 25


def test_covering_stable_under_tol_halving():
    for (r1, r2) in ((1.0, 1.0), (1.0, 1.1)):
        a = fl.covering_count(r1, r2, tol=1e-9)
        b = fl.covering_count(r1, r2, tol=5e-10)
        assert a == b


def test_covering_roots_satisfy_equation():
    roots = fl.covering_roots(1.0, 1.1, 1e-9)
    assert len(roots) == 50
    for t1, t2 in roots:
        val = 1.0 ** 5 * np.exp(5j * t1) + 1.1 ** 5 * np.exp(5j * t2) + 1.0
        assert abs(val) < 1e-7


def _torus_distances(a, b):
    d = np.abs(np.asarray(a)[:, None, :] - np.asarray(b)[None, :, :])
    d = np.minimum(d, 2 * np.pi - d)
    return np.hypot(d[..., 0], d[..., 1])


def _separate_passes(r1, r2, tol=1e-9):
    """The grid pass (deduped) and the constructive pass, each on its own,
    lifted from u = 5 theta to the torus."""
    R1, R2 = r1 ** 5, r2 ** 5
    newton_tol, verify_tol, dedupe_tol = covering._tolerances(R1, R2, tol)
    grid = covering._dedupe(covering._grid_roots(R1, R2, newton_tol),
                            5.0 * dedupe_tol)
    return (covering._lift(grid),
            covering._lift(covering._reduced_roots(R1, R2, verify_tol)),
            dedupe_tol)


@pytest.mark.parametrize("seed", [0, 1])
def test_covering_passes_agree_on_c10_interior(seed):
    interior, _ = verify.covering_sample_points(seed)
    for r1, r2 in interior:
        grid, reduced, dedupe_tol = _separate_passes(r1, r2)
        assert len(grid) == 50
        assert len(reduced) == 50
        close = _torus_distances(reduced, grid) <= dedupe_tol
        # one to one: every constructive root has exactly one grid partner
        assert np.all(close.sum(axis=0) == 1)
        assert np.all(close.sum(axis=1) == 1)


def test_covering_edge_counts_rest_on_constructive_pass():
    _, edge = verify.covering_sample_points(0)
    for r1, r2 in edge:
        _, reduced, dedupe_tol = _separate_passes(r1, r2)
        assert len(covering._dedupe(reduced, dedupe_tol)) == 25
    # known disagreement: the roots are tangential here and the grid pass
    # sees none of them
    r1, r2 = edge[1]
    assert (round(r1, 3), round(r2, 3)) == (0.86, 0.881)
    grid, _, _ = _separate_passes(r1, r2)
    assert len(grid) == 0
    assert fl.covering_count(r1, r2) == 25


def _theta_grid_sign_changes(R1, R2, n=400):
    """Sign-change cells of a uniform n x n theta grid over the whole torus,
    sampling e^{5 i theta} directly."""
    e = np.exp(5j * np.linspace(0.0, 2.0 * np.pi, n, endpoint=False))
    g = R1 * e[:, None] + R2 * e[None, :] + 1.0

    def any_corner(b):
        b = b | np.roll(b, -1, 0)
        return b | np.roll(b, -1, 1)

    return any_corner(g.real <= 0) & any_corner(g.real >= 0) \
        & any_corner(g.imag <= 0) & any_corner(g.imag >= 0)


@pytest.mark.parametrize("seed", range(6))
def test_period_grid_holds_the_theta_grids_samples(seed):
    # the one-period grid in u = 5 theta is not a smaller grid: the full
    # 400 x 400 theta grid's seed cells are 25 tiles of its seed cells.  The
    # edge points are left out: their roots are tangential, and there the
    # theta grid's tiles disagree among themselves by rounding
    assert 5 * covering.GRID_N == 400
    interior, _ = verify.covering_sample_points(seed)
    for r1, r2 in interior:
        R1, R2 = r1 ** 5, r2 ** 5
        reduced = covering._sign_changes(R1, R2)
        assert reduced.any()
        assert np.array_equal(_theta_grid_sign_changes(R1, R2),
                              np.tile(reduced, (5, 5)))


def test_covering_roots_respect_phase_translation():
    """The solution set is invariant under the order-5 phase translations."""
    roots = fl.covering_roots(1.0, 1.0, 1e-9)
    shift = 2.0 * np.pi / 5.0
    def close(a, b):
        d = np.abs(np.asarray(a) - np.asarray(b))
        d = np.minimum(d, 2 * np.pi - d)
        return np.hypot(*d) < 1e-5
    for t1, t2 in roots[:10]:
        shifted = ((t1 + shift) % (2 * np.pi), t2)
        assert any(close(shifted, r) for r in roots)


# ------------------------------------------------------- special Lagrangians

def test_hl_map_values():
    z = np.array([1.0 + 0j, 1.0j, 1.0])
    f = fl.hl_map(z)
    assert np.allclose(f, [1.0, 0.0, 0.0])


def test_hl_probe_defect_small():
    res = fl.hl_fiber_probe((0.0, 1.0, 1.0), n_samples=64, seed=0)
    assert res.slag_defect < 1e-6


def test_hl_probe_generic_smooth_target():
    res = fl.hl_fiber_probe((0.4, 1.0, 0.7), n_samples=32, seed=1)
    assert res.classification == ("smooth", None)
    assert res.slag_defect < 1e-6


def test_hl_probe_defect_small_at_c_0_2_half():
    # the defect bounds the phase wobble across the samples
    res = fl.hl_fiber_probe((0.0, 2.0, 0.5), n_samples=48, seed=2)
    assert res.slag_defect < 1e-6


def test_hl_origin_classification_and_rank_drop():
    res = fl.hl_fiber_probe((0.0, 0.0, 0.0), n_samples=100, seed=3)
    assert res.classification == ("singular", "origin")
    assert res.axis_ranks == (1, 1, 1)
    assert len(res.generic_ranks) >= 100
    assert all(r == 3 for r in res.generic_ranks)


def test_hl_singular_branch_membership():
    assert fl.classify_hl_target((0.0, -1.0, 0.0)) == ("singular", "axis-2")
    assert fl.classify_hl_target((0.0, 0.0, -2.0)) == ("singular", "axis-3")
    assert fl.classify_hl_target((0.0, 1.0, 1.0)) == ("singular", "diagonal")
    assert fl.classify_hl_target((0.3, 1.0, 1.0)) == ("smooth", None)


def test_hl_axis_samples_have_rank_drop():
    for z in (np.array([1.5 + 0j, 0, 0]), np.array([0, 1.5 + 0j, 0]),
              np.array([0, 0, 1.5 + 0j])):
        assert fl.hl_jacobian_rank(z) < 3


def test_hl_fiber_samples_satisfy_constraints():
    rng = np.random.default_rng(9)
    c = (0.2, 0.8, -0.3)
    for z, _ in fl.sample_hl_fiber(c, 25, rng):
        assert np.allclose(fl.hl_map(z), c, atol=1e-10)


# ------------------------------------------------------- verify-all goldens

@pytest.fixture(scope="module")
def seed0_run():
    """verify_all at seed 0, and the loops whose coordinates it computed."""
    calls = []
    inner = pairing._loop_coordinates
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pairing, "_loop_coordinates",
                   lambda *a: calls.append(a) or inner(*a))
        report = verify.verify_all(verify.VerifyConfig(seed=0))
    return report, calls


def test_c09_computes_each_loop_once(seed0_run):
    # six loops (three per chart) serve the 24 (loop, form) pairs of c09
    _, calls = seed0_run
    assert len(calls) == 6
    assert sorted(a[:3] for a in calls) == sorted(C09_LOOPS)


def test_verify_all_root_rows_golden(seed0_run):
    # c09 and c10 rows of verify-all at seed 0, byte for byte as captured
    # before the root-finding layer was batched
    rows = {c.check_id: (c.expected, c.computed, c.status, c.detail)
            for c in seed0_run[0].checks}
    assert rows["c09-pairing-matrix"] == (
        "delta_kl with a -1 column, residues < 1e-6", "verified", "pass", "")
    assert rows["c10-covering-counts"] == (
        "50/25/5 stable under tol halving", "verified", "pass", "")
