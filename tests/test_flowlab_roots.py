import hashlib
import warnings
from collections import Counter

import numpy as np
import pytest

from quintfib import flowlab as fl
from quintfib import verify
from quintfib.basecomplex import FattenedStratum, classify_fattened
from quintfib.flowlab import covering, harveylawson, pairing


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
    assert [loops for loops, _ in calls] == [[(1, 2, 4)]]
    # each form reads the same result as its own one-form call, field by field
    assert [r.form for r in results] == forms
    for form, res in zip(forms, results):
        assert fl.loop_pairing_detailed((1, 2, 4), [form]) == [res]
    assert len(calls) == 1 + len(forms)


@pytest.mark.parametrize("psi", [float("nan"), float("inf"), complex(0, float("nan")),
                                 0.0])
def test_pairing_and_verify_config_refuse_non_finite_psi(psi):
    # at psi 0 the quintic has no small root: its five roots share one modulus
    with pytest.raises(ValueError, match="^psi must be finite"):
        fl.loop_pairing_detailed((1, 2, 3), [(3, 2)], psi=psi)
    if isinstance(psi, float):
        with pytest.raises(ValueError, match="^psi must be finite"):
            verify.VerifyConfig(seed=0, psi=psi)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), -1e-9])
def test_covering_refuses_bad_tolerances(tol):
    """(1, 1) is an interior point, where the count is 50; a NaN tolerance
    used to classify it as outside, since every comparison with NaN fails."""
    for call in (lambda: fl.covering_count(1.0, 1.0, tol=tol),
                 lambda: fl.covering_stratum(1.0, 1.0, tol),
                 lambda: fl.covering_roots(1.0, 1.0, tol)):
        with pytest.raises(ValueError, match="^tol must be finite and nonnegative"):
            call()


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
    # every c09 loop is tracked with a wide margin (worst Rouché ratio 4.2e-7)
    _, worst = pairing._loop_coordinates(C09_LOOPS, psi=10.0)
    assert worst.shape == (6,)
    assert np.all(worst < 1)


def _c09_forms(loops):
    """Each loop's four forms d log(z_l / z_j), as c09 pairs them."""
    return [[(l, j) for l in range(1, 6) if l != j] for _, j, _ in loops]


def test_loop_batch_refuses_mismatched_rows():
    with pytest.raises(ValueError, match="one sequence of forms per loop"):
        fl.loop_pairings([(1, 2, 3)], [], 10.0)
    assert fl.loop_pairings([], [], 10.0) == []


def test_loop_batch_rows_equal_single_loops():
    forms = _c09_forms(C09_LOOPS)
    z, worst = pairing._loop_coordinates(C09_LOOPS, 10.0)
    batch = fl.loop_pairings(C09_LOOPS, forms, 10.0)
    for n, loop in enumerate(C09_LOOPS):
        z1, worst1 = pairing._loop_coordinates([loop], 10.0)
        assert z[n].tobytes() == z1[0].tobytes()
        assert worst[n] == worst1[0]
        assert fl.loop_pairing_detailed(loop, forms[n], psi=10.0) == batch[n]


# sha256 of repr(loop_pairings(C09_LOOPS, _c09_forms(C09_LOOPS), psi)),
# computed once the small root was followed by Newton continuation
PAIRING_DIGESTS = {
    10.0: "9312f9a2941a036b5da563042bffe0e230a835d7f8aaff67b8ce8190847892f3",
    2.0: "566b5529f33228ad4219082ea2a7e4e40403e08d433daf353c72cebe91ea743c",
    0.9: "c4524088858c0e4d649e6622cff08cff8e9cef8e40fc97c7f6a0a86bbad61f60",
}

# the (value, residue) of each of c09's 24 (loop, form) pairs, row by row,
# as the eigenvalue continuation gave them at psi 10, 2 and 0.9
PAIRING_VALUES = ("-1 0.0, 1 0.0, 0 0.0, 0 0.0; -1 0.0, 0 0.0, 1 0.0, 0 0.0; "
                  "-1 0.0, 0 0.0, 0 0.0, 1 0.0; 1 0.0, 0 0.0, 0 0.0, -1 0.0; "
                  "0 0.0, 1 0.0, 0 0.0, -1 0.0; 0 0.0, 0 0.0, 1 0.0, -1 0.0")


@pytest.mark.parametrize("psi", sorted(PAIRING_DIGESTS))
def test_loops_inside_their_chart_keep_their_results(psi):
    res = fl.loop_pairings(C09_LOOPS, _c09_forms(C09_LOOPS), psi)
    assert hashlib.sha256(repr(res).encode()).hexdigest() == PAIRING_DIGESTS[psi]
    assert "; ".join(", ".join(f"{r.value} {r.residue!r}" for r in row)
                     for row in res) == PAIRING_VALUES


@pytest.mark.parametrize("psi", [0.5, 0.7])
def test_loops_outside_their_chart_raise(psi):
    # at psi 0.7 and below the small root outgrows the spectators; at psi
    # 0.5 the divisor column used to read 0 where -1 is wanted
    with pytest.raises(ArithmeticError, match=(
            rf"^loop \(1, 2, 3\) outside chart U_1\^2 at psi = {psi}: "
            r"margin -0\.\d+")):
        fl.loop_pairings(C09_LOOPS, _c09_forms(C09_LOOPS), psi)
    with pytest.raises(ArithmeticError, match=r"^loop \(5, 4, 1\) outside chart U_5\^4"):
        fl.loop_pairing_detailed((5, 4, 1), [(5, 4)], psi=psi)


def _tracks(loops, psi):
    """Each loop's tracked root, (L, N_STEPS), with the coefficients a and b
    of its quintic z^5 - a z + b, read back off the loop coordinates."""
    z, _ = pairing._loop_coordinates(loops, psi)
    divisor = [i - 1 for i, _, _ in loops]
    others = np.stack([np.delete(zl, i, axis=1) for zl, i in zip(z, divisor)])
    return (z[np.arange(len(loops)), :, divisor],
            5.0 * psi * np.prod(others, axis=-1), np.sum(others ** 5, axis=-1))


def _eigvals_track(a, b):
    """The continuation c09 used to run: every root from one eigenvalue call
    on companion matrices, the smallest at the first step, then at each step
    the root nearest the previous one."""
    companion = np.zeros(a.shape + (5, 5), dtype=complex)
    companion[..., 0, 3] = a
    companion[..., 0, 4] = -b
    companion[..., np.arange(1, 5), np.arange(4)] = 1.0
    roots = np.linalg.eigvals(companion)
    at = np.arange(len(a))
    track = np.empty_like(a)
    track[:, 0] = roots[at, 0, np.abs(roots[:, 0]).argmin(axis=1)]
    for s in range(1, a.shape[1]):
        near = np.abs(roots[:, s] - track[:, s - 1, None]).argmin(axis=1)
        track[:, s] = roots[at, s, near]
    return track


@pytest.mark.parametrize("psi", [10.0, 2.0, 0.9, 0.85, -10.0, 100.0])
def test_continuation_agrees_with_the_eigenvalue_oracle(psi):
    track, a, b = _tracks(C09_LOOPS, psi)
    assert np.abs(track - _eigvals_track(a, b)).max() < 1e-15


def test_rouche_certificate_holds_in_interval_arithmetic():
    # psi 0.9 is c09's lowest pinned psi; its worst loop has the largest
    # ratio that passes (0.18), so rounding could fake the certificate
    # there first
    iv = pytest.importorskip("mpmath").iv
    psi = 0.9
    z, worst = pairing._loop_coordinates(C09_LOOPS, psi)
    n = int(np.argmax(worst))
    i = C09_LOOPS[n][0] - 1
    rows = [[iv.mpc(x.real, x.imag) for x in row] for row in z[n]]
    ratios = []
    for s in range(1, pairing.N_STEPS + 1):
        row = rows[s % pairing.N_STEPS]
        w, others = row[i], row[:i] + row[i + 1:]
        a = 5 * iv.mpf(psi) * others[0] * others[1] * others[2] * others[3]
        b = sum(x ** 5 for x in others)
        r = abs(w - rows[s - 1][i]) / pairing.STEP_FRACTION
        m = abs(w)
        bound = (abs(w ** 5 - a * w + b) + 10 * m ** 3 * r ** 2
                 + 10 * m ** 2 * r ** 3 + 5 * m * r ** 4 + r ** 5)
        linear = abs(5 * w ** 4 - a) * r
        assert bound.b < linear.a, f"step {s}"
        ratios.append(float((bound / linear).b))
    assert max(ratios) == pytest.approx(worst[n], rel=1e-9)


def test_pairing_continuation_accepts_smooth_track():
    track, a, b = _tracks(C09_LOOPS, 10.0)
    _, worst = pairing._loop_coordinates(C09_LOOPS, 10.0)
    assert np.array_equal(pairing._certify(track, a, b, C09_LOOPS), worst)
    assert np.all(worst < 1)


def test_pairing_continuation_rejects_root_jump():
    loops = C09_LOOPS[:2]
    track, a, b = _tracks(loops, 10.0)
    # step 20 of the second loop moves onto the nearest other root of its
    # quintic
    roots = np.roots([1, 0, 0, 0, -a[1, 20], b[1, 20]])
    track[1, 20] = roots[np.argsort(np.abs(roots - track[1, 20]))[1]]
    with pytest.raises(ArithmeticError, match=(
            r"^loop \(1, 2, 4\): root continuation uncertified at step 20: "
            r"Rouché ratio")):
        pairing._certify(track, a, b, loops)


def test_pairing_continuation_rejects_unclosed_loop():
    # a large root goes as a^(1/4), and a winds once around the loop, so
    # continued from a large root every step is certified but the track
    # ends on the next large root: the closing step fails
    loops = C09_LOOPS[:1]
    _, a, b = _tracks(loops, 10.0)
    roots = np.roots([1, 0, 0, 0, -a[0, 0], b[0, 0]])
    track = pairing._continue_root(a, b, roots[np.argmax(np.abs(roots))][None])
    with pytest.raises(ArithmeticError, match=(
            rf"^loop \(1, 2, 3\): root continuation uncertified at step "
            rf"{pairing.N_STEPS}: ")):
        pairing._certify(track, a, b, loops)


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


def _fsolve_roots(r1, r2, n=400):
    """Torus roots found by scipy's fsolve in theta, seeded at the centre of
    every sign-change cell of the n x n theta grid and deduplicated at 1e-6:
    a search that shares nothing with the closed form."""
    optimize = pytest.importorskip("scipy.optimize")
    R1, R2 = r1 ** 5, r2 ** 5

    def f(t):
        g = R1 * np.exp(5j * t[0]) + R2 * np.exp(5j * t[1]) + 1.0
        return [g.real, g.imag]

    def jac(t):
        e1, e2 = 5j * R1 * np.exp(5j * t[0]), 5j * R2 * np.exp(5j * t[1])
        return [[e1.real, e2.real], [e1.imag, e2.imag]]

    h = 2.0 * np.pi / n
    found = []
    for cell in np.argwhere(_theta_grid_sign_changes(R1, R2, n)):
        t, _, ier, _ = optimize.fsolve(f, (cell + 0.5) * h, fprime=jac,
                                       xtol=1e-13, full_output=True)
        if ier == 1 and np.hypot(*f(t)) < 1e-10:
            t = t % (2.0 * np.pi)
            if not found or _torus_distances([t], found).min() > 1e-6:
                found.append(t)
    return np.array(found).reshape(-1, 2)


@pytest.mark.parametrize("seed", [0, 1])
def test_covering_passes_agree_on_c10_interior(seed):
    # the closed form against a grid-seeded search, one to one
    interior, _ = verify.covering_sample_points(seed)
    for r1, r2 in interior:
        searched = _fsolve_roots(r1, r2)
        closed = fl.covering_roots(r1, r2, 1e-9)
        assert len(searched) == len(closed) == 50
        close = _torus_distances(closed, searched) <= 1e-6
        assert np.all(close.sum(axis=0) == 1)
        assert np.all(close.sum(axis=1) == 1)


def test_covering_edge_counts_rest_on_constructive_pass():
    # over a boundary curve the closed form's two u-roots coincide in one
    # tangential root, lifted to 25 phases
    _, edge = verify.covering_sample_points(0)
    for r1, r2 in edge:
        R1, R2 = r1 ** 5, r2 ** 5
        _, verify_tol, dedupe_tol = covering._tolerances(R1, R2, 1e-9)
        u = covering._dedupe(covering._reduced_roots(R1, R2, verify_tol),
                             5.0 * dedupe_tol)
        assert len(u) == 1
        assert fl.covering_count(r1, r2) == 25


# face points within 1e-6 of each of the three boundary curves, on both sides
NEAR_BOUNDARY_OFFSETS = np.linspace(-1e-6, 1e-6, 9)


def _near_boundary_points(n=25):
    points = []
    for t in np.linspace(0.3, 0.97, n):  # r1^5 + r2^5 = 1
        points += [(t, (1.0 - t ** 5) ** 0.2 + d) for d in NEAR_BOUNDARY_OFFSETS]
    for t in np.linspace(0.2, 1.5, n):  # r1^5 = r2^5 + 1
        points += [((t ** 5 + 1.0) ** 0.2 + d, t) for d in NEAR_BOUNDARY_OFFSETS]
    for t in np.linspace(0.2, 1.5, n):  # r2^5 = r1^5 + 1
        points += [(t, (t ** 5 + 1.0) ** 0.2 + d) for d in NEAR_BOUNDARY_OFFSETS]
    return [(float(r1), float(r2)) for r1, r2 in points]


def test_covering_count_never_exceeds_50_near_the_boundary():
    # a period holds at most two u-roots, so no point has more than 50; the
    # union with the grid pass used to count up to 225 roots in this band
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the outside points warn
        counts = {(r1, r2, tol): fl.covering_count(r1, r2, tol)
                  for r1, r2 in _near_boundary_points()
                  for tol in (1e-9, 5e-10, 1e-6)}
    assert len(counts) == 3 * 3 * 25 * len(NEAR_BOUNDARY_OFFSETS)
    assert {key: n for key, n in counts.items() if n > 50} == {}
    assert set(counts.values()) <= {0, 25, 50}


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


def test_hl_jacobian_rank_of_a_point_is_an_int():
    point = np.array([0.6 + 0.2j, 0.5 - 0.1j, 0.4 + 0.3j])
    rank = fl.hl_jacobian_rank(point)
    assert type(rank) is int and rank == 3
    ranks = fl.hl_jacobian_rank(np.stack([point, 1.3 * np.eye(3)[0]]))
    assert ranks.shape == (2,) and ranks.tolist() == [3, 1]


def test_hl_fiber_samples_satisfy_constraints():
    rng = np.random.default_rng(9)
    c = (0.2, 0.8, -0.3)
    points, params = fl.sample_hl_fiber(c, 25, rng)
    assert points.shape == (25, 3) and params.shape == (25, 4)
    for z in points:
        assert np.allclose(fl.hl_map(z), c, atol=1e-10)


def _reference_point(c, rho1, theta1, theta2, branch):
    """One sample's point from its parameters, in scalar arithmetic."""
    c1, c2, c3 = (float(x) for x in c)
    rho1 = np.float64(rho1)
    rho2 = np.sqrt(rho1 ** 2 - c2)
    rho3 = np.sqrt(rho1 ** 2 - c3)
    total = np.arcsin(min(1.0, max(-1.0, c1 / (rho1 * rho2 * rho3))))
    if branch:
        total = np.pi - total
    theta3 = total - theta1 - theta2
    return np.array([rho1 * np.exp(1j * theta1), rho2 * np.exp(1j * theta2),
                     rho3 * np.exp(1j * theta3)])


def _reference_probe(c, n_samples, seed):
    """hl_fiber_probe's sample points, defect and ranks computed one sample
    at a time, with np.vdot, np.linalg.norm, np.linalg.det and one SVD per
    point."""
    points, params = fl.sample_hl_fiber(c, n_samples, np.random.default_rng(seed))
    h = harveylawson.FRAME_H
    ref_points = []
    defect, phase = 0.0, None
    for rho1, theta1, theta2, branch in params:
        ref_points.append(_reference_point(c, rho1, theta1, theta2, branch))
        frame = []
        for slot in range(3):
            plus, minus = [rho1, theta1, theta2], [rho1, theta1, theta2]
            plus[slot] += h
            minus[slot] -= h
            frame.append((_reference_point(c, *plus, branch)
                          - _reference_point(c, *minus, branch)) / (2.0 * h))
        norms = [np.linalg.norm(u) for u in frame]
        for a, b in ((0, 1), (0, 2), (1, 2)):
            om = abs(np.imag(np.vdot(frame[a], frame[b])))
            if norms[a] > 0 and norms[b] > 0:
                defect = max(defect, om / (norms[a] * norms[b]))
        vol = np.linalg.det(np.column_stack(frame))
        if abs(vol) > 0:
            if phase is None:
                phase = -np.angle(vol)
            defect = max(defect, abs(np.imag(np.exp(1j * phase) * vol)) / abs(vol))
    ranks = []
    for z in [*(1.3 * np.eye(3, dtype=complex)), *points]:
        z1, z2, z3 = z
        jac = np.zeros((3, 6))
        for i, pr in enumerate((z2 * z3, z1 * z3, z1 * z2)):
            jac[0, 2 * i], jac[0, 2 * i + 1] = pr.imag, pr.real
        jac[1, :4] = 2 * z1.real, 2 * z1.imag, -2 * z2.real, -2 * z2.imag
        jac[2, :2] = 2 * z1.real, 2 * z1.imag
        jac[2, 4:] = -2 * z3.real, -2 * z3.imag
        sv = np.linalg.svd(jac, compute_uv=False)
        ranks.append(int(np.sum(sv > harveylawson.RANK_TOL * (sv[0] or 1.0))))
    same_points = points.tobytes() == np.array(ref_points).reshape(-1, 3).tobytes()
    return same_points, float(defect), tuple(ranks[:3]), tuple(ranks[3:])


@pytest.mark.parametrize("seed", range(4))
def test_hl_probe_equals_per_sample_reference(seed):
    # (-0.3, 2, 0.5) at seed 2 holds a sample whose rho1^2 rounds one way
    # through libm's pow and the other way as rho1 * rho1
    for c, n in (((0, 1, 1), 64), ((0, 0, 0), 100), ((0.4, 1.0, 0.7), 32),
                 ((-0.3, 2.0, 0.5), 50)):
        res = fl.hl_fiber_probe(c, n_samples=n, seed=seed)
        same_points, defect, axis_ranks, generic_ranks = _reference_probe(c, n, seed)
        assert same_points
        assert res.slag_defect == defect
        if c == (0, 0, 0):
            assert (res.axis_ranks, res.generic_ranks) == (axis_ranks, generic_ranks)


@pytest.mark.parametrize("seed", range(4))
def test_hl_frame_norms_round_as_single_vectors(seed):
    # np.linalg.norm(frames, axis=-1) sums |v|^2 in another order; the probe
    # keeps the rounding of np.linalg.norm on each vector
    _, params = fl.sample_hl_fiber((0, 1, 1), 64, np.random.default_rng(seed))
    frames = harveylawson._tangent_frames((0, 1, 1), params)
    norms = harveylawson._norms(frames)
    assert norms.tobytes() == np.array(
        [[np.linalg.norm(u) for u in frame] for frame in frames]).tobytes()


@pytest.mark.parametrize("c", [(float("nan"), 0, 0), (0, float("inf"), 1),
                               (0, 1)])
def test_hl_refuses_bad_targets(c):
    # (nan, 0, 0) used to classify as smooth and return a defect of 1.4e-10
    with pytest.raises(ValueError, match="^c must be three finite numbers"):
        fl.hl_fiber_probe(c, n_samples=8)
    with pytest.raises(ValueError, match="^c must be three finite numbers"):
        fl.sample_hl_fiber(c, 8, np.random.default_rng(0))


def test_hl_probe_refuses_no_samples():
    # n_samples = 0 used to return a defect of 0.0 from no sample
    with pytest.raises(ValueError, match="^n_samples must be at least 1, got 0"):
        fl.hl_fiber_probe((0, 1, 1), n_samples=0)


def test_hl_refuses_negative_sample_counts():
    # n_samples = -5 used to return a defect of 0.0 from no sample
    with pytest.raises(ValueError, match="^n_samples must not be negative, got -5"):
        fl.hl_fiber_probe((0, 1, 1), n_samples=-5)
    with pytest.raises(ValueError, match="^n_samples must not be negative"):
        fl.sample_hl_fiber((0, 1, 1), -1, np.random.default_rng(0))


# ------------------------------------------------------- verify-all goldens

@pytest.fixture(scope="module")
def seed0_run():
    """verify_all at seed 0, the loops whose coordinates it computed, and a
    count of the (check, kernel, shape of the first argument) calls of the
    batched numeric kernels."""
    calls = []
    kernels = Counter()
    running = [None]
    inner = pairing._loop_coordinates

    def counted(name, fn):
        return lambda *a, **k: kernels.update(
            [(running[0], name, np.shape(a[0]))]) or fn(*a, **k)

    def tagged(check_id, fn):
        return lambda *a: running.__setitem__(0, check_id) or fn(*a)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pairing, "_loop_coordinates",
                   lambda *a: calls.append(a) or inner(*a))
        mp.setattr(np.linalg, "eigvals", counted("eigvals", np.linalg.eigvals))
        mp.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
        mp.setattr(covering, "_reduced_roots",
                   counted("closed form", covering._reduced_roots))
        mp.setattr(verify, "CHECKS",
                   [(*row[:4], tagged(row[0], row[4])) for row in verify.CHECKS])
        report = verify.verify_all(verify.VerifyConfig(seed=0))
    return report, calls, kernels


def test_numeric_checks_batch_their_kernel_calls(seed0_run):
    # c09 follows its roots by Newton and finds no eigenvalue; c10 solves
    # the closed form once for each of its 50 (point, tol) rows off the two
    # vertices; c11 makes one call in all
    report, _, kernels = seed0_run
    assert report.passed

    def calls(check, name):
        return {shape: n for (c, k, shape), n in kernels.items()
                if (c, k) == (check, name)}
    assert calls("c09-pairing-matrix", "eigvals") == {}
    assert calls("c10-covering-counts", "closed form") == {(): 50}
    assert sum(calls("c11-harvey-lawson", "svd").values()) == 1


def test_c09_computes_each_loop_once(seed0_run):
    # one call holding six loops (three per chart) serves the 24 (loop,
    # form) pairs of c09
    _, calls, _ = seed0_run
    assert len(calls) == 1
    assert sorted(calls[0][0]) == sorted(C09_LOOPS)


def test_verify_all_root_rows_golden(seed0_run):
    # c09 and c10 rows of verify-all at seed 0, byte for byte as captured
    # before the root-finding layer was batched
    rows = {c.check_id: (c.expected, c.computed, c.status, c.detail)
            for c in seed0_run[0].checks}
    assert rows["c09-pairing-matrix"] == (
        "delta_kl with a -1 column, residues < 1e-6", "verified", "pass", "")
    assert rows["c10-covering-counts"] == (
        "50/25/5 stable under tol halving", "verified", "pass", "")
