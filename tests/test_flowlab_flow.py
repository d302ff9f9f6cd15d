import numpy as np
import pytest

from quintfib import flowlab as fl
from quintfib.flowlab import integrate


PSI = 10.0


def _cfg(tol=1e-10):
    return fl.FlowConfig(psi=PSI, tol=tol)


def test_flow_zero_time_is_identity():
    p = fl.AffinePoint(5, (1.0, 0.9, 1.1, 0.0))
    q, diag = fl.flow(p, 0.0, _cfg())
    assert q == p
    assert diag.reason == "reached_target"
    assert (diag.n_steps, diag.n_evals, diag.n_rejected) == (0, 0, 0)
    x = np.array([p.array(), p.array() * 0.5])
    ends, diag = fl.flow_batch(x, 0.0, _cfg())
    assert np.array_equal(ends, x) and ends is not x
    assert diag.reason.tolist() == ["reached_target"] * 2
    assert not (diag.n_steps.any() or diag.n_evals.any() or diag.n_rejected.any())


def test_flow_conserves_im_s_and_f_rate():
    rng = np.random.default_rng(21)
    cfg = _cfg()
    for _ in range(10):
        p0 = fl.random_x_infinity_point(rng)
        end, diag = fl.flow(p0, cfg.flow_target_time, cfg)
        assert diag.reason == "reached_target"
        assert diag.im_s_drift < 1e-8
        assert diag.f_drift < 1e-8


def test_flow_lands_on_member():
    rng = np.random.default_rng(22)
    cfg = _cfg()
    for _ in range(5):
        p0 = fl.random_x_infinity_point(rng)
        end, _ = fl.flow(p0, cfg.flow_target_time, cfg)
        assert fl.distance_to_quintic(end, PSI) < 1e-6
        assert abs(fl.eval_s(end) - 1.0 / (5 * PSI)) < 1e-8


def test_flow_drift_scales_with_tolerance():
    """Tightening the integrator tolerance by 16 shrinks the f-drift by at
    least an order-4-consistent factor (embedded 4/5 pair)."""
    p0 = fl.random_x_infinity_point(np.random.default_rng(23))
    drifts = []
    for tol in (1e-6, 1e-10):
        _, diag = fl.flow(p0, 1.0 / (5 * PSI), _cfg(tol))
        drifts.append(max(diag.f_drift, 1e-16))
    assert drifts[1] < drifts[0] * 1e-2


def test_flow_guard_near_singular_surface():
    # start close to the singular curve inside the x3 = x4 = 0 slice
    x1 = 0.95
    x2 = complex(-1.0 - x1 ** 5) ** 0.2
    p = fl.AffinePoint(5, (x1, x2 * 1.001, 1e-4, 1e-4))
    try:
        _, diag = fl.flow(p, 1.0 / (5 * PSI), _cfg())
        assert diag.reason in ("sigma_guard_hit", "reached_target")
    except fl.SigmaGuardError:
        pass


def test_newton_projection_oracle_is_idempotent():
    rng = np.random.default_rng(24)
    p0 = fl.random_x_infinity_point(rng)
    q, moved_once = fl.newton_project_to_quintic(
        fl.AffinePoint(p0.chart, tuple(np.array(p0.coords) * 0.97)), PSI)
    z = np.insert(q.array(), q.chart - 1, 1.0)
    assert abs(np.sum(z ** 5) - 5.0 * PSI * np.prod(z)) < 1e-10
    _, moved_again = fl.newton_project_to_quintic(q, PSI)
    assert moved_again < 1e-12


def test_transport_fiber_defect_and_conservation():
    fiber = fl.TorusFiber(frozenset({5}), {1: 1.0, 2: 0.9, 3: 1.1, 4: 1.0})
    res = fl.transport_fiber(fiber, PSI, n_samples=96, n_probes=8, seed=1)
    assert len(res.points) == 96
    assert not res.flagged
    assert res.im_s_max < 1e-8
    assert res.lagrangian_defect < 1e-4
    assert res.quintic_distance_max < 1e-6


def test_transport_fiber_512_samples_defect():
    fiber = fl.TorusFiber(frozenset({5}), {i: 1.0 for i in range(1, 5)})
    res = fl.transport_fiber(fiber, PSI, n_samples=512, n_probes=6, seed=2)
    assert len(res.points) == 512
    assert res.lagrangian_defect < 1e-4
    assert res.im_s_max < 1e-8


def test_transport_defect_stable_under_sample_doubling():
    fiber = fl.TorusFiber(frozenset({5}), {i: 1.0 for i in range(1, 5)})
    d1 = fl.transport_fiber(fiber, PSI, n_samples=32, n_probes=8, seed=3)
    d2 = fl.transport_fiber(fiber, PSI, n_samples=64, n_probes=8, seed=3)
    assert d1.lagrangian_defect < 1e-4 and d2.lagrangian_defect < 1e-4
    # same order of magnitude: within a factor 10 of each other
    ratio = d1.lagrangian_defect / d2.lagrangian_defect
    assert 0.1 < ratio < 10.0


def test_transport_defect_shrinks_with_fd_step(monkeypatch):
    """The probe's finite-difference step dominates the measured defect;
    refining it shows the underlying transported torus is Lagrangian to
    integrator accuracy (empirical first-order decrease or better)."""
    fiber = fl.TorusFiber(frozenset({5}), {i: 1.0 for i in range(1, 5)})
    monkeypatch.setattr(integrate, "FD_ANGLE", 4e-3)
    coarse = fl.transport_fiber(fiber, PSI, n_samples=8, n_probes=4, seed=4)
    monkeypatch.setattr(integrate, "FD_ANGLE", 1e-3)
    fine = fl.transport_fiber(fiber, PSI, n_samples=8, n_probes=4, seed=4)
    assert fine.lagrangian_defect < coarse.lagrangian_defect


def test_transport_reports_abs_im_s_at_each_point():
    fiber = fl.TorusFiber(frozenset({5}), {i: 1.0 for i in range(1, 5)})
    res = fl.transport_fiber(fiber, PSI, n_samples=16, n_probes=2, seed=5)
    assert res.chart == 4 and res.points.shape == (16, 4)
    assert res.abs_im_s.tolist() == [abs(fl.eval_s(fl.AffinePoint(res.chart, tuple(x))).imag)
                                     for x in res.points]
    assert max(res.abs_im_s) <= res.im_s_max


def test_transport_defect_matches_a_per_probe_reference():
    """The batched probe pairing against the one-point formula: each probe's
    tangents from one-row flows, the flow direction from grad_V, and the
    Fubini-Study Kahler form through np.vdot."""
    fiber = fl.TorusFiber(frozenset({5}), {1: 1.0, 2: 0.9, 3: 1.1, 4: 1.0})
    res = fl.transport_fiber(fiber, PSI, n_samples=32, n_probes=5, seed=6)
    cfg = fl.FlowConfig(psi=PSI, metric="fubini-study")
    angles = np.random.default_rng(6).uniform(0.0, 2.0 * np.pi, (5, 3))

    def end(a):
        x = fiber.rows(np.array([a]))[0]
        return fl.flow(fl.AffinePoint(fiber.chart, tuple(x)), cfg.flow_target_time, cfg)[0]

    want = 0.0
    for a in angles:
        base = end(a)
        tangents = [(end(a + integrate.FD_ANGLE * np.eye(3)[k]).array() - base.array())
                    / integrate.FD_ANGLE for k in range(3)]
        tangents.append(fl.grad_V(base, cfg))
        x = base.array()
        h = 1.0 + np.sum(np.abs(x) ** 2)
        for i in range(4):
            for j in range(i + 1, 4):
                u, v = tangents[i], tangents[j]
                omega = np.vdot(u, (h * v - x * np.vdot(x, v)) / h ** 2).imag
                want = max(want, abs(omega) / (np.linalg.norm(u) * np.linalg.norm(v)))
    # a pairing cancels to about 1e-6 of |u| |v|, so two summation orders agree
    # to the rounding of the normalized pairing (about 1e-13 of the defect),
    # not to the defect's last digits
    assert 1e-7 < want < 1e-4
    assert abs(res.lagrangian_defect - want) <= 1e-11 * want


@pytest.mark.parametrize("n_probes", [0, -1])
def test_transport_refuses_fewer_than_one_probe(n_probes):
    # with no probe flowed the Lagrangian defect would read 0 untested
    fiber = fl.TorusFiber(frozenset({5}), {i: 1.0 for i in range(1, 5)})
    with pytest.raises(ValueError, match="^n_probes must be at least 1"):
        fl.transport_fiber(fiber, PSI, n_samples=16, seed=0, n_probes=n_probes)


def test_transport_refuses_no_samples():
    # with no sample flowed the defect would read 0.0 untested
    fiber = fl.TorusFiber(frozenset({5}), {i: 1.0 for i in range(1, 5)})
    with pytest.raises(ValueError, match="^n_samples must be at least 1, got 0"):
        fl.transport_fiber(fiber, PSI, n_samples=0, seed=0)


def test_transport_rejects_bad_faces():
    with pytest.raises(ValueError):
        fl.TorusFiber(frozenset({1, 2, 3}), {4: 1.0, 5: 1.0})
    with pytest.raises(ValueError):
        fl.TorusFiber(frozenset({5}), {1: 1.0})


@pytest.mark.parametrize("pair", [(4, 4), (4, 6), (0, 5), (5,), (1, 2, 3)])
def test_circle_collapse_refuses_a_bad_face(pair):
    with pytest.raises(ValueError, match="two distinct indices in 1..5"):
        fl.circle_collapse_winding(pair, {1: 1.0, 2: 1.0, 3: 1.0}, psi=PSI)


def test_codimension_two_point_sweeps_a_circle(monkeypatch):
    monkeypatch.setattr(integrate, "N_PHI", 24)
    w = fl.circle_collapse_winding((4, 5), {1: 1.0, 2: 1.0, 3: 1.0}, psi=PSI)
    assert abs(abs(w) - 1.0) < 0.05


def test_flow_diagnostics_fields():
    p0 = fl.random_x_infinity_point(np.random.default_rng(25))
    _, diag = fl.flow(p0, 1.0 / (5 * PSI), _cfg())
    assert diag.t_reached == pytest.approx(1.0 / (5 * PSI))
    assert diag.n_steps >= 2
    # two evaluations for the initial step, six per attempted step
    assert diag.n_evals == 2 + 6 * (diag.n_steps - 1 + diag.n_rejected)
