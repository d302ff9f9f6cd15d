"""The batched Dormand-Prince 5(4) integrator and Newton projection: scipy's
RK45 as an independent oracle, the guard paths, the work counters, and batch
independence."""

import hashlib
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from quintfib import flowlab as fl
from quintfib.flowlab import gradient, integrate

# a point near the conifold point (1, 1, 1, 1) of the psi = 1 member, whose
# flow to f = 0.2 runs into the singular surface
GUARD_P0 = fl.AffinePoint(5, (0.97 + 0.02j, 1.0, 1.01, 0.99 - 0.01j))
GUARD_T = 0.2 - fl.eval_s(GUARD_P0).real
GUARD_CFG = fl.FlowConfig(psi=1.0)
DEFAULT_GUARD = gradient.SIGMA_GUARD


def _metric_inverse(p, metric):
    """H^{-1} of the metric as a dense matrix: the oracle for the closed-form
    inverse the field kernel applies."""
    if metric == "chart-flat":
        return np.eye(4, dtype=complex)
    x = p.array()
    a = 1.0 + float(np.sum(np.abs(x) ** 2))
    return a * (np.eye(4, dtype=complex) + np.outer(x, x.conj()))


def _scipy_flow(p0, t_target, cfg, n_checkpoints=33):
    """`flow` as solve_ivp(RK45) with the one-point field, the reference."""
    from scipy.integrate import solve_ivp

    def point(y):
        return fl.AffinePoint(p0.chart, tuple(y[:4] + 1j * y[4:]))

    def rhs(t, y):
        v = fl.grad_V(point(y), cfg)
        return np.concatenate([v.real, v.imag])

    def guard_event(t, y):
        ds = fl.s_gradient(point(y))
        v = _metric_inverse(point(y), cfg.metric) @ ds.conj()
        return float(np.real(np.sum(ds * v))) - 2.0 * gradient.SIGMA_GUARD

    guard_event.terminal = True
    guard_event.direction = -1
    s0 = fl.eval_s(p0)
    x0 = p0.array()
    try:
        sol = solve_ivp(rhs, (0.0, t_target), np.concatenate([x0.real, x0.imag]),
                        method="RK45", rtol=cfg.tol, atol=cfg.tol,
                        events=guard_event, dense_output=True)
    except fl.SigmaGuardError as err:
        raise fl.SigmaGuardError(err.norm_sq, p0) from err
    reason = {0: "reached_target", 1: "sigma_guard_hit"}.get(sol.status, "step_underflow")
    t_end = float(sol.t[-1])
    # two evaluations start the solver, then six per attempted step
    assert (sol.nfev - 2) % 6 == 0
    rejected = (sol.nfev - 2) // 6 - (sol.t.size - 1)
    im_drift = f_drift = 0.0
    for t in np.linspace(0.0, t_end, n_checkpoints):
        s = fl.eval_s(point(sol.sol(t)))
        im_drift = max(im_drift, abs(s.imag - s0.imag))
        f_drift = max(f_drift, abs(s.real - s0.real - t))
    return point(sol.y[:, -1]), fl.FlowDiagnostics(im_drift, f_drift, reason, t_end,
                                                   int(sol.t.size), int(sol.nfev),
                                                   int(rejected), 0.0)


def _oracle_cases():
    """(start, time, config, guard) of each oracle flow; the last three run
    into the singular surface under three guards."""
    cases = []
    c07 = fl.FlowConfig(psi=10.0, tol=1e-10)
    rng = np.random.default_rng(0)  # verify-all's c07 points at seed 0
    cases += [(fl.random_x_infinity_point(rng), c07.flow_target_time, c07)
              for _ in range(100)]
    fs = fl.FlowConfig(psi=10.0, metric="fubini-study")
    fiber = fl.TorusFiber(frozenset({5}), {i: 1.0 for i in range(1, 5)})
    cases += [(p, fs.flow_target_time, fs) for p in _fiber_points(fiber, 64, 0)]
    rng = np.random.default_rng([0, 1])
    for psi in (2.0, 5.0, 50.0):
        cfg = fl.FlowConfig(psi=psi)
        cases += [(fl.random_x_infinity_point(rng), cfg.flow_target_time, cfg)
                  for _ in range(8)]
    # steps get rejected here, which exercises the step control after a rejection
    loose = fl.FlowConfig(psi=2.0, tol=1e-8)
    cases += [(fl.random_x_infinity_point(rng), loose.flow_target_time, loose)
              for _ in range(8)]
    cases += [(fl.random_x_infinity_point(rng), -0.02, c07) for _ in range(4)]
    cases = [case + (DEFAULT_GUARD,) for case in cases]
    cases += [(GUARD_P0, GUARD_T, GUARD_CFG, s) for s in (1e-8, 6.6e-4, 1.4e-3)]
    return cases


def _fiber_points(fiber, n, seed):
    """transport_fiber's first n samples at seed, as points."""
    angles = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, (n, fiber.angle_arity))
    return [fl.AffinePoint(fiber.chart, tuple(x)) for x in fiber.rows(angles)]


def _rows(points):
    return np.array([p.array() for p in points]).reshape(-1, 4)


def _assert_row(one, ends, diag, k):
    """A one-row `flow` result, or its SigmaGuardError, is row k of a
    `flow_batch` result, bit for bit."""
    if isinstance(one, fl.SigmaGuardError):
        assert diag.reason[k] == "guarded" and diag.guard_sq[k] == one.norm_sq
        return
    end, d = one
    assert np.array_equal(end.array(), ends[k])
    for field in fields(d):
        assert getattr(d, field.name) == getattr(diag, field.name)[k], field.name


def _outcome(flow, p0, t, cfg):
    try:
        return flow(p0, t, cfg)
    except fl.SigmaGuardError as err:
        return err


def test_flow_matches_scipy_rk45(monkeypatch):
    pytest.importorskip("scipy")
    cases = _oracle_cases()
    guarded = rejected = 0
    for p0, t, cfg, sigma in cases:
        monkeypatch.setattr(gradient, "SIGMA_GUARD", sigma)
        ours, ref = _outcome(fl.flow, p0, t, cfg), _outcome(_scipy_flow, p0, t, cfg)
        if isinstance(ref, fl.SigmaGuardError):
            guarded += 1
            assert isinstance(ours, fl.SigmaGuardError), (p0, cfg)
            assert ours.norm_sq == pytest.approx(ref.norm_sq, rel=1e-12)
            assert ours.where == ref.where == p0
            continue
        (end, diag), (ref_end, ref_diag) = ours, ref
        assert end.chart == ref_end.chart
        assert np.max(np.abs(end.array() - ref_end.array())) < 1e-12, (p0, cfg)
        assert (diag.reason, diag.n_steps, diag.n_evals, diag.n_rejected) == (
            ref_diag.reason, ref_diag.n_steps, ref_diag.n_evals, ref_diag.n_rejected), (p0, cfg)
        rejected += diag.n_rejected
        assert diag.t_reached == pytest.approx(ref_diag.t_reached, rel=1e-12, abs=1e-15)
        assert abs(diag.f_drift - ref_diag.f_drift) < 1e-13
        assert abs(diag.im_s_drift - ref_diag.im_s_drift) < 1e-13
    assert guarded == 1
    assert rejected > 0  # the loose cases exercise the rejection count


def _blowup_field(x, cfg):
    """A field whose flow takes u1 to 0.1 in finite time: du1/dt =
    1 / (0.1 - u1)^2, with (0.1 - u1)^2 as the squared gradient norm that
    the guard reads."""
    norm_sq = (0.1 - x[:, 0].real) ** 2
    guarded = norm_sq <= gradient.SIGMA_GUARD
    v = np.zeros_like(x)
    v[:, 0] = np.where(guarded, 0.0, 1.0 / np.where(guarded, 1.0, norm_sq))
    return v, norm_sq, guarded


def test_each_stage_enters_exactly_the_sums_that_weigh_it():
    # a zero weight left in a slice would add a signed zero to the sum
    want = [a + (0,) * (7 - len(a)) for a in integrate.A[1:]]
    want += [integrate.B + (0,), integrate.E]
    assert integrate.SUMS.tolist() == [list(row) for row in want]
    for j, (rows, w) in enumerate(integrate.STAGE_SUMS):
        nonzero = np.flatnonzero(integrate.SUMS[:, j])
        assert list(range(7))[rows] == nonzero.tolist()
        assert w.ravel().tolist() == integrate.SUMS[nonzero, j].tolist()


def test_a_zero_error_grows_the_step_by_the_largest_factor(monkeypatch):
    # under a vanishing field every error estimate is 0, and each step is
    # MAX_FACTOR times the one before, as in scipy's RK45
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp

    def still(x, cfg):
        return np.zeros_like(x), np.ones(len(x)), np.zeros(len(x), dtype=bool)

    monkeypatch.setattr(integrate, "_field_rows", still)
    x0 = np.array([[0.3, 1.0, 1j, 0.5]])
    ends, diag = fl.flow_batch(x0, 1.0, fl.FlowConfig())
    ref = solve_ivp(lambda t, y: np.zeros_like(y), (0.0, 1.0),
                    np.concatenate([x0[0].real, x0[0].imag]), method="RK45",
                    rtol=1e-10, atol=1e-10)
    assert (diag.reason[0], diag.t_reached[0]) == ("reached_target", 1.0)
    assert (diag.n_steps[0], diag.n_evals[0], diag.n_rejected[0]) == (
        ref.t.size, ref.nfev, 0) == (8, 44, 0)
    assert np.allclose(np.diff(ref.t)[1:-1] / np.diff(ref.t)[:-2], integrate.MAX_FACTOR)
    assert np.array_equal(ends, x0)


def _golden_batches():
    """(rows, time, config, guard, field) of each batch that the golden
    digests pin down: the oracle cases, one batch per (time, config, guard)
    in case order; the guard start ahead of 31 c07 starts, which crosses
    the guard level while the others run on; and rows of the blow-up field,
    which by start and guard run out of steps, cross the guard level or
    enter the guard zone mid-flow, beside rows that reach the target."""
    cases = _oracle_cases()
    groups = {}
    for p0, t, cfg, sigma in cases:
        groups.setdefault((t, cfg, sigma), []).append(p0)
    batches = [(_rows(points), t, cfg, sigma, None)
               for (t, cfg, sigma), points in groups.items()]
    batches.append((_rows([GUARD_P0] + [case[0] for case in cases[:31]]),
                    GUARD_T, GUARD_CFG, 6.6e-4, None))
    starts = np.array([[u, 1.0, 1j, 0.5]
                       for u in (0.0, 0.05, -0.5, -1.5, 0.099, -2.0, 0.0999)])
    batches += [(starts, 1.0, fl.FlowConfig(), sigma, _blowup_field)
                 for sigma in (1e-300, 1e-8, 1e-4)]
    return batches


def _digests(monkeypatch):
    """sha256 of the endpoint rows and of each diagnostics array of
    `flow_batch` over the golden batches, and of the endpoint rows of
    circle_collapse_winding's batch."""
    parts = {name: [] for name in ["ends"] + [f.name for f in fields(fl.FlowDiagnostics)]}
    for x0, t, cfg, sigma, field in _golden_batches():
        with monkeypatch.context() as m:
            m.setattr(gradient, "SIGMA_GUARD", sigma)
            if field is not None:
                m.setattr(integrate, "_field_rows", field)
            ends, diag = fl.flow_batch(x0, t, cfg)
        parts["ends"].append(ends.tobytes())
        for f in fields(diag):
            a = getattr(diag, f.name)
            parts[f.name].append("\n".join(a.tolist()).encode() if f.name == "reason"
                                 else a.astype(float).tobytes())
    calls = []
    batch = fl.flow_batch

    def spy(*args):
        calls.append(batch(*args))
        return calls[-1]

    with monkeypatch.context() as m:
        m.setattr(integrate, "flow_batch", spy)
        integrate.circle_collapse_winding((4, 5), {1: 1.0, 2: 1.0, 3: 1.0}, psi=10.0)
    parts["collapse_ends"] = [ends.tobytes() for ends, _ in calls]
    return {k: hashlib.sha256(b"".join(v)).hexdigest() for k, v in parts.items()}


# `_digests` under numpy 2.4 on x86-64; a move in any last bit of a
# trajectory, a drift, a counter or a reason changes one of them
GOLDEN = {
    "ends": "1dc251d1100cde4f0ae1c9e278b00c236b8f6f74a1e14bf18b03e5e439025b87",
    "im_s_drift": "da9a76195ecc52c9ae84fbba1f1a4df754071ceb46b6b70d38c1a5c9780636a2",
    "f_drift": "6829fd3d06349f11797fe3f9ef32b7d86d8484dc446e1f7cd1cd867cd71c9c2d",
    "reason": "08781e59715756e4b97b94e219e823fafbeaa0193ca282e1e07abe79dc2f2c18",
    "t_reached": "86266a1d02d6612627f3c2bd4bbd433816cb3404c251c0e73a6a5b5df592e912",
    "n_steps": "88f48c59d69ea8384adb6981abdee718174031b9a234bf49a62f550c5501b4d1",
    "n_evals": "3e295158bf04d150e9d7eef512f185418920fc33c8a84ecda8baf199ed7fdffe",
    "n_rejected": "3f6c30b83db8ec453c6038fec84d730bef1198c0fea88f60ca78ddc5f5ea6419",
    "guard_sq": "5ceaf557663302329aa97b0652b57804973967599f890e39c1f366966918e5b9",
    "collapse_ends": "6ebedfdc587effd2f533fde0604fa9095735ccef50872591bfca25883475ab8d",
}


def test_flows_match_their_golden_digests(monkeypatch):
    assert _digests(monkeypatch) == GOLDEN


def test_one_row_drift_blocks_leave_the_golden_digests_unchanged(monkeypatch):
    # every row its own block, among them the guard-hit, underflow and
    # blow-up rows with their own end times
    monkeypatch.setattr(integrate, "CHECKPOINT_BLOCK", integrate.N_CHECKPOINTS)
    assert _digests(monkeypatch) == GOLDEN


def _drift_blocks(monkeypatch):
    """The sizes of the rows `_eval_s_rows` reads inside `flow_batch`: the
    start rows, then one block of checkpoints per call."""
    calls = []
    eval_s_rows = integrate._eval_s_rows

    def spy(x):
        calls.append(len(x))
        return eval_s_rows(x)

    monkeypatch.setattr(integrate, "_eval_s_rows", spy)
    return calls


def _transport_bits(res):
    return [np.asarray(getattr(res, f.name)).tobytes() for f in fields(res)]


def test_transport_bits_do_not_depend_on_the_drift_blocks(monkeypatch):
    fiber = fl.TorusFiber(frozenset({5}), {i: 1.0 for i in range(1, 5)})
    n_rows = 512 + 12 * fiber.angle_arity  # the samples and the shifted probes
    calls = _drift_blocks(monkeypatch)
    blocks = fl.transport_fiber(fiber, 10.0, n_samples=512, seed=12)
    per = integrate.CHECKPOINT_BLOCK // integrate.N_CHECKPOINTS
    assert calls[:2] == [n_rows, per * integrate.N_CHECKPOINTS] and len(calls) == 7
    calls.clear()
    monkeypatch.setattr(integrate, "CHECKPOINT_BLOCK", n_rows * integrate.N_CHECKPOINTS)
    whole = fl.transport_fiber(fiber, 10.0, n_samples=512, seed=12)
    assert calls[:2] == [n_rows, n_rows * integrate.N_CHECKPOINTS] and len(calls) == 3
    assert _transport_bits(blocks) == _transport_bits(whole)


def test_c07_reads_its_drifts_in_one_block(monkeypatch):
    # a smaller block would add array calls to every verify-all run
    from quintfib import verify
    calls = _drift_blocks(monkeypatch)
    verify.check_flow_conservation(verify.VerifyConfig(psi=10.0, samples=100, seed=0))
    assert calls == [100, 100 * integrate.N_CHECKPOINTS]


def test_checkpoint_drift_memory_does_not_grow_with_the_batch():
    fiber = fl.TorusFiber(frozenset({5}), {i: 1.0 for i in range(1, 5)})
    cfg = fl.FlowConfig(psi=10.0, metric="fubini-study")
    x = fiber.rows(np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, (2048, 3)))
    s0 = integrate._eval_s_rows(x)
    _, t_end, _, _, _, steps = integrate._integrate(
        np.array(x, dtype=complex, order="C").view(float), cfg.flow_target_time, cfg)

    def peak(call):
        """The traced peak of call() above what was held when it began."""
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()

    im, f = np.zeros(len(x)), np.zeros(len(x))
    small, large = (peak(lambda: integrate._checkpoint_drifts(
        s0, t_end, np.arange(n), steps, 1.0, im, f)) for n in (512, 2048))
    assert large <= 1.1 * small
    # read all at once, its 18,084 checkpoints take about 5.5 MB
    assert peak(lambda: fl.transport_fiber(fiber, 10.0, n_samples=512, seed=12)) < 3 * 2 ** 20


def test_bisection_finds_brentqs_roots():
    optimize = pytest.importorskip("scipy.optimize")
    eps4 = 4 * np.finfo(float).eps
    for f, a, b in ((lambda x: x ** 3 - 2.0, 0.0, 2.0),
                    (lambda x: np.cos(x) - x, 0.0, 1.0),
                    (lambda x: np.exp(-x) - 0.3, 0.0, 5.0),
                    (lambda x: 1e-4 - x * x, 0.0, 7.2e-5)):
        try:
            want = optimize.brentq(f, a, b, xtol=eps4, rtol=eps4)
        except ValueError:
            with pytest.raises(ValueError):
                integrate._bisect(f, a, b)
            continue
        assert abs(integrate._bisect(f, a, b) - want) <= eps4 * (1 + abs(want))


def test_guard_event_stops_the_flow(monkeypatch):
    monkeypatch.setattr(gradient, "SIGMA_GUARD", 6.6e-4)
    end, diag = fl.flow(GUARD_P0, GUARD_T, GUARD_CFG)
    assert diag.reason == "sigma_guard_hit"
    assert diag.n_steps == 2
    assert diag.t_reached == pytest.approx(7.1783295e-05, rel=1e-7)
    assert diag.f_drift < 1e-9 and diag.im_s_drift < 1e-9
    # the event sits where |grad f|^2 = 2 sigma, on the step's dense output
    norm_sq = fl.gradient._raw_gradient_rows(end.array()[None], "chart-flat")[1][0]
    assert norm_sq == pytest.approx(2 * 6.6e-4, rel=1e-6)
    # without the guard the same flow reaches its target
    monkeypatch.setattr(gradient, "SIGMA_GUARD", 1e-8)
    _, free = fl.flow(GUARD_P0, GUARD_T, GUARD_CFG)
    assert (free.reason, free.n_steps) == ("reached_target", 3)


def test_a_guard_crossing_keeps_the_recorded_step_whole(monkeypatch):
    # a lone row records each accepted step's own arrays; the crossing then
    # writes the row's end time in place, and the record of the step it
    # ends still reads that step's end
    monkeypatch.setattr(gradient, "SIGMA_GUARD", 6.6e-4)
    y0 = GUARD_P0.array()[None].view(float)
    state, t, _, _, _, (_, t1, (t_old, _, _, _)) = integrate._integrate(
        y0, GUARD_T, GUARD_CFG)
    assert state[0] == integrate.GUARD_HIT
    assert t_old[-1] < t[0] < t1[-1]


def test_guard_zone_raises_with_the_start_point(monkeypatch):
    monkeypatch.setattr(gradient, "SIGMA_GUARD", 1.4e-3)
    with pytest.raises(fl.SigmaGuardError) as info:
        fl.flow(GUARD_P0, GUARD_T, GUARD_CFG)
    assert info.value.where == GUARD_P0
    assert info.value.norm_sq == pytest.approx(1.35633e-3, rel=1e-5)


def test_transport_flags_guarded_samples_and_keeps_the_others(monkeypatch):
    monkeypatch.setattr(gradient, "SIGMA_GUARD", 0.5)
    fiber = fl.TorusFiber(frozenset({5}), {i: 1.0 for i in range(1, 5)})
    cfg = fl.FlowConfig(psi=10.0, metric="fubini-study")
    res = fl.transport_fiber(fiber, 10.0, n_samples=16, seed=0, n_probes=4)
    alone = [_outcome(fl.flow, p, cfg.flow_target_time, cfg)
             for p in _fiber_points(fiber, 16, 0)]
    flagged = [i for i, r in enumerate(alone) if isinstance(r, fl.SigmaGuardError)
               or r[1].reason != "reached_target"]
    assert res.flagged == tuple(flagged) == (0, 8, 14)
    kept = [r for i, r in enumerate(alone) if i not in flagged]
    assert res.chart == fiber.chart
    assert np.array_equal(res.points, _rows(q for q, _ in kept))
    # the batched endpoint |Im s| against one eval_s per point
    assert res.im_s_max == max(max(d.im_s_drift, abs(fl.eval_s(q).imag)) for q, d in kept)
    assert res.f_drift_max == max(d.f_drift for _, d in kept)


def test_a_row_is_bit_identical_alone_and_in_a_batch(monkeypatch):
    rng = np.random.default_rng(7)
    monkeypatch.setattr(gradient, "SIGMA_GUARD", 6.6e-4)
    points = [GUARD_P0] + [fl.random_x_infinity_point(rng) for _ in range(511)]
    ends, diag = fl.flow_batch(_rows(points), GUARD_T, GUARD_CFG)
    assert diag.reason[0] == "sigma_guard_hit"
    for k in (0, 1, 100, 257, 511):
        _assert_row(fl.flow(points[k], GUARD_T, GUARD_CFG), ends, diag, k)

    monkeypatch.setattr(gradient, "SIGMA_GUARD", DEFAULT_GUARD)
    fs = fl.FlowConfig(psi=10.0, metric="fubini-study")
    fiber = fl.TorusFiber(frozenset({5}), {i: 1.0 for i in range(1, 5)})
    points = [fl.AffinePoint(fiber.chart, tuple(x))
              for x in fiber.rows(rng.uniform(0.0, 2.0 * np.pi, (512, 3)))]
    ends, diag = fl.flow_batch(_rows(points), fs.flow_target_time, fs)
    for k in (0, 3, 200, 511):
        _assert_row(fl.flow(points[k], fs.flow_target_time, fs), ends, diag, k)

    # chart-flat rows at the sweep's psi 2 and 50: a lone row keeps each
    # accepted step's arrays whole, while the batch merges the steps in
    # which some of its rows are rejected
    sweep = np.random.default_rng(30)
    rejected = 0
    for psi in (2.0, 50.0):
        cfg = fl.FlowConfig(psi=psi)
        points = [fl.random_x_infinity_point(sweep) for _ in range(32)]
        ends, diag = fl.flow_batch(_rows(points), cfg.flow_target_time, cfg)
        for k, p in enumerate(points):
            _assert_row(fl.flow(p, cfg.flow_target_time, cfg), ends, diag, k)
        rejected += np.count_nonzero(diag.n_rejected)
    assert rejected > 0

    monkeypatch.setattr(gradient, "SIGMA_GUARD", 1.4e-3)
    ends, diag = fl.flow_batch(_rows([GUARD_P0] * 3), GUARD_T, GUARD_CFG)
    alone = _outcome(fl.flow, GUARD_P0, GUARD_T, GUARD_CFG)
    assert alone.where == GUARD_P0
    for k in range(3):
        _assert_row(alone, ends, diag, k)


def test_backward_flow_lowers_f():
    p0 = fl.random_x_infinity_point(np.random.default_rng(3))
    end, diag = fl.flow(p0, -0.02, fl.FlowConfig())
    assert diag.reason == "reached_target" and diag.t_reached == -0.02
    assert fl.eval_s(end).real == pytest.approx(fl.eval_s(p0).real - 0.02, abs=1e-8)


def test_c07_batch_does_the_work_of_its_one_row_flows():
    cfg = fl.FlowConfig(psi=10.0, tol=1e-10)
    rng = np.random.default_rng(0)  # verify-all's c07 points at seed 0
    points = [fl.random_x_infinity_point(rng) for _ in range(100)]
    ends, diag = fl.flow_batch(_rows(points), cfg.flow_target_time, cfg)
    alone = [fl.flow(p, cfg.flow_target_time, cfg) for p in points]
    for k, one in enumerate(alone):
        _assert_row(one, ends, diag, k)
    total = int(diag.n_evals.sum())
    assert total == sum(d.n_evals for _, d in alone) > 0
    assert total == int(np.sum(2 + 6 * (diag.n_steps - 1 + diag.n_rejected)))


def _near_member_points(n, seed):
    """Points at several distances from the psi = 10 member, so the rows of
    one batch stop after different numbers of Newton steps."""
    rng = np.random.default_rng(seed)
    points = []
    for k in range(n):
        p = fl.random_x_infinity_point(rng)
        q, _ = fl.newton_project_to_quintic(p, 10.0)
        x = q.array() * (1.0 + 10.0 ** -(k % 8) * rng.standard_normal(4))
        points.append(fl.AffinePoint(q.chart, tuple(x)))
    return points


def test_newton_rows_are_bit_identical_alone_and_in_a_batch():
    points = _near_member_points(512, 11)
    rows = _rows(points)
    batch = fl.distances_to_quintic(rows, 10.0)
    alone = np.array([fl.distances_to_quintic(rows[k:k + 1], 10.0)[0]
                      for k in range(len(rows))])
    assert np.array_equal(batch, alone)
    assert len(set(batch.tolist())) == len(points)
    x, moved = integrate._newton_rows(rows, 10.0)
    assert np.array_equal(moved, batch)
    for k in (0, 1, 7, 300, 511):
        q, d = fl.newton_project_to_quintic(points[k], 10.0)
        assert q == fl.AffinePoint(points[k].chart, tuple(x[k]))
        assert d == fl.distance_to_quintic(points[k], 10.0) == batch[k]


def test_newton_projection_raises_on_a_vanishing_gradient():
    # at the origin of a chart every partial vanishes, but the value is 1
    origin = fl.AffinePoint(5, (0.0, 0.0, 0.0, 0.0))
    with pytest.raises(ArithmeticError, match="vanishing gradient"):
        fl.newton_project_to_quintic(origin, 10.0)
    with pytest.raises(ArithmeticError, match="vanishing gradient"):
        fl.distances_to_quintic(_rows(_near_member_points(4, 0) + [origin]), 10.0)
    assert fl.distances_to_quintic(_rows([]), 10.0).shape == (0,)
