import itertools

import numpy as np
import pytest

from quintfib import flowlab as fl
from quintfib.flowlab import points
from quintfib.flowlab.gradient import _omega_rows
from quintfib.flowlab.points import _chart_rows, _eval_s_rows, _quintic, _quintic_gradient


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("part", ["real", "imag"])
def test_affine_point_refuses_non_finite_coordinates(bad, part):
    x = complex(bad, 0.0) if part == "real" else complex(0.0, bad)
    with pytest.raises(ValueError, match="coordinates must be finite"):
        fl.AffinePoint(5, (1.0, x, 0.5, 0.0))


@pytest.mark.parametrize("kwargs, name", [
    ({"tol": float("nan")}, "tol"), ({"tol": float("inf")}, "tol"),
    ({"tol": 0.0}, "tol"), ({"psi": float("nan")}, "psi"),
    ({"psi": float("inf")}, "psi"), ({"psi": 0.0}, "psi"),
])
def test_flow_config_refuses_bad_tol_and_psi(kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must"):
        fl.FlowConfig(**kwargs)


@pytest.mark.parametrize("rows, t_target, name", [
    (np.ones((2, 3), dtype=complex), 0.02, "x0"),
    (np.ones((2, 3), dtype=complex), 0.0, "x0"),  # a zero time flows nothing
    (np.ones(4, dtype=complex), 0.02, "x0"),
    (np.ones((2, 5), dtype=complex), 0.02, "x0"),
    (np.full((1, 4), "1"), 0.02, "x0"),
    (np.ones((2, 4), dtype=complex), float("nan"), "t_target"),
    (np.ones((2, 4), dtype=complex), float("inf"), "t_target"),
    (np.ones((2, 4), dtype=complex), -float("inf"), "t_target"),
])
def test_flow_batch_refuses_malformed_input(rows, t_target, name):
    with pytest.raises(ValueError, match=f"^{name} must"):
        fl.flow_batch(rows, t_target, fl.FlowConfig())


@pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 5), (1, 2, 4)])
def test_distances_refuse_malformed_rows(shape):
    with pytest.raises(ValueError, match="^x must"):
        fl.distances_to_quintic(np.ones(shape, dtype=complex), 10.0)


def test_real_rows_flow_as_complex_rows():
    x = np.array([[1.0, 0.9, 1.1, 0.0], [0.5, 1.2, 0.8, 0.0]])
    cfg = fl.FlowConfig()
    ends, diag = fl.flow_batch(x, cfg.flow_target_time, cfg)
    ends_c, diag_c = fl.flow_batch(x.astype(complex), cfg.flow_target_time, cfg)
    assert np.array_equal(ends, ends_c)
    assert diag.reason.tolist() == diag_c.reason.tolist() == ["reached_target"] * 2
    assert fl.distances_to_quintic(x, 10.0).shape == (2,)


def test_integer_rows_read_as_float_rows():
    # 7000^5 wraps around in int64
    x = np.array([[7000, 1, 1, 0], [1, 2, 1, 0]])
    cfg = fl.FlowConfig()
    ends, diag = fl.flow_batch(x, cfg.flow_target_time, cfg)
    ends_f, diag_f = fl.flow_batch(x.astype(float), cfg.flow_target_time, cfg)
    assert np.array_equal(ends, ends_f)
    assert np.array_equal(diag.f_drift, diag_f.f_drift)
    assert np.array_equal(fl.distances_to_quintic(x, 10.0),
                          fl.distances_to_quintic(x.astype(float), 10.0))


def test_flow_config_refuses_unknown_metric():
    with pytest.raises(ValueError, match="unknown metric"):
        fl.FlowConfig(metric="euclidean")


def test_eval_s_zero_coordinate():
    p = fl.AffinePoint(5, (1.0, 2.0, 0.5, 0.0))
    assert fl.eval_s(p) == 0.0


def test_eval_s_symmetric_point():
    p = fl.AffinePoint(5, (1.0, 1.0, 1.0, 1.0))
    assert abs(fl.eval_s(p) - 0.2) < 1e-15


def test_eval_s_on_member_is_reciprocal_level():
    psi = 10.0
    p0 = fl.random_x_infinity_point(np.random.default_rng(8))
    q, _ = fl.newton_project_to_quintic(
        fl.AffinePoint(p0.chart, tuple(np.array(p0.coords) + 0.05)), psi)
    assert abs(fl.eval_s(q) - 1.0 / (5.0 * psi)) < 1e-10


def test_eval_s_chart_independence():
    rng = np.random.default_rng(2)
    z = rng.normal(size=(20, 5)) + 1j * rng.normal(size=(20, 5))
    s1 = _eval_s_rows(_chart_rows(z, 1))
    for chart in (2, 3, 4, 5):
        s2 = _eval_s_rows(_chart_rows(z, chart))
        assert (np.abs(s1 - s2) <= 1e-12 * np.maximum(1.0, np.abs(s1))).all()


def test_eval_s_pole_reported():
    # a base-locus point: one coordinate a fifth root of -1, the rest zero
    x = (-1.0 + 0j) ** 0.2
    p = fl.AffinePoint(5, (x, 0.0, 0.0, 0.0))
    with pytest.raises(fl.PoleError, match="pole"):
        fl.eval_s(p)


def test_grad_V_closed_form_on_divisor_slice():
    p = fl.AffinePoint(5, (1.0, 1.0, 1.0, 0.0))
    v = fl.grad_V(p, fl.FlowConfig())
    assert np.allclose(v, [0, 0, 0, 4.0], atol=1e-12)
    rng = np.random.default_rng(7)
    for _ in range(10):
        coords = tuple(rng.uniform(0.7, 1.3) * np.exp(1j * rng.uniform(0, 2 * np.pi))
                       for _ in range(3)) + (0.0,)
        p = fl.AffinePoint(5, coords)
        v = fl.grad_V(p, fl.FlowConfig())
        assert np.max(np.abs(v - fl.closed_form_V_D4(p.array()[None])[0])) < 1e-10
    with pytest.raises(ValueError, match="x4 = 0 slice"):
        fl.closed_form_V_D4(np.ones((1, 4), dtype=complex))


def test_gradient_against_finite_differences():
    rng = np.random.default_rng(1)
    for _ in range(10):
        coords = tuple(rng.uniform(0.7, 1.3) * np.exp(1j * rng.uniform(0, 2 * np.pi))
                       for _ in range(4))
        p = fl.AffinePoint(5, coords)
        g = fl.s_gradient(p).conj()
        g_fd = fl.finite_difference_gradient(p.array()[None])[0]
        assert np.max(np.abs(g - g_fd)) / np.max(np.abs(g)) < 1e-6


def _metric(x, metric):
    """H of the metric at a row x as a dense matrix: the oracle for the closed
    form the Kahler form applies."""
    if metric == "chart-flat":
        return np.eye(4, dtype=complex)
    a = 1.0 + float(np.sum(np.abs(x) ** 2))
    return (a * np.eye(4, dtype=complex) - np.outer(x, x.conj())) / a ** 2


def test_omega_value_matches_dense_metric():
    rng = np.random.default_rng(31)

    def vecs():
        return rng.normal(size=(200, 4)) + 1j * rng.normal(size=(200, 4))

    for metric in ("chart-flat", "fubini-study"):
        x = rng.uniform(0.2, 2.0, (200, 1)) * vecs()
        u, v = vecs(), vecs()
        got = _omega_rows(x, u, v, metric)
        want = np.array([np.imag(np.conj(u[k]) @ (_metric(x[k], metric) @ v[k]))
                         for k in range(200)])
        assert (np.abs(got - want) <= 1e-12 * np.abs(want)).all()


def test_gradient_guard_near_singular_surface():
    # on the curve x1^5 + x2^5 + 1 = 0 with two more zero coordinates the
    # field is genuinely singular
    x1 = 0.9
    x2 = complex(-1.0 - x1 ** 5) ** 0.2
    p = fl.AffinePoint(5, (x1, x2, 0.0, 0.0))
    with pytest.raises(fl.SigmaGuardError):
        fl.grad_V(p, fl.FlowConfig())


def test_fubini_study_gradient_norm_positive():
    rng = np.random.default_rng(4)
    cfg = fl.FlowConfig(metric="fubini-study")
    for _ in range(10):
        p = fl.random_x_infinity_point(rng)
        v = fl.grad_V(p, cfg)
        assert np.isfinite(v).all()


def test_df_dt_is_one_along_V():
    """Directional derivative of Re(s) along V is 1 for either metric."""
    rng = np.random.default_rng(12)
    h = 1e-7
    for metric in ("chart-flat", "fubini-study"):
        cfg = fl.FlowConfig(metric=metric)
        for _ in range(5):
            p = fl.random_x_infinity_point(rng)
            v = fl.grad_V(p, cfg)
            x = np.array(p.coords)
            fp = np.real(fl.eval_s(fl.AffinePoint(p.chart, tuple(x + h * v))))
            fm = np.real(fl.eval_s(fl.AffinePoint(p.chart, tuple(x - h * v))))
            assert abs((fp - fm) / (2 * h) - 1.0) < 1e-5


def test_im_s_stationary_along_V():
    rng = np.random.default_rng(13)
    h = 1e-7
    for metric in ("chart-flat", "fubini-study"):
        cfg = fl.FlowConfig(metric=metric)
        p = fl.random_x_infinity_point(rng)
        v = fl.grad_V(p, cfg)
        x = np.array(p.coords)
        hp = np.imag(fl.eval_s(fl.AffinePoint(p.chart, tuple(x + h * v))))
        hm = np.imag(fl.eval_s(fl.AffinePoint(p.chart, tuple(x - h * v))))
        assert abs((hp - hm) / (2 * h)) < 1e-5


def _sequential_x_infinity_rows(rng, n):
    """The start sampler one candidate at a time: draw, chart and test each
    candidate as a one-row array, and draw again after a rejection."""
    rows, charts = np.empty((n, 4), dtype=complex), np.empty(n, dtype=int)
    for k in range(n):
        for _ in range(points.MAX_TRIES):
            zero_idx = int(rng.integers(1, 6))
            z = np.zeros((1, 5), dtype=complex)
            for i in range(1, 6):
                if i == zero_idx:
                    continue
                r = rng.uniform(0.6, 1.4)
                z[0, i - 1] = r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            chart = int(np.argmax(np.abs(z))) + 1
            x = _chart_rows(z, chart)
            ds, pole = points._s_gradient_rows(x)
            if not pole[0] and points._sum4(ds * ds.conj()).real[0] > points.GRAD_FLOOR:
                rows[k], charts[k] = x[0], chart
                break
        else:
            raise RuntimeError("failed to sample a smooth large-complex-limit point")
    return rows, charts


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [1, 7, 100])
def test_x_infinity_rounds_are_the_sequential_sampler(seed, n):
    # same rows and charts, and the generator left at the same draw
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    rows, charts = points._x_infinity_rows(ours, n)
    want_rows, want_charts = _sequential_x_infinity_rows(theirs, n)
    assert rows.tobytes() == want_rows.tobytes()
    assert charts.tolist() == want_charts.tolist()
    assert ours.random() == theirs.random()


class _CountingGenerator:
    """A generator that counts the candidates drawn: one `integers` call
    (the zero index) each."""

    def __init__(self, seed):
        self.rng, self.candidates = np.random.default_rng(seed), 0

    def integers(self, *args):
        self.candidates += 1
        return self.rng.integers(*args)

    def uniform(self, *args):
        return self.rng.uniform(*args)


@pytest.mark.parametrize("n", [1, 7, 100])
def test_x_infinity_sampler_gives_up_after_max_tries(n, monkeypatch):
    monkeypatch.setattr(points, "GRAD_FLOOR", np.inf)
    rng = _CountingGenerator(0)
    with pytest.raises(RuntimeError, match="failed to sample"):
        points._x_infinity_rows(rng, n)
    assert rng.candidates == points.MAX_TRIES


@pytest.mark.parametrize("floor", [2.0, 6.0])
@pytest.mark.parametrize("seed", range(4))
def test_x_infinity_rounds_follow_rare_acceptance(floor, seed, monkeypatch):
    # about 3% and 1% of candidates pass these floors, so runs of
    # rejections cross rounds, and some reach MAX_TRIES
    monkeypatch.setattr(points, "GRAD_FLOOR", floor)
    outcomes = []
    for sampler in (points._x_infinity_rows, _sequential_x_infinity_rows):
        rng = _CountingGenerator(seed)
        try:
            rows, charts = sampler(rng, 20)
            outcome = (rows.tobytes(), charts.tolist())
        except RuntimeError:
            outcome = "raised"
        outcomes.append((outcome, rng.candidates))
    assert outcomes[0] == outcomes[1]


def test_chart_change_round_trip():
    x = np.array([[0.3 + 0.1j, 1.4, -0.5j, 0.8]])  # chart 2
    y = _chart_rows(np.insert(x, 1, 1.0, axis=1), 4)
    assert np.allclose(_chart_rows(np.insert(y, 3, 1.0, axis=1), 2), x)


def test_conifold_nodes():
    """At psi = 1, in chart 5, the rows (zeta^b1, ..., zeta^b4) with
    b1 + ... + b4 = 0 (mod 5) are the 125 singular points of the quintic:
    s and its gradient vanish there, and each is an ordinary double point,
    with a 4x4 Hessian of |det| = 5^7.  The Hessian is the closed form
    (20 x_i^3 on the diagonal, -5 psi times the other two coordinates off
    it), held to central differences of the library's gradient."""
    b = np.array([b for b in itertools.product(range(5), repeat=4) if sum(b) % 5 == 0])
    x = np.exp(2j * np.pi / 5) ** b
    assert len(x) == 125
    assert np.abs(_quintic(x, 1.0)).max() < 1e-12
    assert np.abs(_quintic_gradient(x, 1.0)).max() < 1e-12
    h, eye = 1e-5, np.eye(4)
    for row in x:
        hess = np.array([[20 * row[i] ** 3 if i == j else
                          -5 * np.prod(np.delete(row, [i, j])) for j in range(4)]
                         for i in range(4)])
        diff = np.array([_quintic_gradient(row + h * e, 1.0) - _quintic_gradient(row - h * e, 1.0)
                         for e in eye]).T / (2 * h)
        assert np.abs(diff - hess).max() < 1e-6
        assert abs(abs(np.linalg.det(hess)) - 5 ** 7) < 1e-9 * 5 ** 7
