"""The normalized gradient field of f = Re(s).

A real tangent vector at a chart point is represented by four complex
components (du/dt + i dv/dt per coordinate).  For a Kahler metric written
as Re(w'^H H w) with H Hermitian (H = I is the chart-flat metric, and
(a I - x x^H) / a^2 with a = 1 + |x|^2 is Fubini-Study; both are applied
in closed form), the gradient of f = Re(s) is H^{-1} conj(ds), the squared
gradient norm is Re(sum ds_i (H^{-1} conj(ds))_i), and the normalized field

    V = grad(f) / |grad(f)|^2

satisfies df/dt = 1 and conserves Im(s) along its flow for any such
metric.  V blows up on the singular surface where ds = 0; a guard halts
anything whose squared gradient norm falls to SIGMA_GUARD.
"""

from dataclasses import dataclass

import numpy as np

from .points import _eval_s_rows, _s_gradient_rows, _sum4


class SigmaGuardError(ArithmeticError):
    """Flow or gradient evaluation entered the guard zone around the
    singular surface; carries the offending squared gradient norm."""

    def __init__(self, norm_sq, where):
        super().__init__(f"|grad f|^2 = {norm_sq:.3e} below guard at {where}")
        self.norm_sq = norm_sq
        self.where = where


# the guard zone is |grad f|^2 <= SIGMA_GUARD; the field and the integrator's
# guard event both look it up here at call time
SIGMA_GUARD = 1e-8


@dataclass(frozen=True)
class FlowConfig:
    """Target, integrator tolerance (relative and absolute) and metric of a flow."""

    psi: float = 10.0
    tol: float = 1e-10
    metric: str = "chart-flat"

    def __post_init__(self):
        if self.metric not in ("chart-flat", "fubini-study"):
            raise ValueError(f"unknown metric {self.metric!r}")
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")
        if self.psi == 0:
            raise ValueError("psi must be nonzero")

    @property
    def flow_target_time(self):
        # s equals 1/(5 psi) on the smooth member, 0 on the large complex limit
        return 1.0 / (5.0 * self.psi)


def _raw_gradient_rows(x, metric):
    """H^{-1} conj(ds), the squared gradient norm |grad f|^2 and the pole
    mask on (N, 4) chart rows."""
    ds, pole = _s_gradient_rows(x)
    v = ds.conj() + 0.0  # clears the -0 conj gives a zero imaginary part (prints -0j)
    if metric == "fubini-study":
        a = 1.0 + _sum4(np.abs(x) ** 2)
        v = a[:, None] * (v + x * _sum4(x.conj() * v)[:, None])
    return v, _sum4(ds * v).real, pole


def _field_rows(x, cfg):
    """V of cfg's metric, |grad f|^2 and the guard mask on (N, 4) chart rows.

    A row is guarded when it sits at a pole of s (its norm then reads 0) or
    its squared gradient norm is at most SIGMA_GUARD; guarded rows get V = 0
    so that a batch carries on with its other rows.
    """
    v, norm_sq, pole = _raw_gradient_rows(x, cfg.metric)
    norm_sq = np.where(pole, 0.0, norm_sq)
    guarded = pole | (norm_sq <= SIGMA_GUARD)
    safe = np.where(guarded, 1.0, norm_sq)[:, None]
    return np.where(guarded[:, None], 0.0, v / safe), norm_sq, guarded


def grad_V(p, cfg):
    """The normalized gradient vector V of cfg's metric at a point, as a
    complex 4-vector.

    Raises the guard error when |grad f|^2 falls to SIGMA_GUARD or below,
    which happens near the singular surface where the field is genuinely
    singular; a pole of s itself (the surface sits inside the pole set) is
    reported the same way.
    """
    v, norm_sq, guarded = _field_rows(p.array()[None], cfg)
    if guarded[0]:
        raise SigmaGuardError(float(norm_sq[0]), p)
    return v[0]


def closed_form_V_D4(p):
    """Closed form of V on the x4 = 0 divisor slice in chart 5, flat metric.

    There the only nonvanishing partial of s is along x4 and
    V = ((x1^5 + x2^5 + x3^5 + 1) / (x1 x2 x3)) in the x4 slot.
    """
    if p.chart != 5:
        raise ValueError("closed form stated in chart 5")
    x = p.array()
    if abs(x[3]) > 1e-14:
        raise ValueError("closed form applies on the x4 = 0 slice")
    head = x[:3]
    v4 = (np.sum(head ** 5) + 1.0) / np.prod(head)
    return np.array([0.0, 0.0, 0.0, v4], dtype=complex)


FD_STEP = 1e-6  # central-difference step of finite_difference_gradient


def finite_difference_gradient(p):
    """Central-difference Euclidean gradient of f = Re(s), as the oracle.

    Returns the complex representation (df/du_i + i df/dv_i), which is the
    gradient of the chart-flat metric and so comparable with conj(ds); s is
    evaluated on all 16 shifted rows in one call.
    """
    x = p.array()
    i = np.arange(4)
    shift = FD_STEP * np.array([[1.0], [1j]])  # along u_i, along v_i
    rows = np.tile(x, (4, 4, 1))  # (+u, +v, -u, -v) x shifted coordinate
    rows[:2, i, i] = x + shift
    rows[2:, i, i] = x - shift
    f = _eval_s_rows(rows.reshape(16, 4)).real.reshape(4, 4)
    d = (f[:2] - f[2:]) / (2.0 * FD_STEP)
    return d[0] + 1j * d[1]


def omega_value(p, u, v, metric):
    """The Kahler form Im(u^H H v) on two real tangent vectors."""
    if metric == "fubini-study":
        x = p.array()
        a = 1.0 + _sum4(np.abs(x) ** 2)
        v = (a * v - x * np.vdot(x, v)) / a ** 2
    elif metric != "chart-flat":
        raise ValueError(f"unknown metric {metric!r}")
    return float(np.vdot(u, v).imag)
