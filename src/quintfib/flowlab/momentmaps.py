"""Moment maps and the flat Kahler potential of the torus action on the chart.

Three maps are exposed for the diagonal torus action:

- 'fubini-study': components |x_i|^2 / (1 + |x|^2); values fill the open
  standard simplex (component sum strictly below 1);
- 'log': components log |x_i|^2, the moment map of the complete singular
  flat structure on the chart's big torus;
- 'weighted': the moment coordinates h_i = |x_i|^2 d(potential)/d|x_i|^2
  of the flat potential sum (log|x_i|^2)^2 - (sum log|x_i|^2)^2 / 5, i.e.
  2 t_i - (2/5) sum t with t_i = log |x_i|^2.

The flat potential's complex Hessian determinant times prod |x_i|^2 is a
constant (the structure has trivial canonical volume against the
holomorphic 4-form); `volume_ratio` evaluates that product from a
finite-difference Hessian, the potential taken on all shifted rows at once,
so the constancy can be spot checked.
"""

import numpy as np

HESSIAN_H = 1e-4  # finite-difference step of the mixed Hessian


def moment_maps(p, which="fubini-study"):
    """Value of the named moment map at an affine point (4 real numbers)."""
    x = p.array()
    if which == "fubini-study":
        a = 1.0 + float(np.sum(np.abs(x) ** 2))
        return np.abs(x) ** 2 / a
    if which in ("log", "weighted"):
        if np.any(np.abs(x) == 0.0):
            raise ValueError("log-type moment maps need nonzero coordinates")
        t = np.log(np.abs(x) ** 2)
        if which == "log":
            return t
        return 2.0 * t - 0.4 * float(np.sum(t))
    raise ValueError(f"unknown moment map {which!r}")


def _potential(x):
    """The flat potential on (..., 4) rows."""
    if np.any(np.abs(x) == 0.0):
        raise ValueError("the flat potential needs nonzero coordinates")
    t = np.log(np.abs(x) ** 2)
    return np.sum(t ** 2, axis=-1) - np.sum(t, axis=-1) ** 2 / 5.0


def _complex_hessian(x):
    """Finite-difference mixed Hessian d^2/dx_i dxbar_j of the flat potential
    at x, from second differences along each pair of directions u_i, v_i."""
    step = HESSIAN_H * np.concatenate([np.eye(4), 1j * np.eye(4)])
    a, b = step[:, None], step[None, :]
    d2 = (_potential(x + a + b) - _potential(x + a - b) - _potential(x - a + b)
          + _potential(x - a - b)) / (4.0 * HESSIAN_H * HESSIAN_H)
    uu, uv, vu, vv = d2[:4, :4], d2[:4, 4:], d2[4:, :4], d2[4:, 4:]
    return 0.25 * ((uu + vv) + 1j * (uv - vu))


def volume_ratio(p):
    """det(flat mixed Hessian) times prod |x_i|^2 at a point.

    Analytically this is det(2 I - (2/5) J) = 16/5 independently of the
    point; evaluating it from finite differences gives the pointwise check
    that the flat structure's volume form is proportional to the square of
    the holomorphic 4-form.
    """
    x = p.array()
    hess = _complex_hessian(x)
    return float(np.real(np.linalg.det(hess)) * np.prod(np.abs(x) ** 2))
