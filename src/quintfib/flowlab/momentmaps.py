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
finite-difference Hessian so the constancy can be spot checked.
"""

import numpy as np

from .points import AffinePoint

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


def kahler_potential(p):
    """The flat potential sum (log|x_i|^2)^2 - (sum log|x_i|^2)^2 / 5."""
    x = p.array()
    if np.any(np.abs(x) == 0.0):
        raise ValueError("the flat potential needs nonzero coordinates")
    t = np.log(np.abs(x) ** 2)
    return float(np.sum(t ** 2) - np.sum(t) ** 2 / 5.0)


def _complex_hessian(p):
    """Finite-difference mixed Hessian d^2/dx_i dxbar_j of the flat potential."""
    base = list(p.coords)
    h = HESSIAN_H

    def pot(coords):
        return kahler_potential(AffinePoint(p.chart, tuple(coords)))

    def d2(i, ui, j, uj):
        pp = list(base)
        pm = list(base)
        mp = list(base)
        mm = list(base)
        pp[i] += h * ui
        pp[j] += h * uj
        pm[i] += h * ui
        pm[j] -= h * uj
        mp[i] -= h * ui
        mp[j] += h * uj
        mm[i] -= h * ui
        mm[j] -= h * uj
        return (pot(pp) - pot(pm) - pot(mp) + pot(mm)) / (4.0 * h * h)

    hess = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            uu = d2(i, 1.0, j, 1.0)
            vv = d2(i, 1j, j, 1j)
            uv = d2(i, 1.0, j, 1j)
            vu = d2(i, 1j, j, 1.0)
            hess[i, j] = 0.25 * ((uu + vv) + 1j * (uv - vu))
    return hess


def volume_ratio(p):
    """det(flat mixed Hessian) times prod |x_i|^2 at a point.

    Analytically this is det(2 I - (2/5) J) = 16/5 independently of the
    point; evaluating it from finite differences gives the pointwise check
    that the flat structure's volume form is proportional to the square of
    the holomorphic 4-form.
    """
    x = p.array()
    hess = _complex_hessian(p)
    return float(np.real(np.linalg.det(hess)) * np.prod(np.abs(x) ** 2))
