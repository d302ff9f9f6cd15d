"""Affine-chart points on projective 4-space and the pencil's functions.

Chart c sets the homogeneous coordinate z_c to 1; the remaining four
coordinates, in ascending index order, are the chart coordinates.  The
meromorphic ratio s = (prod z_k) / (sum z_k^5) is degree-(5,5) homogeneous,
so its value is chart independent wherever defined.  The moment map sends
a homogeneous 5-tuple onto the base simplex.
"""

import cmath
from dataclasses import dataclass

import numpy as np


# a row is at a pole of s when its denominator is at most POLE_TOL (1 + max|x|^5)
POLE_TOL = 1e-13
# random_x_infinity_point rejects samples whose |ds|^2 is at most GRAD_FLOOR
GRAD_FLOOR = 1e-3
MAX_TRIES = 100


class PoleError(ArithmeticError):
    """Raised when evaluating s at (numerically) a pole of the pencil."""


def coord_indices(chart):
    return [i for i in range(1, 6) if i != chart]


@dataclass(frozen=True)
class AffinePoint:
    chart: int
    coords: tuple

    def __post_init__(self):
        if self.chart not in (1, 2, 3, 4, 5):
            raise ValueError("chart index must be 1..5")
        c = tuple(complex(x) for x in self.coords)
        if len(c) != 4:
            raise ValueError("an affine point has four coordinates")
        if not all(cmath.isfinite(x) for x in c):
            raise ValueError("coordinates must be finite")
        object.__setattr__(self, "coords", c)

    def array(self):
        return np.array(self.coords, dtype=complex)


def standard_anchors():
    """Five anchor points in R^4 in general position: e1..e4 and the origin."""
    anchors = np.zeros((5, 4))
    for k in range(4):
        anchors[k, k] = 1.0
    return anchors


def moment_image(z):
    """Image of a homogeneous 5-tuple under the moment map.

    The weights are |z_k|^2 / sum |z_i|^2, so the image is the convex
    combination of the standard anchor points with those weights.
    """
    z = np.asarray(z, dtype=complex)
    if z.shape != (5,):
        raise ValueError("expected a homogeneous 5-tuple")
    w = np.abs(z) ** 2
    total = w.sum()
    if total == 0.0:
        raise ValueError("moment image of the zero vector is undefined")
    return (w / total) @ standard_anchors()


def _chart_rows(z, chart):
    """(N, 4) coordinates in chart `chart` of (N, 5) homogeneous rows."""
    return z[:, [i - 1 for i in coord_indices(chart)]] / z[:, chart - 1:chart]


def _sum4(a):
    """Sum over the last axis of length four, in one fixed order for every
    row, so a row's bits do not depend on the rows batched with it."""
    return (a[..., 0] + a[..., 1]) + (a[..., 2] + a[..., 3])


def _others(x):
    """Product of the other three coordinates, slot by slot, on (..., 4)
    arrays: a prefix product times a suffix product, with no division, so a
    vanishing coordinate (the starting divisor) stays exact."""
    x0, x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
    x01, x23 = x0 * x1, x2 * x3
    out = np.empty_like(x)
    np.multiply(x1, x23, out=out[..., 0])
    np.multiply(x0, x23, out=out[..., 1])
    np.multiply(x01, x3, out=out[..., 2])
    np.multiply(x01, x2, out=out[..., 3])
    return out


def _s_parts(x):
    """(numerator, denominator, product of the others, pole mask) of s on
    (..., 4) chart coordinates; a row is at a pole when its denominator
    vanishes relative to 1 + max|x|^5."""
    others = _others(x)
    num = others[..., 3] * x[..., 3]
    den = _sum4(x ** 5) + 1.0
    scale = 1.0 + np.abs(x).max(axis=-1) ** 5
    return num, den, others, np.abs(den) <= POLE_TOL * scale


def _ds(x, num, den, others):
    """Holomorphic partials of s from the parts `_s_parts` returns."""
    den = den[..., None]
    return (others * den - num[..., None] * 5.0 * x ** 4) / den ** 2


def _s_gradient_rows(x):
    """Partials of s on (N, 4) rows and the pole mask; rows at a pole get
    finite placeholders instead of an error."""
    num, den, others, pole = _s_parts(x)
    if np.count_nonzero(pole):
        den = np.where(pole, 1.0, den)
    return _ds(x, num, den, others), pole


def _eval_s_rows(x):
    """s on (N, 4) rows; PoleError if any row sits at a pole."""
    num, den, _, pole = _s_parts(x)
    if np.count_nonzero(pole):
        k = int(np.argmax(pole))
        raise PoleError(f"pole of s at {x[k]}: denominator {den[k]}")
    return num / den


def eval_s(p):
    """Value of the meromorphic ratio at an affine point.

    The denominator vanishing means the point sits on the pencil's base
    quintic; that is a pole of s and is reported with the location.
    """
    return _eval_s_rows(p.array()[None])[0]


def s_gradient(p):
    """Holomorphic partials of s with respect to the chart coordinates."""
    x = p.array()[None]
    num, den, others, pole = _s_parts(x)
    if pole[0]:
        raise PoleError(f"pole of s at {p}: denominator {den[0]}")
    return _ds(x, num, den, others)[0]


def _quintic(x, psi):
    return _sum4(x ** 5) + 1.0 - 5.0 * psi * (_others(x)[..., 3] * x[..., 3])


def _quintic_gradient(x, psi):
    return 5.0 * x ** 4 - 5.0 * psi * _others(x)


def _x_infinity_rows(rng, n):
    """n random rows on the smooth part of the large complex limit, and the
    chart of each.

    One homogeneous coordinate is set to zero, the others get moduli in
    [0.6, 1.4] and uniform phases; the largest coordinate normalizes the
    chart.  Samples too close to the singular surface (tiny gradient of s)
    are rejected, and RuntimeError follows MAX_TRIES rejections in a row.

    The samples come in rounds.  A round draws the missing candidates, but
    no more than the rejections left before MAX_TRIES, each by its nine
    scalar draws (the zero index, then modulus and phase per coordinate);
    charts them and tests them as arrays; and keeps the accepted ones in
    draw order.  So the rows are those of drawing and testing one candidate
    at a time, and the generator ends where that leaves it.
    """
    rows, charts = np.empty((n, 4), dtype=complex), np.empty(n, dtype=int)
    kept = rejected = 0
    while kept < n:
        m = min(n - kept, MAX_TRIES - rejected)
        zeros, params = [], []
        for _ in range(m):
            zeros.append(int(rng.integers(1, 6)))
            params.append([rng.uniform(lo, hi) for _ in range(4)
                           for lo, hi in ((0.6, 1.4), (0.0, 2.0 * np.pi))])
        params = np.array(params).reshape(m, 4, 2)
        z = np.zeros((m, 5), dtype=complex)
        others = [[i - 1 for i in coord_indices(zero)] for zero in zeros]
        z[np.arange(m)[:, None], others] = params[..., 0] * np.exp(1j * params[..., 1])
        chart = np.abs(z).argmax(axis=1) + 1
        x = np.empty((m, 4), dtype=complex)
        for c in set(chart.tolist()):
            x[chart == c] = _chart_rows(z[chart == c], c)
        ds, pole = _s_gradient_rows(x)
        accepted = np.flatnonzero(~pole & (_sum4(ds * ds.conj()).real > GRAD_FLOOR))
        rows[kept:kept + accepted.size] = x[accepted]
        charts[kept:kept + accepted.size] = chart[accepted]
        kept += accepted.size
        rejected = m - 1 - int(accepted[-1]) if accepted.size else rejected + m
        if rejected == MAX_TRIES:
            raise RuntimeError("failed to sample a smooth large-complex-limit point")
    return rows, charts


def random_x_infinity_point(rng):
    """Random point on the smooth part of the large complex limit, as one
    row of `_x_infinity_rows`."""
    rows, charts = _x_infinity_rows(rng, 1)
    return AffinePoint(int(charts[0]), tuple(rows[0]))
