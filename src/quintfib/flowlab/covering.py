"""Covering counts of the singular surface over the fattened discriminant.

Over a face-coordinate point (r1, r2) the fiber torus meets the singular
surface at the solutions of

    r1^5 e^{5 i theta1} + r2^5 e^{5 i theta2} = -1,

50 of them over the fattened interior, 25 over the boundary curves and 5
over the two vertex points (where the fiber is a circle and the equation
is one dimensional).

The equation depends on the phases only through u = 5 theta, and
e^{i u} has period 2 pi in u, a fifth of a turn in theta.  Both passes
therefore solve R1 e^{i u1} + R2 e^{i u2} = -1 for u on one period, and
each is one array computation:

* the grid pass evaluates the equation on the GRID_N x GRID_N grid of u
  over one period (separable: one length-GRID_N exponential, broadcast),
  seeds a Newton polish at the centre of every cell where both the real and
  the imaginary part change sign, and polishes all seeds at once with a
  closed-form 2x2 solve, each row stopping when it converges or fails;
* the constructive pass solves the reduced triangle identity
  cos b = (R1^2 - 1 - R2^2)/(2 R2) for (a, b) = u.

`covering_roots_batch` takes (point, tol) rows.  The sign-change mask does
not depend on the tolerance, so it is computed once per distinct point (a
point at a time: one stacked grid for all points lifted the peak memory of
`verify-all`); one Newton polish then serves the seeds of every row,
each seed with its own row's R1, R2 and Newton tolerance (a step whose 2x2
Jacobian is singular falls back to least squares, seed by seed).  The
constructive pass, the dedupe and the lift run row by row, and each row's
roots come back as one array.  Every row's roots are bit for bit those of
the row alone; `covering_roots` is the one-row call, as a list of tuples.

The grid holds the same samples as a uniform 5 GRID_N x 5 GRID_N grid of
theta over the whole torus: that grid's e^{5 i theta} repeats every GRID_N
steps, so it is 25 copies of this one, and in exact arithmetic its seeds,
Newton iterates and roots are these scaled by 1/5 and shifted by
2 pi m / 5.  The union of both passes is deduplicated greedily in u (the
first root of a cluster is kept) at five times the theta tolerance, since
theta = u / 5 locally, and only then is each kept root lifted to its 25
phases (u + 2 pi m) / 5.

Over the interior the two passes find the same 50 roots.  Over the boundary
curves the roots are tangential (the real part does not change sign there),
so the grid pass sees them only where rounding puts grid samples on both
sides of zero, and may see none (at (0.86, 0.881) it finds 0 of 25): the
boundary counts rest on the constructive pass.  The answer is the union of
both passes.
"""

import warnings
from math import inf

import numpy as np

from ..basecomplex import FattenedStratum, classify_fattened

# samples of u = 5 theta per period in the grid pass: the e^{5 i theta} values
# of 5 * GRID_N = 400 theta samples per turn, each counted once
GRID_N = 80


def _dedupe(roots, tol):
    """Greedy torus dedupe: keep a root unless it lies within tol of a kept one.

    Each kept root drops the later roots near it in one array step; only
    kept rows get distances, so memory stays linear in the candidates.
    """
    x = np.asarray(roots).reshape(-1, 2)
    keep = np.ones(len(x), dtype=bool)
    for n in range(len(x)):
        if keep[n]:
            d = np.abs(x[n + 1:] - x[n])
            d = np.minimum(d, 2.0 * np.pi - d)
            keep[n + 1:] &= np.hypot(d[:, 0], d[:, 1]) > tol
    return x[keep]


def _newton_polish(R1, R2, x, h, newton_tol):
    """Newton in u on all seed rows of x (n, 2) at once; returns the converged mask.

    R1, R2 and newton_tol hold one value per seed row.  Per row: stop when
    |f| < newton_tol (tested before each of at most 60 steps), give up on a
    non-finite step, and clip each step to length h.  x is polished in place.
    """
    ok = np.zeros(len(x), dtype=bool)
    alive = np.arange(len(x))
    for _ in range(60):
        e = np.exp(1j * x[alive])
        e1, e2 = e[:, 0], e[:, 1]
        r1, r2 = R1[alive], R2[alive]
        f = r1 * e1 + r2 * e2 + 1.0
        conv = np.abs(f) < newton_tol[alive]
        ok[alive[conv]] = True
        alive, e1, e2, f = alive[~conv], e1[~conv], e2[~conv], f[~conv]
        r1, r2 = r1[~conv], r2[~conv]
        if not len(alive):
            break
        a, b = -r1 * e1.imag, -r2 * e2.imag
        c, d = r1 * e1.real, r2 * e2.real
        det = a * d - b * c
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.stack([(b * f.imag - d * f.real) / det,
                             (c * f.real - a * f.imag) / det], axis=1)
        for n in np.flatnonzero(det == 0.0):
            jac = np.array([[a[n], b[n]], [c[n], d[n]]])
            step[n], *_ = np.linalg.lstsq(jac, -np.array([f[n].real, f[n].imag]),
                                          rcond=None)
        finite = np.all(np.isfinite(step), axis=1)
        alive, step = alive[finite], step[finite]
        nrm = np.hypot(step[:, 0], step[:, 1])
        long = nrm > h
        step[long] *= (h / nrm[long])[:, None]
        x[alive] = np.mod(x[alive] + step, 2.0 * np.pi)
    return ok


def _sign_changes(R1, R2):
    """(GRID_N, GRID_N) mask of the grid cells where Re and Im both change sign."""
    e = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, GRID_N, endpoint=False))
    g = R1 * e[:, None] + R2 * e[None, :] + 1.0

    def any_corner(b):
        """Whether b holds at any of the four corners of each (periodic) cell."""
        b = b | np.roll(b, -1, 0)
        return b | np.roll(b, -1, 1)

    return any_corner(g.real <= 0) & any_corner(g.real >= 0) \
        & any_corner(g.imag <= 0) & any_corner(g.imag >= 0)


def _grid_roots(R1, R2, newton_tol):
    """Grid-pass roots u on one period of each row, as a list of (n, 2) arrays.

    R1, R2 and newton_tol hold one value per row.  The sign-change mask is
    computed once per distinct (R1, R2), one point at a time, which keeps
    memory at one grid; one Newton polish serves the seeds of every row.
    """
    u = np.linspace(0.0, 2.0 * np.pi, GRID_N, endpoint=False)
    h = 2.0 * np.pi / GRID_N
    seeds = {}
    for point in zip(R1.tolist(), R2.tolist()):
        if point not in seeds:
            seeds[point] = u[np.argwhere(_sign_changes(*point))] + 0.5 * h
    per_row = [seeds[point] for point in zip(R1.tolist(), R2.tolist())]
    owner = np.repeat(np.arange(len(R1)), [len(x) for x in per_row])
    x = np.concatenate([np.empty((0, 2)), *per_row])
    ok = _newton_polish(R1[owner], R2[owner], x, h, newton_tol[owner])
    return [x[ok & (owner == n)] for n in range(len(R1))]


def _reduced_roots(R1, R2, verify_tol):
    """Constructive solutions (a, b) = u of the triangle identity, as (n, 2)."""
    if R2 == 0.0 or R1 == 0.0:
        return np.empty((0, 2))
    cb = (R1 ** 2 - 1.0 - R2 ** 2) / (2.0 * R2)
    if abs(cb) > 1.0 + 1e-12:
        return np.empty((0, 2))
    cb = min(1.0, max(-1.0, cb))
    out = []
    for b in sorted({np.arccos(cb), -np.arccos(cb) % (2.0 * np.pi)}):
        target = -1.0 - R2 * np.exp(1j * b)
        a = float(np.angle(target) % (2.0 * np.pi))
        if abs(R1 * np.exp(1j * a) + R2 * np.exp(1j * b) + 1.0) > verify_tol:
            continue
        out.append((a, b))
    return np.array(out).reshape(-1, 2)


def _lift(u):
    """The 25 theta phases ((u1 + 2 pi m1) / 5, (u2 + 2 pi m2) / 5) of each
    root, as (25 n, 2)."""
    m = 2.0 * np.pi * np.arange(5)
    shifts = np.stack(np.meshgrid(m, m, indexing="ij"), axis=-1)
    theta = ((np.reshape(u, (-1, 1, 1, 2)) + shifts) / 5.0) % (2.0 * np.pi)
    return theta.reshape(-1, 2)


def _tolerances(R1, R2, tol):
    """(newton_tol, verify_tol, dedupe_tol), scaled with the equation's size."""
    scale = R1 + R2 + 1.0
    newton_tol = max(1e-12, 10.0 * tol * scale)
    return newton_tol, 1e-7 * scale, max(1e-6, 2.0 * np.sqrt(newton_tol))


def covering_roots_batch(points, tols):
    """All torus solutions over each fattened-interior or boundary point.

    `points` holds (r1, r2) rows and `tols` one tolerance per row; returns
    one (n, 2) array of (theta1, theta2) roots per row, which holds a batch's
    roots in far less memory than tuples.  Both passes run for every row,
    the grid pass as one batch.
    """
    r = np.asarray(points, dtype=float).reshape(-1, 2)
    tols = np.asarray(tols, dtype=float).reshape(-1)
    if len(tols) != len(r):
        raise ValueError("give one tolerance per point")
    bad = ~((tols >= 0) & (tols < inf))  # also refuses NaN
    if bad.any():
        raise ValueError(f"tol must be finite and nonnegative, got {tols[bad][0]}")
    rows = [(a ** 5, b ** 5) for a, b in r.tolist()]  # (R1, R2) per row
    scales = [_tolerances(*row, tol) for row, tol in zip(rows, tols.tolist())]
    R1, R2 = np.array(rows).reshape(-1, 2).T
    grid = _grid_roots(R1, R2, np.array([newton_tol for newton_tol, _, _ in scales]))
    return [_lift(_dedupe(np.concatenate([g, _reduced_roots(*row, verify_tol)]),
                          5.0 * dedupe_tol))
            for g, row, (_, verify_tol, dedupe_tol) in zip(grid, rows, scales)]


def covering_roots(r1, r2, tol):
    """All torus solutions over one point, as a list of (theta1, theta2)
    tuples: one row of `covering_roots_batch`."""
    roots, = covering_roots_batch([(r1, r2)], [tol])
    return list(map(tuple, roots.tolist()))


def covering_stratum(r1, r2, tol):
    """The stratum covering_count classifies (r1, r2) in at tolerance tol."""
    if not 0 <= tol < inf:  # also refuses NaN
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    return classify_fattened(r1, r2, tol=max(tol, 1e-12))


def covering_count(r1, r2, tol=1e-9):
    """Number of intersection points of the fiber with the singular surface.

    The stratum of (r1, r2) is classified first: vertex points use the
    one-dimensional reduction (the fiber there is a circle), points outside
    the fattened region return zero with a warning.
    """
    stratum = covering_stratum(r1, r2, tol)
    if stratum == FattenedStratum.OUTSIDE:
        warnings.warn(f"({r1}, {r2}) lies outside the fattened discriminant")
        return 0
    if stratum == FattenedStratum.VERTEX0:
        # r1^5 e^{5 i theta} = -1 on the unit circle: five phases
        return 5
    return len(covering_roots(r1, r2, tol=tol))
