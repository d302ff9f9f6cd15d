"""Covering counts of the singular surface over the fattened discriminant.

Over a face-coordinate point (r1, r2) the fiber torus meets the singular
surface at the solutions of

    r1^5 e^{5 i theta1} + r2^5 e^{5 i theta2} = -1,

50 of them over the fattened interior, 25 over the boundary curves and 5
over the two vertex points (where the fiber is a circle and the equation
is one dimensional).

The equation depends on the phases only through u = 5 theta, and
e^{i u} has period 2 pi in u, a fifth of a turn in theta.  With
R = r^5 it reads R1 e^{i u1} = -1 - R2 e^{i u2}, and the moduli of both
sides give the closed form

    cos u2 = (R1^2 - 1 - R2^2) / (2 R2),

after which u1 = arg(-1 - R2 e^{i u2}) is fixed by u2.  So the closed form
is complete: every solution on one period is one of u2 = +-arccos of the
right-hand side, each with its one u1, and a period holds at most two
u-roots.  Over the interior the right-hand side lies strictly inside
[-1, 1] and the two u-roots are distinct; over the boundary curves it is
+-1, the two coincide in one tangential (double) root, and 25 phases
remain.  No search is needed, so none is made.

Each u-root is checked against the equation at a tolerance scaled with the
equation's size, the second u-root is dropped when it lies within five
times the theta tolerance of the first, since theta = u / 5 locally (so
the two u-roots of a point close enough to a boundary curve merge into
one).  Each kept root stands for its 25 phases (u + 2 pi m) / 5, so
covering_count counts 25 per kept root without building them.
"""

import warnings
from math import inf

import numpy as np

from ..basecomplex import FattenedStratum, classify_fattened


def _check_tol(tol):
    """Refuse a negative, infinite or NaN tolerance."""
    if not 0 <= tol < inf:  # also refuses NaN
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")


def _dedupe(roots, tol):
    """The (n, 2) u-roots of one point, n <= 2, with the second dropped when
    it lies within tol of the first on the torus."""
    if len(roots) < 2:
        return roots
    d = np.abs(roots[1] - roots[0])
    d = np.minimum(d, 2.0 * np.pi - d)
    return roots if np.hypot(d[0], d[1]) > tol else roots[:1]


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


def _tolerances(R1, R2, tol):
    """(verify_tol, dedupe_tol), scaled with the equation's size."""
    scale = R1 + R2 + 1.0
    return 1e-7 * scale, max(1e-6, 2.0 * np.sqrt(max(1e-12, 10.0 * tol * scale)))


def _kept_roots(r1, r2, tol):
    """The (n, 2) u-roots over one fattened-interior or boundary point that
    survive `_dedupe`; each stands for the 25 torus solutions
    theta = ((u1 + 2 pi m1) / 5, (u2 + 2 pi m2) / 5), m1, m2 in 0..4."""
    _check_tol(tol)
    R1, R2 = float(r1) ** 5, float(r2) ** 5
    verify_tol, dedupe_tol = _tolerances(R1, R2, tol)
    return _dedupe(_reduced_roots(R1, R2, verify_tol), 5.0 * dedupe_tol)


def covering_stratum(r1, r2, tol):
    """The stratum covering_count classifies (r1, r2) in at tolerance tol."""
    _check_tol(tol)
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
    return 25 * len(_kept_roots(r1, r2, tol))
