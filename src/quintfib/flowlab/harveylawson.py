"""The explicit torus-invariant special Lagrangian fibers in C^3.

The map under study sends z to

    (Im(z1 z2 z3), |z1|^2 - |z2|^2, |z1|^2 - |z3|^2)

and each fiber M_c, where smooth, is special Lagrangian for the flat
structure: the symplectic form vanishes on it and the holomorphic volume
form restricts with constant phase.  The singular values form three rays

    {c2 <= 0, c1 = c3 = 0} u {c3 <= 0, c1 = c2 = 0}
                          u {c2 + c3 >= 0, c2 = c3, c1 = 0},

and the fiber over the origin is singular exactly along the three
coordinate axes (detected here as rank drop of the differential).

Fibers are sampled through the torus action: fixing |z1| determines the
other moduli, the total phase is pinned by the imaginary-part constraint,
and the two free angles sweep the orbit.
"""

from dataclasses import dataclass

import numpy as np

TARGET_TOL = 1e-12  # classify_hl_target: distance from a singular ray
# sample_hl_fiber draws |z1|^2 = max(0, c2, c3) + RHO_MARGIN + Exp(RHO_SPREAD)
RHO_MARGIN = 0.25
RHO_SPREAD = 1.0
RANK_TOL = 1e-9  # hl_jacobian_rank: singular values below it, relative, are zero
FRAME_H = 1e-6  # central-difference step of the tangent frames


def hl_map(z):
    z1, z2, z3 = z
    return np.array([
        (z1 * z2 * z3).imag,
        abs(z1) ** 2 - abs(z2) ** 2,
        abs(z1) ** 2 - abs(z3) ** 2,
    ])


def classify_hl_target(c):
    """('smooth'|'singular', branch) classification of a target value."""
    tol = TARGET_TOL
    c1, c2, c3 = (float(x) for x in c)
    if abs(c1) <= tol:
        if abs(c2) <= tol and abs(c3) <= tol:
            return ("singular", "origin")
        if abs(c3) <= tol and c2 <= tol:
            return ("singular", "axis-2")
        if abs(c2) <= tol and c3 <= tol:
            return ("singular", "axis-3")
        if abs(c2 - c3) <= tol and c2 + c3 >= -tol:
            return ("singular", "diagonal")
    return ("smooth", None)


def sample_hl_fiber(c, n_samples, rng):
    """Sample points of the fiber via the torus parametrization.

    Returns a list of (z, params) with params = (rho1, theta1, theta2,
    branch) so callers can rebuild tangent frames by perturbing them.
    """
    c1, c2, c3 = (float(x) for x in c)
    out = []
    tries = 0
    while len(out) < n_samples and tries < 50 * n_samples:
        tries += 1
        rho1_sq = max(0.0, c2, c3) + RHO_MARGIN + rng.exponential(RHO_SPREAD)
        rho1 = np.sqrt(rho1_sq)
        rho2 = np.sqrt(rho1_sq - c2)
        rho3 = np.sqrt(rho1_sq - c3)
        m = rho1 * rho2 * rho3
        if m <= abs(c1):
            continue
        branch = int(rng.integers(2))
        theta1 = rng.uniform(0.0, 2.0 * np.pi)
        theta2 = rng.uniform(0.0, 2.0 * np.pi)
        z = _point_from_params(c, rho1, theta1, theta2, branch)
        out.append((z, (rho1, theta1, theta2, branch)))
    if len(out) < n_samples:
        raise RuntimeError("fiber sampler starved; target may be unreachable")
    return out


def _point_from_params(c, rho1, theta1, theta2, branch):
    c1, c2, c3 = (float(x) for x in c)
    rho2 = np.sqrt(rho1 ** 2 - c2)
    rho3 = np.sqrt(rho1 ** 2 - c3)
    m = rho1 * rho2 * rho3
    total = np.arcsin(min(1.0, max(-1.0, c1 / m)))
    if branch:
        total = np.pi - total
    theta3 = total - theta1 - theta2
    return np.array([rho1 * np.exp(1j * theta1),
                     rho2 * np.exp(1j * theta2),
                     rho3 * np.exp(1j * theta3)])


def _tangent_frame(c, params):
    rho1, theta1, theta2, branch = params
    frame = []
    for slot in range(3):
        plus = [rho1, theta1, theta2]
        minus = [rho1, theta1, theta2]
        plus[slot] += FRAME_H
        minus[slot] -= FRAME_H
        zp = _point_from_params(c, *plus, branch)
        zm = _point_from_params(c, *minus, branch)
        frame.append((zp - zm) / (2.0 * FRAME_H))
    return frame


def hl_jacobian_rank(z):
    """Rank of the real differential of the defining map at a point."""
    z1, z2, z3 = z
    pr = (z2 * z3, z1 * z3, z1 * z2)
    jac = np.zeros((3, 6))
    for i in range(3):
        jac[0, 2 * i] = pr[i].imag       # d Im / d u_i
        jac[0, 2 * i + 1] = pr[i].real   # d Im / d v_i
    jac[1, 0], jac[1, 1] = 2 * z1.real, 2 * z1.imag
    jac[1, 2], jac[1, 3] = -2 * z2.real, -2 * z2.imag
    jac[2, 0], jac[2, 1] = 2 * z1.real, 2 * z1.imag
    jac[2, 4], jac[2, 5] = -2 * z3.real, -2 * z3.imag
    sv = np.linalg.svd(jac, compute_uv=False)
    scale = sv[0] if sv[0] > 0 else 1.0
    return int(np.sum(sv > RANK_TOL * scale))


@dataclass(frozen=True)
class HLProbeResult:
    slag_defect: float
    classification: tuple
    axis_ranks: tuple
    generic_ranks: tuple


def hl_fiber_probe(c, n_samples, seed=0):
    """Special-Lagrangian defect and singularity classification of a fiber.

    The defect is the larger of the normalized flat symplectic pairings on
    sampled tangent frames and the normalized imaginary part of the phased
    holomorphic volume form (whose phase constant is estimated from the
    first frame and must be shared by all others).

    For the origin fiber the probe also certifies that the differential
    drops rank exactly on the three coordinate axes: axis samples must be
    singular, generic samples regular.
    """
    rng = np.random.default_rng(seed)
    classification = classify_hl_target(c)
    samples = sample_hl_fiber(c, n_samples, rng)
    defect = 0.0
    phase = None
    for z, params in samples:
        frame = _tangent_frame(c, params)
        norms = [np.linalg.norm(u) for u in frame]
        for a in range(3):
            for b in range(a + 1, 3):
                om = abs(np.imag(np.vdot(frame[a], frame[b])))
                if norms[a] > 0 and norms[b] > 0:
                    defect = max(defect, om / (norms[a] * norms[b]))
        vol = np.linalg.det(np.column_stack(frame))
        if abs(vol) > 0:
            if phase is None:
                phase = -np.angle(vol)
            defect = max(defect, abs(np.imag(np.exp(1j * phase) * vol)) / abs(vol))
    axis_ranks = ()
    generic_ranks = ()
    if classification[1] == "origin":
        axis_pts = [np.array([1.3 + 0j, 0, 0]), np.array([0, 1.3 + 0j, 0]),
                    np.array([0, 0, 1.3 + 0j])]
        axis_ranks = tuple(hl_jacobian_rank(z) for z in axis_pts)
        generic_ranks = tuple(hl_jacobian_rank(z) for z, _ in samples)
    return HLProbeResult(float(defect), classification, axis_ranks,
                         generic_ranks)
