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
and the two free angles sweep the orbit.  The parameters are drawn in
blocks, and the probe works on arrays: the sample points and the +-FRAME_H
shifted parameter rows of every tangent frame are each evaluated as one
array, the symplectic pairings and frame norms are reductions over all
frames, the volumes one `np.linalg.det` of the (K, 3, 3) frame stack, and
the ranks one `np.linalg.svd` of the stacked Jacobians.
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

    Returns the (n_samples, 3) points and their (n_samples, 4) parameter
    rows (rho1, theta1, theta2, branch), so callers can rebuild tangent
    frames by perturbing them.  Each round draws rho1^2, both angles and
    the branch of every missing sample as one block and keeps, in draw
    order, the candidates with rho1 rho2 rho3 > |c1|; after 50 * n_samples
    candidates the sampler gives up.
    """
    c = np.asarray(c, dtype=float)
    if c.shape != (3,) or not np.all(np.isfinite(c)):
        raise ValueError(f"c must be three finite numbers, got {c}")
    if n_samples < 0:
        raise ValueError(f"n_samples must not be negative, got {n_samples}")
    c1, c2, c3 = c.tolist()
    blocks = [np.empty((0, 4))]
    kept = tries = 0
    while kept < n_samples and tries < 50 * n_samples:
        k = min(n_samples - kept, 50 * n_samples - tries)
        tries += k
        rho1_sq = max(0.0, c2, c3) + RHO_MARGIN + rng.exponential(RHO_SPREAD, size=k)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=(k, 2))
        branch = rng.integers(2, size=k)
        rho1 = np.sqrt(rho1_sq)
        ok = rho1 * np.sqrt(rho1_sq - c2) * np.sqrt(rho1_sq - c3) > abs(c1)
        blocks.append(np.column_stack([rho1, theta, branch])[ok])
        kept += int(np.count_nonzero(ok))
    if kept < n_samples:
        raise RuntimeError("fiber sampler starved; target may be unreachable")
    params = np.concatenate(blocks)
    return _points_from_params(c, params[:, :3], params[:, 3]), params


def _points_from_params(c, p, branch):
    """The (..., 3) points of the (..., 3) parameter rows (rho1, theta1,
    theta2) on the given branches."""
    c1, c2, c3 = (float(x) for x in c)
    rho1, theta1, theta2 = np.moveaxis(p, -1, 0)
    rho1_sq = rho1 * rho1
    rho2 = np.sqrt(rho1_sq - c2)
    rho3 = np.sqrt(rho1_sq - c3)
    m = rho1 * rho2 * rho3
    total = np.arcsin(np.clip(c1 / m, -1.0, 1.0))
    total = np.where(branch != 0, np.pi - total, total)
    theta3 = total - theta1 - theta2
    return np.stack([rho1 * np.exp(1j * theta1),
                     rho2 * np.exp(1j * theta2),
                     rho3 * np.exp(1j * theta3)], axis=-1)


def _tangent_frames(c, params):
    """(K, 3, 3) central-difference tangent vectors, one per parameter slot,
    of the K samples with parameter rows `params`; every shifted row is
    evaluated in one array."""
    shift = FRAME_H * np.eye(3)
    p = params[:, None, :3]
    branch = params[:, None, 3]
    zp = _points_from_params(c, p + shift, branch)
    zm = _points_from_params(c, p - shift, branch)
    return (zp - zm) / (2.0 * FRAME_H)


def hl_jacobian_rank(z):
    """Rank of the real differential of the defining map at each point of
    z, an array of shape (..., 3); one singular-value call serves them all.
    A single point, shape (3,), gets an int, a stack an integer array."""
    z = np.asarray(z, dtype=complex)
    z1, z2, z3 = np.moveaxis(z, -1, 0)
    jac = np.zeros(z.shape[:-1] + (3, 6))
    for i, pr in enumerate((z2 * z3, z1 * z3, z1 * z2)):
        jac[..., 0, 2 * i] = pr.imag       # d Im / d u_i
        jac[..., 0, 2 * i + 1] = pr.real   # d Im / d v_i
    jac[..., 1, 0], jac[..., 1, 1] = 2 * z1.real, 2 * z1.imag
    jac[..., 1, 2], jac[..., 1, 3] = -2 * z2.real, -2 * z2.imag
    jac[..., 2, 0], jac[..., 2, 1] = 2 * z1.real, 2 * z1.imag
    jac[..., 2, 4], jac[..., 2, 5] = -2 * z3.real, -2 * z3.imag
    sv = np.linalg.svd(jac, compute_uv=False)
    scale = np.where(sv[..., 0] > 0, sv[..., 0], 1.0)
    ranks = np.sum(sv > RANK_TOL * scale[..., None], axis=-1)
    return int(ranks) if z.ndim == 1 else ranks


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
    first frame and must be shared by all others).  Every sample's frame,
    pairings and volume are computed as one array.

    For the origin fiber the probe also certifies that the differential
    drops rank exactly on the three coordinate axes: axis samples must be
    singular, generic samples regular.
    """
    if n_samples == 0:  # sample_hl_fiber refuses negative counts
        raise ValueError("n_samples must be at least 1, got 0")
    rng = np.random.default_rng(seed)
    points, params = sample_hl_fiber(c, n_samples, rng)
    classification = classify_hl_target(c)
    frames = _tangent_frames(c, params)  # (K, slot, 3)
    norms = np.linalg.norm(frames, axis=-1)
    defects = []
    for a, b in ((0, 1), (0, 2), (1, 2)):
        om = np.abs(np.imag(np.sum(np.conj(frames[:, a]) * frames[:, b], axis=-1)))
        nonzero = (norms[:, a] > 0) & (norms[:, b] > 0)
        defects.append(om[nonzero] / (norms[nonzero, a] * norms[nonzero, b]))
    vol = np.linalg.det(np.swapaxes(frames, 1, 2))
    vol = vol[np.abs(vol) > 0]
    if len(vol):
        phase = -np.angle(vol[0])
        defects.append(np.abs(np.imag(np.exp(1j * phase) * vol)) / np.abs(vol))
    defect = np.concatenate(defects).max(initial=0.0)
    axis_ranks = ()
    generic_ranks = ()
    if classification[1] == "origin":
        axes = 1.3 * np.eye(3, dtype=complex)
        ranks = hl_jacobian_rank(np.concatenate([axes, points])).tolist()
        axis_ranks, generic_ranks = tuple(ranks[:3]), tuple(ranks[3:])
    return HLProbeResult(float(defect), classification, axis_ranks,
                         generic_ranks)
