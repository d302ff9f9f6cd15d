"""Loop/form pairings on the smooth pencil member.

The cycle with pair (i, j) and winding index k is realized as an honest
circle on the member inside the chart where z_j dominates and z_i is small:
the dominant coordinate is normalized to 1, the spectator coordinates are
frozen at a common radius with generic phases, the k-th coordinate sweeps
a circle of that radius, and z_i rides along as the small root of the
defining quintic.

The quintic's coefficients along the loop do not involve z_i, so all of
them are built as arrays and the roots at every loop step come from one
batched eigenvalue call on the companion matrices.  z_i is then tracked by
continuation: the smallest root at the first step, and at each later step
(closing back onto the first) the root nearest the previous one.  Each step
is certified: the tracked root moves less than STEP_FRACTION of its distance
to the nearest other root, so the nearest root is the continuation and no
root jump can go unnoticed; an uncertified step raises ArithmeticError.

Pairing against the logarithmic form d log(z_l / z_m) is the winding
number of z_l / z_m around the loop, accumulated from phase increments.
The loop's coordinates do not depend on the form, so a call computes the
loop once and every form it is given reads the same coordinates.
"""

import cmath
from dataclasses import dataclass

import numpy as np

STEP_FRACTION = 0.25
N_STEPS = 400  # loop steps
RADIUS = 0.75  # common modulus of the spectator and winding coordinates
POLE_TOL = 1e-6  # least modulus of the form's coordinates along the loop


@dataclass(frozen=True)
class PairingResult:
    value: int
    residue: float
    loop: tuple
    form: tuple
    min_coordinate: float


def _track_small_root(eigs):
    """Continue the smallest root through the rows of eigs, closing the loop.

    `eigs` is (N_STEPS, 5): the quintic's roots at each loop step.  Returns
    the tracked root per step and the worst step ratio |step| / gap, where
    gap is the new root's distance to the nearest other root of its row.
    """
    n = len(eigs)
    rows = np.arange(n + 1) % n
    idx = np.empty(n + 1, dtype=int)
    idx[0] = np.argmin(np.abs(eigs[0]))
    for s in range(1, n + 1):
        idx[s] = np.argmin(np.abs(eigs[rows[s]] - eigs[rows[s - 1], idx[s - 1]]))
    track = eigs[rows, idx]
    gaps = np.abs(eigs[rows] - track[:, None])
    gaps[np.arange(n + 1), idx] = np.inf
    ratios = np.abs(np.diff(track)) / gaps.min(axis=1)[1:]
    bad = np.flatnonzero(~(ratios < STEP_FRACTION))
    if bad.size:
        raise ArithmeticError(
            f"root continuation uncertified at step {bad[0] + 1}: the tracked "
            f"root moved {ratios[bad[0]]:.2e} of its gap to the nearest other root")
    if idx[n] != idx[0]:
        raise ArithmeticError("the tracked root does not close up around the loop")
    return track[:n], float(ratios.max())


def _loop_coordinates(i, j, k, psi):
    """(N_STEPS, 5) coordinates along the (i, j, k) loop, and its worst step ratio."""
    spectators = sorted(set(range(1, 6)) - {i, j, k})
    z = np.zeros((N_STEPS, 5), dtype=complex)
    z[:, j - 1] = 1.0
    for t, sp in enumerate(spectators):
        z[:, sp - 1] = RADIUS * np.exp(1j * (0.4 + 0.9 * t))
    phis = np.linspace(0.0, 2.0 * np.pi, N_STEPS, endpoint=False)
    z[:, k - 1] = RADIUS * np.exp(1j * phis)
    others = np.delete(z, i - 1, axis=1)
    # z_i^5 - 5 psi (prod others) z_i + (sum others^5) = 0, as a companion matrix
    companion = np.zeros((N_STEPS, 5, 5), dtype=complex)
    companion[:, 0, 3] = 5.0 * psi * np.prod(others, axis=1)
    companion[:, 0, 4] = -np.sum(others ** 5, axis=1)
    companion[:, np.arange(1, 5), np.arange(4)] = 1.0
    z[:, i - 1], worst = _track_small_root(np.linalg.eigvals(companion))
    return z, worst


def _winding(z, loop, form):
    """PairingResult of d log(z_l / z_m) on the loop coordinates z."""
    l, m = form
    min_coord = np.min(np.abs(z[:, [l - 1, m - 1]]))
    if min_coord < POLE_TOL:
        raise ArithmeticError(
            f"loop passes within {min_coord:.2e} of a pole of the form")
    ratio_args = np.angle(z[:, l - 1] / z[:, m - 1])
    closed = np.unwrap(np.append(ratio_args, ratio_args[0]))
    winding = (closed[-1] - closed[0]) / (2.0 * np.pi)
    value = int(np.rint(winding))
    return PairingResult(value, float(abs(winding - value)), loop,
                         (l, m), float(min_coord))


def loop_pairing_detailed(loop, forms, psi=10.0):
    """Windings of z_l/z_m along the (i, j, k) cycle, with their residues.

    `loop` is (i, j, k): divisor index i, dominant index j, winding index k.
    `forms` is a sequence of (l, m), each the logarithmic form
    d log(z_l / z_m).  Every index lies in 1..5.  The loop is computed once;
    returns one PairingResult per form, in order.
    """
    forms = list(forms)
    indices = [*loop, *(x for f in forms for x in f)]
    if len(loop) != 3 or any(len(f) != 2 for f in forms) \
            or not all(1 <= x <= 5 for x in indices):
        raise ValueError("a loop takes three indices and a form two, each in 1..5")
    i, j, k = loop
    if len({i, j, k}) != 3:
        raise ValueError("loop indices must be distinct")
    if any(l == m for l, m in forms):
        raise ValueError("form indices must be distinct")
    if not cmath.isfinite(psi):
        raise ValueError(f"psi must be finite, got {psi}")
    z, _ = _loop_coordinates(i, j, k, psi)
    return [_winding(z, (i, j, k), form) for form in forms]

