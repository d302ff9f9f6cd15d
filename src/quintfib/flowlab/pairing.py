"""Loop/form pairings on the smooth pencil member.

The cycle with pair (i, j) and winding index k is realized as an honest
circle on the member inside the chart where z_j dominates and z_i is small:
the dominant coordinate is normalized to 1, the spectator coordinates are
frozen at a common radius with generic phases, the k-th coordinate sweeps
a circle of that radius, and z_i rides along as the small root of the
defining quintic.

The quintic's coefficients along a loop do not involve z_i, so all of them
are built as arrays, and the roots at every step of a loop come from one
eigenvalue call on its companion matrices; a loop's companion stack is
freed before the next one is built, so only one loop's stack is held at a
time.  z_i is then tracked by continuation, on all loops at once: the
smallest root at the first step, and at each later step (closing back onto
the first) the root nearest the previous one.  Each step is certified: the
tracked root moves less than STEP_FRACTION of its distance to the nearest
other root, so the nearest root is the continuation and no root jump can go
unnoticed.
The chart is certified too: along the loop |z_i| stays below the least
modulus of the other coordinates.  An uncertified step, a loop that does
not close and a loop outside its chart each raise ArithmeticError naming
the loop.

Pairing against the logarithmic form d log(z_l / z_m) is the winding
number of z_l / z_m around the loop, accumulated from phase increments.
The loop's coordinates do not depend on the form, so a call computes each
loop once and every form it is given reads the same coordinates.
`loop_pairings` takes many loops in one batch; `loop_pairing_detailed` is
its one-loop call.
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


def _track_small_roots(eigs, loops):
    """Continue the smallest root through each loop's rows of eigs, closing it.

    `eigs` is (L, N_STEPS, 5): the quintic's roots at each step of each of
    the L `loops`, which name the loops in the errors.  Returns the tracked
    root per loop and step, (L, N_STEPS), and each loop's worst step ratio
    |step| / gap, where gap is the new root's distance to the nearest other
    root of its row.
    """
    n_loops, n = eigs.shape[:2]
    rows = np.arange(n + 1) % n
    at = np.arange(n_loops)
    idx = np.empty((n_loops, n + 1), dtype=int)
    idx[:, 0] = np.argmin(np.abs(eigs[:, 0]), axis=1)
    for s in range(1, n + 1):
        prev = eigs[at, rows[s - 1], idx[:, s - 1]]
        idx[:, s] = np.abs(eigs[:, rows[s]] - prev[:, None]).argmin(axis=1)
    track = eigs[at[:, None], rows, idx]
    worst = np.empty(n_loops)
    for m, (loop, e, t, ix) in enumerate(zip(loops, eigs, track, idx)):
        gaps = np.abs(e[rows] - t[:, None])
        gaps[np.arange(n + 1), ix] = np.inf
        r = np.abs(np.diff(t)) / gaps.min(axis=1)[1:]
        bad = np.flatnonzero(~(r < STEP_FRACTION))
        if bad.size:
            raise ArithmeticError(
                f"loop {loop}: root continuation uncertified at step "
                f"{bad[0] + 1}: the tracked root moved {r[bad[0]]:.2e} of its "
                f"gap to the nearest other root")
        if ix[n] != ix[0]:
            raise ArithmeticError(
                f"loop {loop}: the tracked root does not close up around the loop")
        worst[m] = r.max()
    return track[:, :n], worst


def _companions(others, psi):
    """Companion matrices of z_i^5 - 5 psi (prod others) z_i + (sum others^5),
    one per row of `others`; built apart so each loop's stack is freed once
    its eigenvalues are taken."""
    companion = np.zeros(others.shape[:-1] + (5, 5), dtype=complex)
    companion[..., 0, 3] = 5.0 * psi * np.prod(others, axis=-1)
    companion[..., 0, 4] = -np.sum(others ** 5, axis=-1)
    companion[..., np.arange(1, 5), np.arange(4)] = 1.0
    return companion


def _loop_coordinates(loops, psi):
    """(L, N_STEPS, 5) coordinates along each (i, j, k) loop, and their worst
    step ratios; one eigenvalue call per loop fills one array of roots.

    Each loop must stay in its chart: |z_i| below the least modulus of the
    other coordinates at every step, or ArithmeticError names the margin.
    """
    n_loops = len(loops)
    z = np.zeros((n_loops, N_STEPS, 5), dtype=complex)
    eigs = np.empty_like(z)
    least = np.empty((n_loops, N_STEPS))  # least modulus of the others
    phis = np.linspace(0.0, 2.0 * np.pi, N_STEPS, endpoint=False)
    for n, (i, j, k) in enumerate(loops):
        z[n, :, j - 1] = 1.0
        for t, sp in enumerate(sorted(set(range(1, 6)) - {i, j, k})):
            z[n, :, sp - 1] = RADIUS * np.exp(1j * (0.4 + 0.9 * t))
        z[n, :, k - 1] = RADIUS * np.exp(1j * phis)
        others = np.delete(z[n], i - 1, axis=1)
        least[n] = np.abs(others).min(axis=1)
        eigs[n] = np.linalg.eigvals(_companions(others, psi))
    track, worst = _track_small_roots(eigs, loops)
    z[np.arange(n_loops), :, [i - 1 for i, _, _ in loops]] = track
    margins = np.min(least - np.abs(track), axis=1)
    for (i, j, k), margin in zip(loops, margins):
        if not margin > 0:
            raise ArithmeticError(
                f"loop {(i, j, k)} outside chart U_{i}^{j} at psi = {psi}: "
                f"margin {margin:.3f} (least other modulus minus |z_{i}|)")
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


def loop_pairings(loops, forms, psi):
    """Windings of z_l/z_m along each (i, j, k) cycle, with their residues.

    `loops[n]` is (i, j, k): divisor index i, dominant index j, winding
    index k.  `forms[n]` is a sequence of (l, m), each the logarithmic form
    d log(z_l / z_m) to pair with `loops[n]`.  Every index lies in 1..5.
    Every loop is computed once, all in one batch; returns, per loop, one
    PairingResult per form, in order.
    """
    loops = [tuple(loop) for loop in loops]
    forms = [list(f) for f in forms]
    if len(forms) != len(loops):
        raise ValueError("give one sequence of forms per loop")
    for loop, fs in zip(loops, forms):
        indices = [*loop, *(x for f in fs for x in f)]
        if len(loop) != 3 or any(len(f) != 2 for f in fs) \
                or not all(1 <= x <= 5 for x in indices):
            raise ValueError("a loop takes three indices and a form two, each in 1..5")
        if len(set(loop)) != 3:
            raise ValueError("loop indices must be distinct")
        if any(l == m for l, m in fs):
            raise ValueError("form indices must be distinct")
    if not cmath.isfinite(psi):
        raise ValueError(f"psi must be finite, got {psi}")
    if not loops:
        return []
    z, _ = _loop_coordinates(loops, psi)
    return [[_winding(zl, loop, form) for form in fs]
            for zl, loop, fs in zip(z, loops, forms)]


def loop_pairing_detailed(loop, forms, psi=10.0):
    """The pairings of one loop with its forms: one row of `loop_pairings`."""
    return loop_pairings([loop], [forms], psi)[0]
