"""Loop/form pairings on the smooth pencil member.

The cycle with pair (i, j) and winding index k is realized as an honest
circle on the member inside the chart where z_j dominates and z_i is small:
the dominant coordinate is normalized to 1, the spectator coordinates are
frozen at a common radius with generic phases, the k-th coordinate sweeps
a circle of that radius, and z_i rides along as the small root of the
defining quintic.

z_i is a root of z^5 - a z + b, where a = 5 psi (prod others) and
b = sum others^5 are built as arrays, and is followed by Newton
continuation on all loops at once: from b/a at the first step, then from
the previous step's root.  Rouché's theorem certifies each step, closing
back onto the first, from the tracked root alone, so no root jump goes
unnoticed and the track closes; and along the loop |z_i| must stay below
the least modulus of the other coordinates.  An uncertified step and a loop
outside its chart each raise ArithmeticError naming the loop.

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

STEP_FRACTION = 0.25  # a step's most movement, as a share of the certified disk
N_STEPS = 400  # loop steps
NEWTON_TOL = 4 * np.finfo(float).eps  # relative Newton update at rounding level
NEWTON_CAP = 20  # most Newton updates per step
RADIUS = 0.75  # common modulus of the spectator and winding coordinates
POLE_TOL = 1e-6  # least modulus of the form's coordinates along the loop


@dataclass(frozen=True)
class PairingResult:
    value: int
    residue: float
    loop: tuple
    form: tuple
    min_coordinate: float


def _continue_root(a, b, start):
    """(L, N_STEPS) track of a root of z^5 - a z + b along the rows of a and
    b, from `start` at the first step.  Each step runs Newton from the last
    root on all rows until every update is at rounding level, which a NaN
    update never is (NEWTON_CAP at most)."""
    track = np.empty_like(a)
    w = start
    for s in range(a.shape[1]):
        a_s, b_s = a[:, s], b[:, s]
        for _ in range(NEWTON_CAP):
            w4 = (w * w) ** 2
            dw = (w * (w4 - a_s) + b_s) / (5.0 * w4 - a_s)
            w = w - dw
            if np.count_nonzero(np.abs(dw) <= NEWTON_TOL * np.abs(w)) == w.size:
                break
        track[:, s] = w
    return track


def _certify(track, a, b, loops):
    """Each loop's largest Rouché ratio; ArithmeticError names the loop and
    its first step whose ratio is not below 1 (a NaN is not).

    Step s = 1..N_STEPS moves the root to w = w_s from w_{s-1}, step N_STEPS
    closing back onto step 0.  With p the step's polynomial and
    R = |w_s - w_{s-1}| / STEP_FRACTION, on |h| = R
        |p(w + h) - p'(w) h| <= |p(w)| + 10|w|^3 R^2 + 10|w|^2 R^3 + 5|w| R^4 + R^5.
    The ratio is that bound over |p'(w)| R; below 1, Rouché's theorem leaves
    p exactly one root in D(w, R), so no other root lies within
    1/STEP_FRACTION steps, and at the closing step the track closes.
    """
    w, a, b = (np.roll(x, -1, axis=1) for x in (track, a, b))
    r = np.abs(w - track) / STEP_FRACTION
    m = np.abs(w)
    w4 = (w * w) ** 2
    bound = r * r * (10 * m ** 3 + r * (10 * m * m + r * (5 * m + r)))
    ratio = (np.abs(w * (w4 - a) + b) + bound) / (np.abs(5.0 * w4 - a) * r)
    for loop, row in zip(loops, ratio):
        bad = np.flatnonzero(~(row < 1.0))
        if bad.size:
            raise ArithmeticError(
                f"loop {loop}: root continuation uncertified at step "
                f"{bad[0] + 1}: Rouché ratio {row[bad[0]]:.2e}, not below 1")
    return ratio.max(axis=1)


def _loop_coordinates(loops, psi):
    """(L, N_STEPS, 5) coordinates along each (i, j, k) loop, and each loop's
    largest Rouché ratio (`_certify`).

    Each loop must stay in its chart: |z_i| below the least modulus of the
    other coordinates at every step, or ArithmeticError names the margin.
    """
    n_loops = len(loops)
    z = np.zeros((n_loops, N_STEPS, 5), dtype=complex)
    phis = np.linspace(0.0, 2.0 * np.pi, N_STEPS, endpoint=False)
    for n, (i, j, k) in enumerate(loops):
        z[n, :, j - 1] = 1.0
        for t, sp in enumerate(sorted(set(range(1, 6)) - {i, j, k})):
            z[n, :, sp - 1] = RADIUS * np.exp(1j * (0.4 + 0.9 * t))
        z[n, :, k - 1] = RADIUS * np.exp(1j * phis)
    divisor = [i - 1 for i, _, _ in loops]
    others = np.take_along_axis(z, np.array(
        [[c for c in range(5) if c != i] for i in divisor])[:, None], axis=2)
    a = 5.0 * psi * np.prod(others, axis=2)
    b = np.sum(others ** 5, axis=2)
    track = _continue_root(a, b, b[:, 0] / a[:, 0])
    worst = _certify(track, a, b, loops)
    z[np.arange(n_loops), :, divisor] = track
    margins = np.min(np.abs(others).min(axis=2) - np.abs(track), axis=1)
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
    if not cmath.isfinite(psi) or psi == 0:
        raise ValueError(f"psi must be finite and nonzero, got {psi}")
    if not loops:
        return []
    z, _ = _loop_coordinates(loops, psi)
    return [[_winding(zl, loop, form) for form in fs]
            for zl, loop, fs in zip(z, loops, forms)]


def loop_pairing_detailed(loop, forms, psi=10.0):
    """The pairings of one loop with its forms: one row of `loop_pairings`."""
    return loop_pairings([loop], [forms], psi)[0]
