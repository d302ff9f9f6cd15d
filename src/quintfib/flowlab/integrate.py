"""Flow integration and fiber transport.

The flow of V moves the level f = 0 (the large complex limit) to the level
f = t; reaching f = 1/(5 psi) with Im(s) = 0 lands exactly on the smooth
pencil member.  Along the way Im(s) is conserved and df/dt = 1, so both
drifts measure pure integrator error; the acceptance bar is 1e-8 drift at
tolerance 1e-10.

`flow_batch` integrates a list of points on the real 8-dimensional form of
the chart, every trajectory at once, with a row-wise replica of scipy's
RK45: the Dormand-Prince 5(4) pair with local extrapolation (Dormand &
Prince, J. Comput. Appl. Math. 6, 1980), the initial step of Hairer,
Norsett and Wanner (Sec. II.4), the RMS error norm and step control of
scipy, and the quartic dense output.  Each row keeps its own time, step
size, error norm and work counters (field evaluations, rejected steps), and
every sum over stages runs in a fixed order, so a trajectory's bits do not
depend on the rows batched with it; `flow` is the one-row call.  The tests
check the replica against scipy's solve_ivp.  A terminal event halts
trajectories that enter the guard zone around the singular surface, where
the field genuinely blows up and the continuation is out of scope.

The endpoint oracle is batched the same way: `distances_to_quintic` runs
the Newton projection onto the smooth member on every row at once, each row
stopping on its own, and `newton_project_to_quintic` is its one-row call.
"""

from dataclasses import dataclass

import numpy as np

from . import gradient
from .gradient import FlowConfig, SigmaGuardError, _field_rows, omega_value
from .points import (AffinePoint, _eval_s_rows, _quintic, _quintic_gradient,
                     _sum4, from_homogeneous)
# perfbench/layers.py traces calls through these names here and requires them
# to be the same objects as in flowlab
from .gradient import grad_V
from .points import eval_s, s_gradient

# The Dormand-Prince 5(4) tableau and its dense output, as in scipy's RK45.
# The nodes c_i are not needed: V does not depend on t.
A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
B = (35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
E = (-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
P = (
    (1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432),
    (0, 0, 0, 0),
    (0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799),
    (0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072),
    (0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632),
    (0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1 / 5
EPS = np.finfo(float).eps
N_CHECKPOINTS = 33  # drift checkpoints along each trajectory
# Newton projection: stop at |value| <= NEWTON_TOL (1 + max|x|^5)
NEWTON_TOL = 1e-14
NEWTON_MAX_ITER = 60
COLLAPSE_EPS = 1e-3  # modulus of the perturbed coordinate in circle_collapse_winding
N_PHI = 48  # phases of the perturbed coordinate in circle_collapse_winding
FD_ANGLE = 1e-4  # finite-difference step in the fiber angles of transport_fiber

# row states of the batched integrator
RUNNING, REACHED, GUARD_HIT, UNDERFLOW, GUARDED = range(5)
REASONS = {REACHED: "reached_target", GUARD_HIT: "sigma_guard_hit",
           UNDERFLOW: "step_underflow"}


@dataclass(frozen=True)
class FlowDiagnostics:
    im_s_drift: float
    f_drift: float
    reason: str
    t_reached: float
    n_steps: int
    n_evals: int  # field evaluations of the stepper, as scipy's nfev
    n_rejected: int


def _combine(K, coeffs):
    """sum_j coeffs[j] K[j] in index order, skipping zero coefficients."""
    acc = K[0] * coeffs[0]
    for k, c in zip(K[1:], coeffs[1:]):
        if c:
            acc = acc + k * c
    return acc


def _rms(a):
    """RMS over the last axis of (N, 8) rows, summed in a fixed order."""
    sq = a * a
    acc = sq[:, 0]
    for k in range(1, sq.shape[1]):
        acc = acc + sq[:, k]
    return np.sqrt(acc) / sq.shape[1] ** 0.5


def _pow(a, e):
    """a ** e taken on Python floats: scipy raises float64 scalars to these
    powers with the C library's pow, which numpy's vector loop can miss by
    one ulp."""
    return np.array([x ** e for x in a.tolist()])


def _rhs(y, cfg):
    """V as (N, 8) real rows, |grad f|^2 and the guard mask."""
    if not np.isfinite(y).all():
        raise ValueError("coordinates must be finite")
    v, norm_sq, guarded = _field_rows(y[:, :4] + 1j * y[:, 4:], cfg)
    return np.concatenate([v.real, v.imag], axis=1), norm_sq, guarded


def _dense(seg, t):
    """The quartic dense output of step segments at times t."""
    t_old, h, y_old, Q = seg
    x = ((t - t_old) / h)[:, None]
    x2 = x * x
    x3 = x2 * x
    return h[:, None] * (Q[:, 0] * x + Q[:, 1] * x2 + Q[:, 2] * x3
                         + Q[:, 3] * (x3 * x)) + y_old


def _bisect(f, a, b):
    """The root of f between a and b, bisected until the midpoint is one
    of the two ends, so the bracket holds adjacent floats."""
    fa, fb = f(a), f(b)
    if fa == 0:
        return a
    if fb == 0:
        return b
    if (fa < 0) == (fb < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    while True:
        m = a + (b - a) / 2
        if m in (a, b):
            return m
        fm = f(m)
        if fm == 0:
            return m
        if (fm < 0) == (fa < 0):
            a = m
        else:
            b = m


def _integrate(y0, t_bound, cfg):
    """Integrate (N, 8) rows from t = 0 to t_bound != 0, each on its own.

    Returns per row the state (REACHED, GUARD_HIT, UNDERFLOW or GUARDED),
    the end time and point, the numbers of accepted steps, field evaluations
    and rejected steps, and the squared gradient norm at which a GUARDED
    row's field evaluation stopped; then the accepted steps' dense output,
    as rows, end times and `_dense` segments, in step order.  The count of
    evaluations leaves out the guard event's root search, as scipy's nfev
    does.
    """
    n = len(y0)
    d = 1.0 if t_bound > 0 else -1.0
    rtol, atol = max(cfg.tol, 100 * EPS), cfg.tol
    guard_level = 2.0 * gradient.SIGMA_GUARD  # the guard event's zero
    state = np.full(n, RUNNING)
    guard_sq = np.zeros(n)
    n_evals = np.zeros(n, dtype=int)

    def evaluate(rows, ys):
        n_evals[rows] += 1
        f, norm_sq, guarded = _rhs(ys, cfg)
        hit = guarded & (state[rows] == RUNNING)
        state[rows[hit]] = GUARDED
        guard_sq[rows[hit]] = norm_sq[hit]
        return f, norm_sq

    every = np.arange(n)
    t, y = np.zeros(n), y0.copy()
    f, norm_sq = evaluate(every, y)
    g = norm_sq - guard_level

    # Hairer's initial step
    interval = abs(t_bound)
    scale = atol + np.abs(y) * rtol
    with np.errstate(divide="ignore", invalid="ignore"):
        d0, d1 = _rms(y / scale), _rms(f / scale)
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        h0 = np.where(interval < h0, interval, h0)
        f1, _ = evaluate(every, y + (h0 * d)[:, None] * f)
        d2 = _rms((f1 - f) / scale) / h0
        h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), np.maximum(1e-6, h0 * 1e-3),
                      _pow(0.01 / np.maximum(d1, d2), 1 / 5))
    h_abs = np.minimum(np.minimum(100 * h0, h1), interval)

    n_acc = np.zeros(n, dtype=int)
    n_rej = np.zeros(n, dtype=int)
    rejected = np.zeros(n, dtype=bool)
    steps = []
    while True:
        rows = np.flatnonzero(state == RUNNING)
        if not rows.size:
            break
        tr = t[rows]
        min_step = 10 * np.abs(np.nextafter(tr, d * np.inf) - tr)
        h = h_abs[rows]
        fresh = ~rejected[rows]
        h = np.where(fresh & (h < min_step), min_step, h)
        under = h < min_step
        state[rows[under]] = UNDERFLOW
        keep = ~under
        rows, tr, h = rows[keep], tr[keep], h[keep]
        if not rows.size:
            continue
        t_new = tr + h * d
        t_new = np.where(d * (t_new - t_bound) > 0, t_bound, t_new)
        h = t_new - tr
        hc = h[:, None]
        yr = y[rows]
        K = [f[rows]]
        for a in A[1:]:
            K.append(evaluate(rows, yr + _combine(K, a) * hc)[0])
        y_new = yr + hc * _combine(K, B)
        f_new, norm_sq = evaluate(rows, y_new)
        K.append(f_new)
        scale = atol + np.maximum(np.abs(yr), np.abs(y_new)) * rtol
        err = _rms(_combine(K, E) * hc / scale)

        ok = err < 1
        pw = SAFETY * _pow(np.where(err == 0, 1.0, err), ERROR_EXPONENT)
        grow = np.where(err == 0, MAX_FACTOR, np.where(pw < MAX_FACTOR, pw, MAX_FACTOR))
        grow = np.where(rejected[rows] & ~(grow < 1), 1.0, grow)
        shrink = np.where(pw > MIN_FACTOR, pw, MIN_FACTOR)
        h_abs[rows] = np.abs(h) * np.where(ok, grow, shrink)
        rejected[rows] = ~ok
        n_rej[rows] += ~ok

        ok &= state[rows] == RUNNING
        acc = rows[ok]
        if not acc.size:
            continue
        K = [k[ok] for k in K]
        seg = (tr[ok], h[ok], yr[ok],
               np.stack([_combine(K, col) for col in zip(*P)], axis=1))
        steps.append((acc, t_new[ok], seg))
        t[acc], y[acc], f[acc] = t_new[ok], y_new[ok], f_new[ok]
        n_acc[acc] += 1
        state[acc[d * (t_new[ok] - t_bound) >= 0]] = REACHED
        g_new = norm_sq[ok] - guard_level
        # a row whose step crosses the guard level stops at the crossing,
        # bisected on the step's dense output down to adjacent floats
        for k in np.flatnonzero((g[acc] >= 0) & (g_new <= 0)):
            one = tuple(part[k:k + 1] for part in seg)

            def event(tt):
                ys = _dense(one, np.array([tt]))
                norm = _field_rows(ys[:, :4] + 1j * ys[:, 4:], cfg)[1][0]
                return float(norm) - guard_level

            root = _bisect(event, float(tr[ok][k]), float(t_new[ok][k]))
            t[acc[k]], y[acc[k]] = root, _dense(one, np.array([root]))[0]
            state[acc[k]] = GUARD_HIT
        g[acc] = g_new

    counts = (n_acc, n_evals, n_rej)
    if not steps:
        return state, t, y, counts, guard_sq, None
    seg_rows = np.concatenate([s[0] for s in steps])
    order = np.argsort(seg_rows, kind="stable")
    t1 = np.concatenate([s[1] for s in steps])[order]
    segs = tuple(np.concatenate([s[2][k] for s in steps])[order] for k in range(4))
    return state, t, y, counts, guard_sq, (seg_rows[order], t1, segs)


def _checkpoint_drifts(s0, t_end, rows, steps, d):
    """Largest Im(s) and f drifts at N_CHECKPOINTS equally spaced times on
    [0, t_end] of each of `rows`, read from the dense output.

    Like scipy's OdeSolution, a time on a step boundary reads the earlier
    step's interpolant.
    """
    seg_rows, t1, seg = steps
    mine = np.isin(seg_rows, rows)
    at = np.searchsorted(rows, seg_rows[mine])  # position of each step's row
    t1, seg = t1[mine], tuple(part[mine] for part in seg)
    counts = np.bincount(at, minlength=len(rows))
    starts = np.cumsum(counts) - counts
    # breakpoints per row in the direction of time, padded with +inf
    bounds = np.full((len(rows), counts.max() + 1), np.inf)
    bounds[:, 0] = 0.0
    bounds[at, np.arange(len(at)) - starts[at] + 1] = d * t1
    bounds[np.arange(len(rows)), counts] = d * t_end[rows]

    # np.linspace(0, t_end, n) row by row, bit for bit
    ts = np.arange(N_CHECKPOINTS) * (t_end[rows] / (N_CHECKPOINTS - 1))[:, None]
    ts[:, -1] = t_end[rows]
    left = (bounds[:, None, :] < d * ts[:, :, None]).sum(axis=2)
    which = starts[:, None] + np.clip(left - 1, 0, (counts - 1)[:, None])
    ys = _dense(tuple(part[which.ravel()] for part in seg), ts.ravel())
    s = _eval_s_rows(ys[:, :4] + 1j * ys[:, 4:]).reshape(ts.shape)
    s0 = s0[rows][:, None]
    im = np.max(np.abs(s.imag - s0.imag), axis=1, initial=0.0)
    f = np.max(np.abs(s.real - s0.real - ts), axis=1, initial=0.0)
    return im, f


def flow_batch(points, t_target, cfg):
    """Flow every point for time t_target, all in one batch.

    Returns per point what `flow` returns, (endpoint, diagnostics), or the
    SigmaGuardError it raises; a row's result does not depend on the rows
    batched with it.
    """
    if t_target == 0.0:
        return [(p, FlowDiagnostics(0.0, 0.0, "reached_target", 0.0, 0, 0, 0))
                for p in points]
    x0 = np.array([p.array() for p in points]).reshape(-1, 4)
    s0 = _eval_s_rows(x0)
    state, t_end, y_end, (n_acc, n_evals, n_rej), guard_sq, steps = _integrate(
        np.concatenate([x0.real, x0.imag], axis=1), float(t_target), cfg)
    im = np.zeros(len(points))
    f = np.zeros(len(points))
    # a row with no accepted step has not moved, and its drifts stay 0
    rows = np.flatnonzero((state != GUARDED) & (n_acc > 0))
    if rows.size:
        d = 1.0 if t_target > 0 else -1.0
        im[rows], f[rows] = _checkpoint_drifts(s0, t_end, rows, steps, d)
    out = []
    for i, p in enumerate(points):
        if state[i] == GUARDED:
            out.append(SigmaGuardError(float(guard_sq[i]), p))
            continue
        end = AffinePoint(p.chart, tuple(y_end[i, :4] + 1j * y_end[i, 4:]))
        out.append((end, FlowDiagnostics(im[i], f[i], REASONS[state[i]],
                                         float(t_end[i]), int(n_acc[i]) + 1,
                                         int(n_evals[i]), int(n_rej[i]))))
    return out


def flow(p0, t_target, cfg):
    """Integrate the normalized gradient flow for time t_target.

    Returns (endpoint, diagnostics).  The time parameter is the value of f
    itself, so f(end) - f(start) = t_target up to integrator error; Im(s)
    drift is monitored at checkpoints along the accepted solution.
    Termination reasons: 'reached_target', 'sigma_guard_hit',
    'step_underflow'.  A field evaluation inside the guard zone raises
    SigmaGuardError.
    """
    result = flow_batch([p0], t_target, cfg)[0]
    if isinstance(result, SigmaGuardError):
        raise result
    return result


def _newton_rows(x, psi):
    """Newton projection of (N, 4) rows onto the smooth member, all at once.

    Newton steps for the single defining equation move along the conjugate
    gradient direction.  A row stops once |value| <= NEWTON_TOL (1 +
    max|x|^5), tested before each of at most NEWTON_MAX_ITER steps; a
    vanishing gradient on any live row raises ArithmeticError.  Returns the projected rows and
    their total displacements; a row's bits do not depend on the rows
    batched with it.
    """
    x = x.copy()
    moved = np.zeros(len(x))
    alive = np.arange(len(x))
    for _ in range(NEWTON_MAX_ITER):
        xa = x[alive]
        val = _quintic(xa, psi)
        scale = 1.0 + np.max(np.abs(xa), axis=1) ** 5
        live = ~(np.abs(val) <= NEWTON_TOL * scale)
        alive, xa, val = alive[live], xa[live], val[live]
        if not alive.size:
            break
        g = _quintic_gradient(xa, psi)
        gn = _sum4(np.abs(g) ** 2)
        if (gn == 0.0).any():
            raise ArithmeticError("vanishing gradient in Newton projection")
        step = -val[:, None] * g.conj() / gn[:, None]
        x[alive] = xa + step
        moved[alive] += np.sqrt(_sum4(np.abs(step) ** 2))
    return x, moved


def distances_to_quintic(points, psi):
    """Displacements of the Newton projections of all points onto the
    smooth member, as one array; the independent endpoint oracle."""
    return _newton_rows(np.array([p.array() for p in points]).reshape(-1, 4),
                        psi)[1]


def newton_project_to_quintic(p, psi):
    """Project a near-solution onto the smooth member by damped Newton, as
    one row of `distances_to_quintic`; returns (projected point, total
    displacement)."""
    x, moved = _newton_rows(p.array()[None], psi)
    return AffinePoint(p.chart, tuple(x[0])), float(moved[0])


def distance_to_quintic(p, psi):
    """Displacement of the Newton projection onto the smooth member."""
    return newton_project_to_quintic(p, psi)[1]


@dataclass(frozen=True)
class TorusFiber:
    """A torus fiber of the large complex limit over a face interior.

    zero_set lists the vanishing homogeneous coordinates (the face); radii
    fixes the moduli of the others, with the largest one normalizing the
    chart.  One face index gives the generic 3-torus; two give the 2-torus
    whose points each sweep out a circle under the flow.
    """

    zero_set: frozenset
    radii: dict

    def __post_init__(self):
        zs = frozenset(self.zero_set)
        object.__setattr__(self, "zero_set", zs)
        if not zs or len(zs) > 2:
            raise ValueError("supported faces have one or two vanishing coordinates")
        want = {i for i in range(1, 6)} - zs
        if set(self.radii) != want:
            raise ValueError(f"radii must be given exactly for {sorted(want)}")
        if any(r <= 0 for r in self.radii.values()):
            raise ValueError("radii must be positive")

    def point(self, angles):
        """Fiber point for given angles; the largest-radius coordinate is
        normalized and its angle dropped."""
        anchor = max(self.radii, key=lambda i: (self.radii[i], i))
        free = [i for i in sorted(self.radii) if i != anchor]
        if len(angles) != len(free):
            raise ValueError(f"expected {len(free)} angles")
        z = np.zeros(5, dtype=complex)
        z[anchor - 1] = self.radii[anchor]
        for t, i in zip(angles, free):
            z[i - 1] = self.radii[i] * np.exp(1j * t)
        return from_homogeneous(z, chart=anchor)

    @property
    def angle_arity(self):
        return 4 - len(self.zero_set)


@dataclass(frozen=True)
class TransportResult:
    points: tuple
    abs_im_s: tuple  # |Im s| at each point
    im_s_max: float
    f_drift_max: float
    lagrangian_defect: float
    flagged: tuple
    quintic_distance_max: float


def transport_fiber(fiber, psi, n_samples, seed, tol=1e-10, n_probes=12):
    """Carry a fiber of the large complex limit onto the smooth member.

    Samples the fiber's angles, flows every sample for time 1/(5 psi) with
    the Fubini-Study metric at integrator tolerance `tol`, and reports the
    transported cloud with |Im s| at each point, its conservation drifts,
    the maximal Newton-projection distance to the member, and the
    Lagrangian defect.

    The defect is measured against the Kahler form of the same metric: at
    probe samples the transported fiber's tangent vectors are estimated by
    finite differences in the fiber angles, the flow direction is appended,
    and the largest normalized pairing among all pairs is returned.  The
    flow's Lagrangian property holds for the metric that defines the
    gradient, which is why the two are paired.
    """
    if n_samples < 0:
        raise ValueError("the sample count must not be negative")
    cfg = FlowConfig(psi=psi, tol=tol, metric="fubini-study")
    rng = np.random.default_rng(seed)
    arity = fiber.angle_arity
    t_target = cfg.flow_target_time
    angle_sets = [tuple(rng.uniform(0.0, 2.0 * np.pi, arity))
                  for _ in range(n_samples)]

    probes = angle_sets[:n_probes]
    shifted = []
    for angles in probes:
        for a in range(arity):
            moved = list(angles)
            moved[a] += FD_ANGLE
            shifted.append(fiber.point(moved))
    flows = flow_batch([fiber.point(angles) for angles in angle_sets] + shifted,
                       t_target, cfg)

    def reached(result):
        return not isinstance(result, SigmaGuardError) and result[1].reason == "reached_target"

    flagged = tuple(i for i, r in enumerate(flows[:n_samples]) if not reached(r))
    kept = [r for r in flows[:n_samples] if reached(r)]
    points = tuple(q for q, _ in kept)
    ends = np.array([q.array() for q in points]).reshape(-1, 4)
    abs_im_s = tuple(np.abs(_eval_s_rows(ends).imag).tolist())
    im_max = max([d.im_s_drift for _, d in kept] + list(abs_im_s), default=0.0)
    f_max = max((d.f_drift for _, d in kept), default=0.0)
    dist_max = float(np.max(distances_to_quintic(points, psi), initial=0.0))

    defect = 0.0
    for k, base_flow in enumerate(flows[:len(probes)]):
        moved = flows[n_samples + k * arity:n_samples + (k + 1) * arity]
        if not reached(base_flow) or not all(map(reached, moved)):
            continue
        base = base_flow[0]
        tangents = [(m[0].array() - base.array()) / FD_ANGLE for m in moved]
        try:
            tangents.append(grad_V(base, cfg))
        except SigmaGuardError:
            continue
        for a in range(len(tangents)):
            for b in range(a + 1, len(tangents)):
                u, v = tangents[a], tangents[b]
                pairing = abs(omega_value(base, u, v, cfg.metric))
                nu = np.linalg.norm(u) * np.linalg.norm(v)
                if nu > 0:
                    defect = max(defect, pairing / nu)
    return TransportResult(points, abs_im_s, im_max, f_max, defect, flagged,
                           dist_max)


def circle_collapse_winding(pair, radii, psi):
    """Winding of the circle swept by one point of a codimension-2 fiber.

    For a face with two vanishing coordinates, a point of the 2-torus fiber
    deforms to a circle: perturb the lower vanishing coordinate to
    COLLAPSE_EPS e^{i phi}, flow each of N_PHI perturbed points onto the
    smooth member with the chart-flat metric, and measure the winding of
    that coordinate's argument at the endpoints as phi sweeps a full turn.
    A unit winding certifies the extra circle.
    """
    pair = sorted(pair)
    if len(pair) != 2:
        raise ValueError("expected a face with two vanishing coordinates")
    track, other = pair
    cfg = FlowConfig(psi=psi)
    live = sorted(set(range(1, 6)) - set(pair))
    anchor = live[-1]
    starts = []
    for phi in np.linspace(0.0, 2.0 * np.pi, N_PHI, endpoint=False):
        z = np.zeros(5, dtype=complex)
        for i in live:
            z[i - 1] = radii[i] if i in radii else 1.0
        z[live[0] - 1] *= np.exp(0.37j)  # generic fixed phase
        z[track - 1] = COLLAPSE_EPS * np.exp(1j * phi)
        z[other - 1] = 0.0
        starts.append(from_homogeneous(z, chart=anchor))
    args = []
    for p, result in zip(starts, flow_batch(starts, cfg.flow_target_time, cfg)):
        if isinstance(result, SigmaGuardError):
            raise result
        q, diag = result
        if diag.reason != "reached_target":
            raise SigmaGuardError(0.0, p)
        zq = q.homogeneous()
        args.append(np.angle(zq[track - 1]))
    args = np.unwrap(np.array(args + [args[0]]))
    return float((args[-1] - args[0]) / (2.0 * np.pi))
