"""Flow integration and fiber transport.

The flow of V moves the level f = 0 (the large complex limit) to the level
f = t; reaching f = 1/(5 psi) with Im(s) = 0 lands exactly on the smooth
pencil member.  Along the way Im(s) is conserved and df/dt = 1, so both
drifts measure pure integrator error; the acceptance bar is 1e-8 drift at
tolerance 1e-10.

`flow_batch` integrates (N, 4) chart rows, every trajectory at once, with a
row-wise replica of scipy's RK45: the Dormand-Prince 5(4) pair with local
extrapolation (Dormand & Prince, J. Comput. Appl. Math. 6, 1980), the
initial step of Hairer, Norsett and Wanner (Sec. II.4), the RMS error norm
and step control of scipy, and the quartic dense output.  A row's state is
real and 8-dimensional with the parts of each coordinate interleaved,
(u1, v1, ..., u4, v4) for x_k = u_k + i v_k, so the state rows view as the
complex chart rows the field takes, and the field's rows view back as
state rows, with no copy; the RMS norm sums u1..u4 and then v1..v4.  Each
row keeps its own time, step size, error norm and work counters (field
evaluations, rejected steps), and every sum over stages runs in a fixed
order, so a trajectory's bits do not depend on the rows batched with it.
The steps work on the running rows alone.  Each stage enters every
weighted sum that reads it (the later stages' inputs, the new state and
the error estimate) as soon as it is known, in one multiply and one add.
A step in which every running row is accepted, as every accepted step of
a lone row is, records and keeps its own arrays, with no gather and no
merge; only a step in which some row is rejected or stops gathers the
accepted rows.  The dense output of all accepted steps is built after the
loop by the same walk over the stages the steps keep.  It returns the
endpoint rows and one `FlowDiagnostics` of per-row arrays; `flow` is one
row of it, with scalar diagnostics, and raises SigmaGuardError for a row
that entered the guard zone.  The tests check the replica against scipy's
solve_ivp.  A terminal event halts trajectories that enter the guard zone
around the singular surface, where the field genuinely blows up and the
continuation is out of scope.

The endpoint oracle is batched the same way: `distances_to_quintic` runs
the Newton projection onto the smooth member on every row at once, each row
stopping on its own, and `newton_project_to_quintic` is its one-row call.
Fibers are rows too: `transport_fiber` flows all its samples and probes in
one batch and pairs every probe's tangents in one call of the Kahler form.
"""

from dataclasses import dataclass, fields
from math import inf, isfinite

import numpy as np

from . import gradient
from .gradient import FlowConfig, SigmaGuardError, _field_rows, _omega_rows
from .points import (AffinePoint, _chart_rows, _eval_s_rows, _quintic,
                     _quintic_gradient, _sum4, coord_indices)
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
# A step's weighted sums of its stages K[j], one row each: those that give
# stages 1 to 5 (A), the new state (B) and the error estimate (E), with the
# weights of K[j] in column j.  A stage enters its sums as soon as it is
# known: STAGE_SUMS[j] holds the rows it enters, a slice, since K[1]'s zero
# weights in B and E lie past its last A row, and its weights there.
SUMS = np.array([a + (0,) * (7 - len(a)) for a in A[1:]] + [B + (0,), E])
STAGE_SUMS = tuple((slice(r[0], r[-1] + 1), SUMS[r[0]:r[-1] + 1, j, None, None])
                   for j, r in enumerate(np.flatnonzero(c).tolist() for c in SUMS.T))
# the dense output's stages (P's row for K[1] is zero) and their weights
DENSE_STAGES = (0, 2, 3, 4, 5, 6)
P_DENSE = np.array([P[j] for j in DENSE_STAGES])[:, :, None, None]
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1 / 5
EPS = np.finfo(float).eps
N_CHECKPOINTS = 33  # drift checkpoints along each trajectory
RMS_ORDER = np.array([0, 2, 4, 6, 1, 3, 5, 7])  # u1..u4, v1..v4 of the interleaved state
# Newton projection: stop at |value| <= NEWTON_TOL (1 + max|x|^5)
NEWTON_TOL = 1e-14
NEWTON_MAX_ITER = 60
COLLAPSE_EPS = 1e-3  # modulus of the perturbed coordinate in circle_collapse_winding
N_PHI = 48  # phases of the perturbed coordinate in circle_collapse_winding
FD_ANGLE = 1e-4  # finite-difference step in the fiber angles of transport_fiber

# row states of the batched integrator, and the reason each final state reports
RUNNING, REACHED, GUARD_HIT, UNDERFLOW, GUARDED = range(5)
REASONS = np.array(["running", "reached_target", "sigma_guard_hit",
                    "step_underflow", "guarded"])


@dataclass(frozen=True, eq=False)
class FlowDiagnostics:
    """How flows ended: per-row arrays from `flow_batch`, scalars from `flow`.

    Each field is an (N,) array from `flow_batch` and one float, str or int
    from `flow`; compare them field by field (`==` is identity). A row
    whose field evaluation entered the guard zone has reason 'guarded' and
    its squared gradient norm there in guard_sq (0 for every other row);
    its drifts read 0.
    """

    im_s_drift: np.ndarray | float
    f_drift: np.ndarray | float
    reason: np.ndarray | str
    t_reached: np.ndarray | float
    n_steps: np.ndarray | int
    n_evals: np.ndarray | int  # field evaluations of the stepper, as scipy's nfev
    n_rejected: np.ndarray | int
    guard_sq: np.ndarray | float


def _rms(a):
    """RMS over the last axis of (N, 8) state rows, summed in the fixed
    order u1..u4, v1..v4 of the interleaved columns."""
    sq = (a * a).take(RMS_ORDER, axis=1)
    return np.sqrt(np.add.accumulate(sq, axis=1)[:, -1]) / 8 ** 0.5


def _pow(a, e):
    """a ** e taken on Python floats: scipy raises float64 scalars to these
    powers with the C library's pow, which numpy's vector loop can miss by
    one ulp.  Like that pow, it gives inf for 0 ** e with e < 0."""
    return np.array([x ** e if x or e > 0 else inf for x in a.tolist()])


def _dense_coefficients(K):
    """The dense output's (4, M, 8) coefficients of steps whose stages
    DENSE_STAGES are K, summed in index order as a step sums SUMS."""
    Q = K[0] * P_DENSE[0]
    for k, w in zip(K[1:], P_DENSE[1:]):
        acc = Q[1:]  # a view: the stage enters its sums in place
        acc += k * w[1:]
    return Q


def _dense(seg, at, t):
    """The quartic dense output of the step segments `at` at times t; each
    coefficient is gathered as it is used."""
    t_old, h, y_old, Q = seg
    h = h[at]
    x = ((t - t_old[at]) / h)[:, None]
    x2 = x * x
    x3 = x2 * x
    return h[:, None] * (Q[0, at] * x + Q[1, at] * x2 + Q[2, at] * x3
                         + Q[3, at] * (x3 * x)) + y_old[at]


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
    """Integrate (N, 8) state rows from t = 0 to t_bound != 0, each on its own.

    Returns per row the state (REACHED, GUARD_HIT, UNDERFLOW or GUARDED),
    the end time and state row, the numbers of accepted steps, field
    evaluations and rejected steps, and the squared gradient norm at which
    a GUARDED row's field evaluation stopped; then the accepted steps'
    dense output, as rows, end times and `_dense` segments, in step order.
    The count of evaluations leaves out the guard event's root search, as
    scipy's nfev does.

    Each step works on the running rows' own arrays, indexed by `live`; a
    row's results are written out when it stops.  Each stage enters its
    rows of SUMS in place as soon as it is known.  The accepted steps keep
    their start rows and the stages that the dense output reads, which
    enter its P_DENSE sums after the loop as a step's enter SUMS.  When
    every running row is accepted, the step records its own arrays and
    they become the new state as they are, without gathers or merges;
    otherwise the accepted rows are gathered and merged into the state.
    """
    n = len(y0)
    d = 1.0 if t_bound > 0 else -1.0
    rtol, atol = max(cfg.tol, 100 * EPS), cfg.tol
    guard_level = 2.0 * gradient.SIGMA_GUARD  # the guard event's zero
    clip = np.minimum if t_bound > 0 else np.maximum  # a step ends at t_bound or before
    state = np.full(n, RUNNING)  # RUNNING until the row stops
    guard_sq = np.zeros(n)

    def evaluate(ys):
        """V at the running rows' states ys, and |grad f|^2; a row whose
        evaluation enters the guard zone stops GUARDED."""
        if np.count_nonzero(np.isfinite(ys)) != ys.size:
            raise ValueError("coordinates must be finite")
        v, norm_sq, guarded = _field_rows(ys.view(complex), cfg)
        if np.count_nonzero(guarded):
            hit = guarded & (state == RUNNING)
            state[hit] = GUARDED
            guard_sq[hit] = norm_sq[hit]
        return v.view(float), norm_sq

    t, y = np.zeros(n), y0.copy()
    f, norm_sq = evaluate(y)
    g = norm_sq - guard_level

    # Hairer's initial step
    interval = abs(t_bound)
    scale = atol + np.abs(y) * rtol
    with np.errstate(divide="ignore", invalid="ignore"):
        d0, d1 = _rms(y / scale), _rms(f / scale)
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        h0 = np.where(interval < h0, interval, h0)
        f1, _ = evaluate(y + (h0 * d)[:, None] * f)
        d2 = _rms((f1 - f) / scale) / h0
        h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), np.maximum(1e-6, h0 * 1e-3),
                      _pow(0.01 / np.maximum(d1, d2), 1 / 5))
    h_abs = np.minimum(np.minimum(100 * h0, h1), interval)

    live = np.arange(n)
    n_acc = np.zeros(n, dtype=int)
    n_evals = np.full(n, 2)  # the initial step's two evaluations
    n_rej = np.zeros(n, dtype=int)
    rejected = np.zeros(n, dtype=bool)
    # per row: state, end time and point, counters and guard norm
    out = (state.copy(), t.copy(), y.copy(), n_acc.copy(), n_evals.copy(),
           n_rej.copy(), guard_sq.copy())
    steps = []  # per accepted batch: rows, end times, start times, sizes, starts, dense stages
    while True:
        done = state != RUNNING
        if np.count_nonzero(done):
            for dst, src in zip(out, (state, t, y, n_acc, n_evals, n_rej, guard_sq)):
                dst[live[done]] = src[done]
            keep = ~done
            (live, state, t, y, n_acc, n_evals, n_rej, guard_sq, f, g, h_abs,
             rejected) = (a[keep] for a in (live, state, t, y, n_acc, n_evals, n_rej,
                                             guard_sq, f, g, h_abs, rejected))
        if not live.size:
            break
        min_step = 10 * np.abs(np.nextafter(t, d * np.inf) - t)
        h = h_abs
        small = h < min_step
        if np.count_nonzero(small):
            # a step below the minimum is raised to it, unless it follows a
            # rejection: then the row underflows
            under = small & rejected
            if np.count_nonzero(under):
                state[under] = UNDERFLOW
                continue
            h = np.where(small, min_step, h)
        t_new = clip(t + h * d, t_bound)
        h = t_new - t
        hc = h[:, None]
        # every sum adds its stages in index order, as scipy's dot products
        # do; stage j + 1 is V at y + h (sum j), the last such point being
        # the new state, and sum 6 is the error estimate
        sums = f * STAGE_SUMS[0][1]
        K = [f]
        for j, (rows, w) in enumerate(STAGE_SUMS[1:]):
            y_new = y + sums[j] * hc
            f_new, norm_sq = evaluate(y_new)
            K.append(f_new)
            acc = sums[rows]  # a view: the stage enters its sums in place
            acc += f_new * w
        n_evals += 6
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        err = _rms(sums[6] * hc / scale)

        # err = 0 gives pw = inf, so the step grows by MAX_FACTOR; np.fmin
        # and np.fmax take the bound where pw is NaN, as the comparisons in
        # scipy's min and max do
        ok = err < 1
        pw = SAFETY * _pow(err, ERROR_EXPONENT)
        grow = np.fmin(pw, MAX_FACTOR)
        if np.count_nonzero(rejected):
            grow = np.where(rejected, np.fmin(grow, 1.0), grow)
        h_abs = np.abs(h) * np.where(ok, grow, np.fmax(pw, MIN_FACTOR))
        rejected = ~ok
        n_rej += rejected

        # a row that entered the guard zone during the step stays where it was
        ok &= state == RUNNING
        n_ok = np.count_nonzero(ok)
        if not n_ok:
            continue
        g_new = norm_sq - guard_level
        cross = ok & (g >= 0) & (g_new <= 0)
        n_cross = np.count_nonzero(cross)
        t_old, y_old = t, y
        if n_ok == len(ok):
            # every running row moves: the step's own arrays are recorded
            # and kept, with no gather and no merge; a crossing below
            # writes t in place, and t_new is recorded
            steps.append((live, t_new, t, h, y, *(K[j] for j in DENSE_STAGES)))
            t = t_new.copy() if n_cross else t_new
            y, f, g = y_new, f_new, g_new
            n_acc += 1
            state[t_new == t_bound] = REACHED
        else:
            steps.append((live[ok], t_new[ok], t[ok], h[ok], y[ok],
                          *(K[j][ok] for j in DENSE_STAGES)))
            col = ok[:, None]
            t, y = np.where(ok, t_new, t), np.where(col, y_new, y)
            f, g = np.where(col, f_new, f), np.where(ok, g_new, g)
            n_acc += ok
            state[ok & (t_new == t_bound)] = REACHED
        # a row whose step crosses the guard level stops at the crossing,
        # bisected on the step's dense output down to adjacent floats
        for k in np.flatnonzero(cross) if n_cross else ():
            one = (t_old[k:k + 1], h[k:k + 1], y_old[k:k + 1],
                   _dense_coefficients([K[j][k:k + 1] for j in DENSE_STAGES]))

            def event(tt):
                ys = _dense(one, [0], np.array([tt]))
                return float(_field_rows(ys.view(complex), cfg)[1][0]) - guard_level

            root = _bisect(event, float(t_old[k]), float(t_new[k]))
            t[k], y[k] = root, _dense(one, [0], np.array([root]))[0]
            state[k] = GUARD_HIT

    state, t, y, n_acc, n_evals, n_rej, guard_sq = out
    counts = (n_acc, n_evals, n_rej)
    if not steps:
        return state, t, y, counts, guard_sq, None
    # the dense output of every accepted step at once, grouped by row
    seg_rows = np.concatenate([s[0] for s in steps])
    order = np.argsort(seg_rows, kind="stable")
    t1, t_old, h, y_old, *K = (np.concatenate(part)[order] for part in list(zip(*steps))[1:])
    steps.clear()
    return state, t, y, counts, guard_sq, (seg_rows[order], t1,
                                           (t_old, h, y_old, _dense_coefficients(K)))


def _checkpoint_drifts(s0, t_end, rows, steps, d):
    """Largest Im(s) and f drifts at N_CHECKPOINTS equally spaced times on
    [0, t_end] of each of `rows`, read from the dense output.

    The steps must be ordered by row and, within a row, by time, as
    `_integrate` returns them: then the keys row + 1j * (d * t1) ascend,
    since numpy orders complex numbers by real part, then by imaginary
    part, and one sorted search finds the first step of a checkpoint's row
    that ends at or after it.  So, like scipy's OdeSolution, a time on a
    step boundary reads the earlier step's interpolant.
    """
    seg_rows, t1, seg = steps
    # np.linspace(0, t_end, n) row by row, bit for bit
    ts = np.arange(N_CHECKPOINTS) * (t_end[rows] / (N_CHECKPOINTS - 1))[:, None]
    ts[:, -1] = t_end[rows]
    which = np.searchsorted(seg_rows + 1j * (d * t1), rows[:, None] + 1j * (d * ts))
    ys = _dense(seg, which.ravel(), ts.ravel())
    s = _eval_s_rows(_complex_rows(ys)).reshape(ts.shape)
    s0 = s0[rows][:, None]
    im = np.max(np.abs(s.imag - s0.imag), axis=1, initial=0.0)
    f = np.max(np.abs(s.real - s0.real - ts), axis=1, initial=0.0)
    return im, f


def _as_rows(x, name):
    """x as an (N, 4) float or complex array of chart rows, or a
    ValueError naming it; integer rows become floats, so that no power of
    a coordinate wraps around."""
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] != 4 or x.dtype.kind not in "iufc":
        raise ValueError(f"{name} must be (N, 4) numeric chart rows, "
                         f"got {x.dtype} of shape {x.shape}")
    return x.astype(np.result_type(x, float), copy=False)


def _complex_rows(y):
    """(N, 4) complex rows of (N, 8) state rows, with the signed zeros
    `u + 1j * v` gives."""
    return y[:, 0::2] + 1j * y[:, 1::2]


def flow_batch(x0, t_target, cfg):
    """Flow (N, 4) chart rows for time t_target, all in one batch.

    Returns the (N, 4) endpoint rows and a FlowDiagnostics of per-row
    arrays; a row's results do not depend on the rows batched with it.
    """
    x0 = _as_rows(x0, "x0")
    t_target = float(t_target)
    if not isfinite(t_target):
        raise ValueError(f"t_target must be finite, got {t_target}")
    n = len(x0)
    if t_target == 0.0:
        zero, none = np.zeros(n), np.zeros(n, dtype=int)
        return x0.copy(), FlowDiagnostics(zero, zero, np.full(n, REASONS[REACHED]),
                                          zero, none, none, none, zero)
    s0 = _eval_s_rows(x0)
    state, t_end, y_end, (n_acc, n_evals, n_rej), guard_sq, steps = _integrate(
        np.array(x0, dtype=complex, order="C").view(float), t_target, cfg)
    im = np.zeros(n)
    f = np.zeros(n)
    # a row with no accepted step has not moved, and its drifts stay 0
    rows = np.flatnonzero((state != GUARDED) & (n_acc > 0))
    if rows.size:
        d = 1.0 if t_target > 0 else -1.0
        im[rows], f[rows] = _checkpoint_drifts(s0, t_end, rows, steps, d)
    return _complex_rows(y_end), FlowDiagnostics(
        im, f, REASONS[state], t_end, n_acc + 1, n_evals, n_rej, guard_sq)


def flow(p0, t_target, cfg):
    """Integrate the normalized gradient flow for time t_target.

    Returns (endpoint, diagnostics), one row of `flow_batch`.  The time
    parameter is the value of f itself, so f(end) - f(start) = t_target up
    to integrator error; Im(s) drift is monitored at checkpoints along the
    accepted solution.  Termination reasons: 'reached_target',
    'sigma_guard_hit', 'step_underflow'.  A field evaluation inside the
    guard zone raises SigmaGuardError.
    """
    ends, diag = flow_batch(p0.array()[None], t_target, cfg)
    if diag.reason[0] == "guarded":
        raise SigmaGuardError(diag.guard_sq[0].item(), p0)
    return AffinePoint(p0.chart, tuple(ends[0])), FlowDiagnostics(
        *(getattr(diag, k.name)[0].item() for k in fields(diag)))


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
        scale = 1.0 + np.abs(xa).max(axis=1) ** 5
        live = ~(np.abs(val) <= NEWTON_TOL * scale)
        n_live = np.count_nonzero(live)
        if not n_live:
            break
        if n_live < len(live):
            alive, xa, val = alive[live], xa[live], val[live]
        g = _quintic_gradient(xa, psi)
        gn = _sum4(np.abs(g) ** 2)
        if np.count_nonzero(gn == 0.0):
            raise ArithmeticError("vanishing gradient in Newton projection")
        step = -val[:, None] * g.conj() / gn[:, None]
        x[alive] = xa + step
        moved[alive] += np.sqrt(_sum4(np.abs(step) ** 2))
    return x, moved


def distances_to_quintic(x, psi):
    """Displacements of the Newton projections of (N, 4) rows onto the
    smooth member, as one array; the independent endpoint oracle."""
    return _newton_rows(_as_rows(x, "x"), psi)[1]


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

    @property
    def chart(self):
        """The largest-radius coordinate, which normalizes the fiber's chart."""
        return max(self.radii, key=lambda i: (self.radii[i], i))

    @property
    def angle_arity(self):
        return 4 - len(self.zero_set)

    def rows(self, angles):
        """(K, 4) rows of the fiber in its chart at (K, angle_arity) angles,
        one per free coordinate in ascending order; the normalized
        coordinate's angle is dropped."""
        if angles.shape[1:] != (self.angle_arity,):
            raise ValueError(f"expected {self.angle_arity} angles per row")
        anchor = self.chart
        z = np.zeros((len(angles), 5), dtype=complex)
        z[:, anchor - 1] = self.radii[anchor]
        free = [i for i in sorted(self.radii) if i != anchor]
        for k, i in enumerate(free):
            z[:, i - 1] = self.radii[i] * np.exp(1j * angles[:, k])
        return _chart_rows(z, anchor)


@dataclass(frozen=True)
class TransportResult:
    points: np.ndarray  # (K, 4) rows of the kept samples in `chart`
    chart: int
    abs_im_s: np.ndarray  # |Im s| at each point
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
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    if n_probes < 1:
        raise ValueError(f"n_probes must be at least 1, got {n_probes}")
    cfg = FlowConfig(psi=psi, tol=tol, metric="fubini-study")
    arity = fiber.angle_arity
    angles = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, (n_samples, arity))
    # each probe once per angle, with that angle moved by FD_ANGLE
    n_base = min(n_probes, n_samples)
    shifted = np.repeat(angles[:n_base], arity, axis=0)
    shifted[np.arange(len(shifted)), np.tile(np.arange(arity), n_base)] += FD_ANGLE
    ends, diag = flow_batch(fiber.rows(np.concatenate([angles, shifted])),
                            cfg.flow_target_time, cfg)
    reached = diag.reason == "reached_target"

    kept = reached[:n_samples]
    points = ends[:n_samples][kept]
    abs_im_s = np.abs(_eval_s_rows(points).imag)
    im_max = float(np.max(np.concatenate([diag.im_s_drift[:n_samples][kept],
                                          abs_im_s]), initial=0.0))
    f_max = float(np.max(diag.f_drift[:n_samples][kept], initial=0.0))
    dist_max = float(np.max(distances_to_quintic(points, psi), initial=0.0))

    # each probe's tangents: a difference per angle, then the flow direction
    base, moved = ends[:n_base], ends[n_samples:].reshape(n_base, arity, 4)
    v, _, guarded = _field_rows(base, cfg)
    ok = reached[:n_base] & reached[n_samples:].reshape(n_base, arity).all(axis=1)
    ok &= ~guarded
    tangents = np.concatenate([(moved - base[:, None]) / FD_ANGLE, v[:, None]],
                              axis=1)[ok]
    # every pair of one probe's tangents, in one call of the Kahler form
    a, b = np.triu_indices(arity + 1, 1)
    u, w = tangents[:, a].reshape(-1, 4), tangents[:, b].reshape(-1, 4)
    x = np.repeat(base[ok], len(a), axis=0)
    pairing = np.abs(_omega_rows(x, u, w, cfg.metric))
    nu = np.linalg.norm(u, axis=1) * np.linalg.norm(w, axis=1)
    defect = float(np.max(pairing[nu > 0] / nu[nu > 0], initial=0.0))
    return TransportResult(points, fiber.chart, abs_im_s, im_max, f_max, defect,
                           tuple(np.flatnonzero(~kept).tolist()), dist_max)


def circle_collapse_winding(pair, radii, psi):
    """Winding of the circle swept by one point of a codimension-2 fiber.

    For a face with two vanishing coordinates, a point of the 2-torus fiber
    deforms to a circle: perturb the lower vanishing coordinate to
    COLLAPSE_EPS e^{i phi}, flow each of N_PHI perturbed points onto the
    smooth member with the chart-flat metric, and measure the winding of
    that coordinate's argument at the endpoints as phi sweeps a full turn.
    A unit winding certifies the extra circle.
    """
    if len(pair) != 2 or len(set(pair)) != 2 or not set(pair) <= set(range(1, 6)):
        raise ValueError("expected a face with two vanishing coordinates: two "
                         f"distinct indices in 1..5, got {tuple(pair)}")
    pair = sorted(pair)
    track = pair[0]  # the other vanishing coordinate stays 0
    cfg = FlowConfig(psi=psi)
    live = sorted(set(range(1, 6)) - set(pair))
    anchor = live[-1]
    phi = np.linspace(0.0, 2.0 * np.pi, N_PHI, endpoint=False)
    z = np.zeros((N_PHI, 5), dtype=complex)
    for i in live:
        z[:, i - 1] = radii[i] if i in radii else 1.0
    z[:, live[0] - 1] *= np.exp(0.37j)  # generic fixed phase
    z[:, track - 1] = COLLAPSE_EPS * np.exp(1j * phi)
    starts = _chart_rows(z, anchor)
    ends, diag = flow_batch(starts, cfg.flow_target_time, cfg)
    missed = np.flatnonzero(diag.reason != "reached_target")
    if missed.size:
        k = missed[0]
        raise SigmaGuardError(diag.guard_sq[k].item(),
                              AffinePoint(anchor, tuple(starts[k])))
    args = np.angle(ends[:, coord_indices(anchor).index(track)])
    args = np.unwrap(np.append(args, args[0]))
    return float((args[-1] - args[0]) / (2.0 * np.pi))
