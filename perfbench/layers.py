"""Per-layer tracing for the traced benchmark run.

A traced pass replaces the public functions of each quintfib layer, at the
name its caller looks them up by, with a wrapper that records a span: name,
start, end, the enclosing span and a note about the call (its outcome,
stratum, sample count or bit length).  flowlab binds its helpers with
`from .gradient import grad_V`, so `integrate.grad_V` is patched as well as
the package attribute; patching only the defining module would miss every
call the integrator makes.  Untraced passes patch nothing, so end-to-end
timings carry no tracing cost.

A span's self time is its duration minus the time of its child spans, so
the busy times of nested layers add up instead of counting twice.
"""

import contextlib
import functools
import statistics
import time
from dataclasses import dataclass

from quintfib import (basecomplex, fibercensus, flowlab, monodromy, ratkernel,
                      sheafcoh, toriccrepant, verify)
from quintfib.flowlab import integrate, pairing

DRIFT_BAR = 1e-8  # a trajectory's f drift bar, as in verify-all's c07


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    note: object = None


class Tracer:
    """Spans of one pass, kept in memory in call order."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, note=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if note is not None:
                    span.note = note(args, kwargs, None, exc)
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if note is not None:
                span.note = note(args, kwargs, result, None)
            return result

        return traced


def _stratum(args, kwargs, result, err):
    return basecomplex.classify_fattened(args[0], args[1]).name


def _flow_outcome(args, kwargs, result, err):
    """(termination reason, f drift); a guard error drifts nowhere."""
    if err is not None:
        return "guarded", 0.0
    return result[1].reason, result[1].f_drift


def _n_samples(args, kwargs, result, err):
    return kwargs["n_samples"] if "n_samples" in kwargs else args[2]


def _det_bits(args, kwargs, result, err):
    if result is None:
        return 0
    return max(abs(result.numerator).bit_length(),
               result.denominator.bit_length())


def _snf_bits(args, kwargs, result, err):
    if result is None:
        return 0
    d = result[0]
    return max((abs(int(d[i, i])).bit_length() for i in range(min(d.shape))),
               default=0)


def _targets():
    """(span name, note, [(owner, attribute), ...]) for every traced layer.

    Each owner is a module a caller resolves the attribute from at call
    time; all owners of one entry must hold the same function.
    """
    def each(prefix, module, names):
        return [(f"{prefix}.{n}", None, [(module, n)]) for n in names]

    return [
        ("covering.count", _stratum, [(flowlab, "covering_count")]),
        ("pairing.loop", None, [(flowlab, "loop_pairing_detailed"),
                                (pairing, "loop_pairing_detailed")]),
        ("flow.trajectory", _flow_outcome, [(flowlab, "flow"),
                                            (integrate, "flow")]),
        ("transport.fiber", _n_samples, [(flowlab, "transport_fiber")]),
        ("newton.project", None, [(flowlab, "newton_project_to_quintic"),
                                  (integrate, "newton_project_to_quintic")]),
        ("field.grad_V", None, [(flowlab, "grad_V"), (integrate, "grad_V")]),
        ("field.eval_s", None, [(flowlab, "eval_s"), (integrate, "eval_s")]),
        ("field.s_gradient", None, [(flowlab, "s_gradient"),
                                    (integrate, "s_gradient")]),
        ("ratkernel.rank", None, [(ratkernel, "rank")]),
        ("ratkernel.det", _det_bits, [(ratkernel, "det")]),
        ("ratkernel.kernel", None, [(ratkernel, "kernel_basis")]),
        ("ratkernel.snf", _snf_bits, [(ratkernel, "smith_normal_form")]),
        ("ratkernel.hnf", None, [(ratkernel, "row_hermite_form")]),
        ("ratkernel.saturate", None, [(ratkernel, "saturate")]),
        ("sheafcoh.build_K3", None, [(sheafcoh, "build_K3")]),
    ] + each("monodromy", monodromy, [
        "transition", "leg_monodromy", "vertex_monodromies",
        "vanishing_filtration", "in_basis",
    ]) + each("toric", toriccrepant, [
        "enumerate_crepant_rays", "classify_rays",
        "triangulate_dilated_triangle", "divisor_census",
        "mirror_hodge_summary", "mirror_euler_number", "crepancy_check",
    ]) + each("census", fibercensus, [
        "census", "euler_ledger", "singular_surface",
    ])


@contextlib.contextmanager
def traced(tracer):
    """Patch every layer to record into `tracer`; restore on exit."""
    saved = []
    try:
        for name, note, owners in _targets():
            fn = getattr(*owners[0])
            if any(getattr(o, a) is not fn for o, a in owners):
                raise RuntimeError(f"{name}: callers no longer share one function")
            wrapper = tracer.wrap(name, fn, note)
            for owner, attr in owners:
                saved.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
        # verify_all reads its check table at call time
        saved.append((verify, "CHECKS", verify.CHECKS))
        verify.CHECKS = [(cid, crit, kind, label,
                          tracer.wrap("verify." + cid.split("-")[0], fn))
                         for cid, crit, kind, label, fn in verify.CHECKS]
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(spans):
    """Per-layer metrics of one traced pass, keyed by metric name."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    dur = [s.end - s.start for s in spans]
    self_time = [d - c for d, c in zip(dur, child)]
    names = [s.name for s in spans]

    def where(pred):
        return [i for i, n in enumerate(names) if pred(n)]

    def busy(prefix):
        return sum(self_time[i] for i in where(
            lambda n: n == prefix or n.startswith(prefix + ".")))

    def durations(name, note=None):
        return [dur[i] for i in where(lambda n: n == name)
                if note is None or spans[i].note == note]

    m = {}
    for k in range(1, 13):
        m[f"verify.c{k:02d}_s"] = sum(durations(f"verify.c{k:02d}"))

    m["covering.calls"] = len(durations("covering.count"))
    m["covering.interior_ms"] = 1e3 * _median(durations("covering.count", "INTERIOR2"))
    m["covering.edge_ms"] = 1e3 * _median(durations("covering.count", "EDGE1"))
    m["covering.busy_s"] = busy("covering")

    m["pairing.loops"] = len(durations("pairing.loop"))
    m["pairing.loop_ms"] = 1e3 * _median(durations("pairing.loop"))
    m["pairing.busy_s"] = busy("pairing")

    flows = where(lambda n: n == "flow.trajectory")
    m["flow.trajectories"] = len(flows)
    m["flow.trajectory_ms"] = 1e3 * _median([dur[i] for i in flows])
    m["flow.guarded"] = sum(spans[i].note[0] != "reached_target" for i in flows)
    drifts = [float(spans[i].note[1]) for i in flows]
    m["flow.f_drift_max"] = max(drifts, default=0.0)
    m["flow.f_drift_misses"] = sum(d >= DRIFT_BAR for d in drifts)
    m["flow.busy_s"] = busy("flow")
    transports = set(where(lambda n: n == "transport.fiber"))
    samples = sum(spans[i].note for i in transports)
    transported = sum(spans[i].parent in transports for i in flows)
    m["transport.busy_s"] = busy("transport")
    m["transport.flows_per_sample"] = transported / samples if samples else 0.0
    m["newton.calls"] = len(durations("newton.project"))
    m["newton.busy_s"] = busy("newton")

    grads = where(lambda n: n == "field.grad_V")
    flow_set = set(flows)
    m["field.grad_V.calls"] = len(grads)
    m["field.grad_V_us"] = 1e6 * _median([dur[i] for i in grads])
    m["field.evals_per_trajectory"] = (
        sum(spans[i].parent in flow_set for i in grads) / len(flows)
        if flows else 0.0)
    m["field.busy_s"] = busy("field")

    for op in ("rank", "det", "kernel", "snf", "hnf", "saturate"):
        m[f"ratkernel.{op}.busy_s"] = busy(f"ratkernel.{op}")
    m["ratkernel.rank.calls"] = len(durations("ratkernel.rank"))
    m["ratkernel.max_bits"] = max(
        (spans[i].note for i in where(lambda n: n in ("ratkernel.det", "ratkernel.snf"))),
        default=0)

    m["sheafcoh.build_K3.busy_s"] = busy("sheafcoh.build_K3")
    m["monodromy.transition.calls"] = len(durations("monodromy.transition"))
    m["monodromy.busy_s"] = busy("monodromy")
    m["toric.busy_s"] = busy("toric")
    m["census.busy_s"] = busy("census")
    return m
