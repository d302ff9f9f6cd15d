"""Tests of the benchmark itself; run with `python -m pytest perfbench`.

The traced passes below take about a minute: each workload is traced twice
from a fresh construction at the same seed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# the workload each per-layer metric is meant to move
INTENDED = {"verify." + f"c{k:02d}_s": "verify-default" for k in range(1, 13)}
INTENDED.update({m: "verify-default" for m in (
    "covering.calls", "covering.interior_ms", "covering.edge_ms", "covering.busy_s",
    "pairing.loops", "pairing.loop_ms", "pairing.busy_s")})
INTENDED.update({m: "flow-transport" for m in (
    "flow.trajectories", "flow.trajectory_ms", "flow.guarded", "flow.busy_s",
    "flow.f_drift_max", "flow.f_drift_misses",
    "transport.busy_s", "transport.flows_per_sample", "newton.calls",
    "newton.busy_s", "field.grad_V.calls", "field.grad_V_us",
    "field.evals_per_trajectory", "field.busy_s")})
INTENDED.update({m: "exact-algebra" for m in (
    "ratkernel.rank.busy_s", "ratkernel.det.busy_s", "ratkernel.kernel.busy_s",
    "ratkernel.snf.busy_s", "ratkernel.hnf.busy_s", "ratkernel.saturate.busy_s",
    "ratkernel.rank.calls", "ratkernel.max_bits", "sheafcoh.build_K3.busy_s",
    "monodromy.transition.calls", "monodromy.busy_s", "toric.busy_s",
    "census.busy_s")})
# no trajectory of these inputs enters the guard zone; a guard hit would
# be a change in behaviour, so the counter is held at its known value
KNOWN_ZERO = {"flow.guarded"}
COUNTERS = ("covering.calls", "pairing.loops", "flow.trajectories",
            "flow.guarded", "flow.f_drift_max", "flow.f_drift_misses", "field.grad_V.calls", "field.evals_per_trajectory",
            "transport.flows_per_sample", "newton.calls", "ratkernel.rank.calls",
            "ratkernel.max_bits", "monodromy.transition.calls")
SEEDS = {"verify-default": 1, "flow-transport": 0, "exact-algebra": 0}


def _traced_pass(name):
    tracer = layers.Tracer()
    workload = workloads.WORKLOADS[name](SEEDS[name])
    with layers.traced(tracer):
        outcome = workload.run_pass()
    return layers.layer_metrics(tracer.spans), outcome


@pytest.fixture(scope="module")
def traced_runs():
    return {name: [_traced_pass(name) for _ in range(2)] for name in workloads.WORKLOADS}


def test_declared_per_layer_metrics_are_the_measured_ones():
    measured = set(layers.layer_metrics([])) | {
        "setup.numpy_s", "setup.scipy_s", "setup.quintfib_s", "trace.overhead_s"}
    assert {m["name"] for m in SPEC["per_layer"]} == measured
    assert set(INTENDED) | {"setup.numpy_s", "setup.scipy_s", "setup.quintfib_s",
                            "trace.overhead_s"} == measured


def test_self_time_subtracts_child_spans():
    S = layers.Span
    spans = [S("transport.fiber", 0.0, 10.0, -1, 4),
             S("flow.trajectory", 1.0, 4.0, 0, ("reached_target", 2e-8)),
             S("field.grad_V", 2.0, 3.0, 1),
             S("flow.trajectory", 5.0, 6.0, -1, ("guarded", 0.0))]
    m = layers.layer_metrics(spans)
    assert m["transport.busy_s"] == 7.0
    assert m["flow.busy_s"] == 3.0
    assert m["field.busy_s"] == 1.0
    assert m["flow.guarded"] == 1
    assert (m["flow.f_drift_max"], m["flow.f_drift_misses"]) == (2e-8, 1)
    assert m["transport.flows_per_sample"] == 0.25
    assert m["field.evals_per_trajectory"] == 0.5


def test_traced_patches_the_callers_names_and_restores_them():
    from quintfib import flowlab, verify
    from quintfib.flowlab import gradient, integrate
    checks = verify.CHECKS
    with layers.traced(layers.Tracer()):
        assert integrate.grad_V is flowlab.grad_V is not gradient.grad_V
        assert verify.CHECKS is not checks
    assert integrate.grad_V is gradient.grad_V
    assert verify.CHECKS is checks


def test_every_layer_metric_is_nonzero_on_its_workload(traced_runs):
    for metric, name in INTENDED.items():
        value = traced_runs[name][0][0][metric]
        if metric in KNOWN_ZERO:
            assert value == 0, metric
        else:
            assert value > 0, (metric, name)


def test_setup_layers_are_nonzero():
    assert all(v > 0 for v in run.import_breakdown().values())


def test_deterministic_counters_repeat(traced_runs):
    for name, ((first, _), (second, _)) in traced_runs.items():
        for c in COUNTERS:
            assert first[c] == second[c], (name, c)
    vd = traced_runs["verify-default"][0][0]
    assert (vd["covering.calls"], vd["pairing.loops"]) == (54, 24)
    assert traced_runs["flow-transport"][0][0]["transport.flows_per_sample"] == 560 / 512


def test_known_f_drift_misses_are_reported_apart(traced_runs):
    # seed 1: one c07 trajectory drifts 1.025e-8 against the 1e-8 bar
    metrics, outcome = traced_runs["verify-default"][0]
    assert (outcome.attempted, outcome.failed) == (12, 0)
    assert [f.split(":")[0] for f in outcome.known] == ["c07-flow-conservation"]
    assert metrics["flow.f_drift_misses"] >= 1
    # the 512-sample Fubini-Study transport drifts about 2.2e-8
    metrics, outcome = traced_runs["flow-transport"][0]
    assert outcome.failed == 0 and outcome.known
    assert 1e-8 <= metrics["flow.f_drift_max"] < workloads.KNOWN_F_DRIFT_CEILING
    _, outcome = traced_runs["exact-algebra"][0]
    assert outcome.failed == 0 and not outcome.known and outcome.attempted > 100


def test_drift_verdict_fails_every_other_miss():
    verdict = workloads.drift_verdict
    assert verdict(1e-11, 5e-9, 1e-10, True) == (True, False)
    assert verdict(1e-11, 2e-8, 1e-10, True) == (False, True)
    assert verdict(1e-11, 1e-7, 1e-10, True) == (False, False)
    assert verdict(2e-8, 2e-8, 1e-10, True) == (False, False)
    assert verdict(1e-11, 2e-8, 1e-5, True) == (False, False)
    assert verdict(1e-11, 2e-8, 1e-10, False) == (False, False)


def test_known_misses_beyond_the_per_pass_count_fail():
    out = workloads.Outcome()
    for k in range(workloads.KNOWN_MISSES_PER_PASS + 1):
        out.record(False, f"flow {k}", known=True)
    assert len(out.known) == workloads.KNOWN_MISSES_PER_PASS
    assert out.failures == [f"flow {workloads.KNOWN_MISSES_PER_PASS}"]


def test_run_without_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "verify-default", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
