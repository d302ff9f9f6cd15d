"""Acceptance battery: every cataloged quantity as a machine-checked assert.

Each test runs one numbered criterion at its stated tolerance through the
same check functions the `verify-all` command uses, asserts the outcome,
and prints its pass line with the wall time.
"""

import time

import pytest

from quintfib import monodromy, verify

CFG = verify.VerifyConfig(psi=10.0, samples=100, seed=0)


@pytest.fixture(scope="module")
def exact():
    """The exact data that verify_all passes to its symbolic checks."""
    return verify.exact_data()


def _run(check_fn, n, label, budget_s, *extra):
    """Run a check on CFG; a symbolic check also takes the exact data."""
    t0 = time.time()
    expected, computed, ok, detail = check_fn(CFG, *extra)
    dt = time.time() - t0
    status = "PASS" if ok else "FAIL"
    print(f"criterion {n:2d} [{status}] {label}: expected {expected}, "
          f"computed {computed} ({dt:.2f}s)")
    assert ok, f"criterion {n}: {detail or computed}"
    assert dt < budget_s, f"criterion {n} exceeded its {budget_s}s budget: {dt:.1f}s"


def test_criterion_01_monodromy_golden_set(exact):
    _run(verify.check_monodromy_goldens, 1,
         "transition and monodromy matrices reproduced exactly", 1.0, exact)


def test_criterion_02_vertex_triples(exact):
    _run(verify.check_vertex_battery, 2,
         "20 vertices: commuting triples, product Id, vanishing ranks", 1.0, exact)


def test_criterion_03_euler_ledger(exact):
    _run(verify.check_euler_ledgers, 3,
         "Euler ledgers -200/0 and genera 6/0", 1.0, exact)


def test_criterion_04_sheaf_cohomology(exact):
    _run(verify.check_sheaf_cohomology, 4,
         "kernel-sheaf dims/cohomology, chain dims, boundary residues", 10.0, exact)


def test_criterion_05_spectral_tables(exact):
    _run(verify.check_e2_tables, 5,
         "both spectral tables with their derived sums", 1.0, exact)


def test_criterion_06_toric(exact):
    _run(verify.check_toric, 6,
         "lattice points, crepancy, divisors, Hodge vector", 1.0, exact)


def test_criterion_07_flow_conservation():
    _run(verify.check_flow_conservation, 7,
         "100 trajectories: drifts < 1e-8, endpoints < 1e-6", 30.0)


# c07's computed strings as the one-trajectory-at-a-time loop printed them.
# Seed 1 fails: one trajectory's f drift reaches the 1e-8 bar, the known
# defect of the integrator's error control, which stays visible.
C07_GOLDEN = {
    0: "im 3.3e-11, f 7.1e-09, dist 6.6e-11, guarded 0",
    1: "im 2.8e-11, f 1.0e-08, dist 6.6e-11, guarded 0",
    2: "im 2.9e-11, f 7.1e-09, dist 6.3e-11, guarded 0",
    3: "im 2.8e-11, f 4.5e-09, dist 6.0e-11, guarded 0",
}


@pytest.mark.parametrize("seed", sorted(C07_GOLDEN))
def test_criterion_07_golden_computed_strings(seed):
    cfg = verify.VerifyConfig(psi=10.0, samples=100, seed=seed)
    _, computed, ok, _ = verify.check_flow_conservation(cfg)
    assert computed == C07_GOLDEN[seed]
    assert ok == (seed != 1)


def test_criterion_07_refuses_no_samples():
    # with no sample flowed c07 would pass on drifts of 0 from no flow
    with pytest.raises(ValueError, match="^the sample count must be at least 1, got 0"):
        verify.VerifyConfig(psi=10.0, samples=0, seed=0)


def test_criterion_08_gradient_forms():
    _run(verify.check_gradient_forms, 8,
         "closed-form field to 1e-10, finite differences to 1e-6", 10.0)


def test_criterion_09_pairing_matrix():
    _run(verify.check_pairing_matrix, 9,
         "pairing matrix in two charts, residues < 1e-6", 10.0)


def test_criterion_10_covering_counts():
    _run(verify.check_covering_counts, 10,
         "covering counts 50/25/5, stable under tolerance halving", 60.0)


def test_criterion_11_harvey_lawson():
    _run(verify.check_harvey_lawson, 11,
         "calibration defect < 1e-6 and the three-axis rank-drop locus", 30.0)


def test_criterion_12_property_suite(exact):
    _run(verify.check_property_suite, 12,
         "determinants, shear conjugacy, relabelings, symmetry, saturation",
         30.0, exact)


def test_full_report_passes(reports):
    # the session's seed-0 report, which runs CFG
    report = reports["verify-all-seed0.json"]
    assert report.config == CFG
    assert report.passed, report.render_table()


# The numeric checks away from psi = 10, at seed 0, as the code gives them:
# all pass far from the conifold; c07 misses only its f bar closer in (the
# integrator's known f-drift defect, growing with the flow time 1/(5 psi));
# and at psi 0.5 c09's loop leaves its chart, an explicit regime error.
PSI_FAILURES = {
    -10.0: set(),
    100.0: set(),
    2.0: {"c07-flow-conservation"},
    1.2: {"c07-flow-conservation"},
    1.01: {"c07-flow-conservation"},
    0.9: {"c07-flow-conservation"},
    0.5: {"c07-flow-conservation", "c09-pairing-matrix"},
}


@pytest.mark.parametrize("psi", sorted(PSI_FAILURES))
def test_numeric_checks_across_psi(psi):
    report = verify.verify_all(verify.VerifyConfig(psi=psi, seed=0, skip="symbolic"))
    rows = {c.check_id: c for c in report.checks if c.kind == "numeric"}
    assert {i for i, c in rows.items() if c.status == "fail"} == PSI_FAILURES[psi]
    assert all(c.status == "pass" for i, c in rows.items() if i not in PSI_FAILURES[psi])
    drifts = dict(part.split() for part in rows["c07-flow-conservation"].computed.split(", "))
    assert float(drifts["im"]) < 1e-8 and float(drifts["dist"]) < 1e-6
    assert drifts["guarded"] == "0"
    if "c07-flow-conservation" in PSI_FAILURES[psi]:  # only the f bar is missed
        assert 1.6e-8 <= float(drifts["f"]) <= 4.0e-8
    else:
        assert float(drifts["f"]) < 1e-8
    if "c09-pairing-matrix" in PSI_FAILURES[psi]:
        assert rows["c09-pairing-matrix"].detail.startswith(
            f"error: ArithmeticError('loop (1, 2, 3) outside chart U_1^2 at psi = {psi}")


@pytest.mark.parametrize("skip", ["", "symbolic"])
def test_numeric_checks_refuse_the_conifold(skip):
    # at psi = 1 the member has 125 nodes, which every numeric check
    # used to pass over as if it were smooth
    with pytest.raises(ValueError, match="^psi = 1.0 is the conifold psi\\^5 = 1"):
        verify.VerifyConfig(psi=1.0, seed=0, skip=skip)
    assert verify.VerifyConfig(psi=1.0, seed=0, skip="numeric").psi == 1.0


def test_a_run_computes_each_transition_once(monkeypatch):
    # the symbolic checks read one atlas; a run without them builds none
    calls = []
    inner, build = monodromy.transition, monodromy.atlas
    monkeypatch.setattr(monodromy, "transition",
                        lambda a, b: calls.append((a, b)) or inner(a, b))
    monkeypatch.setattr(monodromy, "atlas",
                        lambda: calls.append("atlas") or build())
    assert verify.verify_all(verify.VerifyConfig(seed=0, skip="numeric")).passed
    assert calls[0] == "atlas"
    assert len(calls) == 121 and len(set(calls[1:])) == 120
    calls.clear()
    verify.verify_all(verify.VerifyConfig(seed=0, samples=1, skip="symbolic"))
    assert calls == []
