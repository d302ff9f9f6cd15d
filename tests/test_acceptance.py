"""Acceptance battery: every cataloged quantity as a machine-checked assert.

Each test runs one numbered criterion at its stated tolerance through the
same check functions the `verify-all` command uses, asserts the outcome,
and prints its pass line with the wall time.
"""

import time

import pytest

from quintfib import verify

CFG = verify.VerifyConfig(psi=10.0, samples=100, seed=0)


def _run(check_fn, n, label, budget_s):
    t0 = time.time()
    expected, computed, ok, detail = check_fn(CFG)
    dt = time.time() - t0
    status = "PASS" if ok else "FAIL"
    print(f"criterion {n:2d} [{status}] {label}: expected {expected}, "
          f"computed {computed} ({dt:.2f}s)")
    assert ok, f"criterion {n}: {detail or computed}"
    assert dt < budget_s, f"criterion {n} exceeded its {budget_s}s budget: {dt:.1f}s"


def test_criterion_01_monodromy_golden_set():
    _run(verify.check_monodromy_goldens, 1,
         "transition and monodromy matrices reproduced exactly", 1.0)


def test_criterion_02_vertex_triples():
    _run(verify.check_vertex_battery, 2,
         "20 vertices: commuting triples, product Id, vanishing ranks", 1.0)


def test_criterion_03_euler_ledger():
    _run(verify.check_euler_ledgers, 3,
         "Euler ledgers -200/0 and genera 6/0", 1.0)


def test_criterion_04_sheaf_cohomology():
    _run(verify.check_sheaf_cohomology, 4,
         "kernel-sheaf dims/cohomology, chain dims, boundary residues", 10.0)


def test_criterion_05_spectral_tables():
    _run(verify.check_e2_tables, 5,
         "both spectral tables with their derived sums", 1.0)


def test_criterion_06_toric():
    _run(verify.check_toric, 6,
         "lattice points, crepancy, divisors, Hodge vector", 1.0)


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


def test_criterion_07_with_no_samples_passes_vacuously():
    cfg = verify.VerifyConfig(psi=10.0, samples=0, seed=0)
    _, computed, ok, _ = verify.check_flow_conservation(cfg)
    assert (computed, ok) == ("im 0.0e+00, f 0.0e+00, dist 0.0e+00, guarded 0", True)


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


def test_criterion_12_property_suite():
    _run(verify.check_property_suite, 12,
         "determinants, shear conjugacy, relabelings, symmetry, saturation",
         30.0)


def test_full_report_passes():
    report = verify.verify_all(CFG)
    assert report.passed, report.render_table()
