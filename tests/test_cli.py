import argparse
import json

import pytest

from quintfib import cli, fibercensus, verify

import contract


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_graph_json(capsys):
    code, out = run_cli(capsys, "graph", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["vertices"]) == 20
    assert len(payload["edges"]) == 30
    assert set(payload) == {"vertices", "edges", "incidence"}


def test_graph_json_stable_key_order(capsys):
    _, out1 = run_cli(capsys, "graph", "--format", "json")
    _, out2 = run_cli(capsys, "graph", "--format", "json")
    assert out1 == out2


def test_monodromy_subcommand(capsys):
    code, out = run_cli(capsys, "monodromy", "--leg", "2,4,3",
                        "--basepoint", "5,4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["matrix"] == [[1, -5, 0], [0, 1, 0], [0, 0, 1]]
    assert payload["basis"] == ["gamma_5^1", "gamma_5^2", "gamma_5^3"]


def test_census_subcommand(capsys):
    code, out = run_cli(capsys, "census", "--fibration", "expected",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    counts = {r["fiber"]: r["count"] for r in payload["rows"]}
    assert counts["II5x5"] == 10 and counts["I5"] == 30


def test_census_choices_are_the_fibrations():
    # the parser spells the choices out, so that building it loads no module
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    fibration = next(a for a in sub.choices["census"]._actions
                     if a.dest == "fibration")
    assert fibration.choices == fibercensus.FIBRATIONS


def test_euler_subcommand(capsys):
    code, out = run_cli(capsys, "euler", "--fibration", "expected",
                        "--format", "json")
    payload = json.loads(out)
    assert payload["total"] == -200
    assert any(b["contribution"] == -250 for b in payload["breakdown"])


def test_spectral_subcommand(capsys):
    code, out = run_cli(capsys, "spectral", "--fibration", "quintic",
                        "--format", "json")
    payload = json.loads(out)
    assert payload["table_rows_top_down"][0] == [161, 0, 0, 1]


def test_spectral_explain_dumps_triplets(capsys):
    code, out = run_cli(capsys, "spectral", "--explain", "K3",
                        "--format", "json")
    payload = json.loads(out)
    assert payload["shape"] == [120, 280]
    assert all(len(t) == 3 for t in payload["triplets"])


def test_toric_subcommand(capsys):
    code, out = run_cli(capsys, "toric", "--report", "json")
    payload = json.loads(out)
    assert payload["divisor_census"]["total"] == 100


def test_pairing_subcommand(capsys):
    code, out = run_cli(capsys, "pairing", "--loop", "1,2,3",
                        "--form", "3,2", "--format", "json")
    payload = json.loads(out)
    assert payload["value"] == 1
    assert payload["residue"] < 1e-6


def test_covering_subcommand(capsys):
    code, out = run_cli(capsys, "covering", "--r1", "1.0", "--r2", "1.0",
                        "--format", "json")
    payload = json.loads(out)
    assert payload["count"] == 50
    assert payload["stratum"] == "Interior2"


def test_covering_prints_the_stratum_it_counted(capsys):
    # at tol 1e-6 the point lies within tol of the vertex (1, 0): it is
    # counted, and so printed, as Vertex0; at the default 1e-9 it is Edge1
    code, out = run_cli(capsys, "covering", "--r1", "1.0", "--r2", "1e-7",
                        "--tol", "1e-6")
    assert code == 0
    assert out.strip() == "(1.0, 1e-07) [Vertex0]: 5 intersection points"
    code, out = run_cli(capsys, "covering", "--r1", "1.0", "--r2", "1e-7",
                        "--format", "json")
    assert json.loads(out)["stratum"] == "Edge1"


def test_flow_subcommand_writes_csv(tmp_path, capsys):
    out_path = tmp_path / "cloud.csv"
    code, out = run_cli(capsys, "flow", "--psi", "10", "--face", "5",
                        "--samples", "8", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0].split(",")[0] == "chart"
    assert len(lines) == 9   # header + 8 samples
    assert "defect" in lines[0]


def test_verify_all_symbolic_only(capsys):
    code, out = run_cli(capsys, "verify-all", "--skip", "numeric",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    statuses = {c["id"]: c["status"] for c in payload["checks"]}
    assert statuses["c01-monodromy-goldens"] == "pass"
    assert statuses["c07-flow-conservation"] == "skipped"
    assert payload["passed"]


@pytest.mark.parametrize("argv", [
    ("flow", "--psi", "0"),
    ("flow", "--samples", "-3"),
    ("flow", "--samples", "0"),
    ("verify-all", "--samples", "-1"),
    ("verify-all", "--samples", "0"),
    ("verify-all", "--psi", "0"),
    ("covering", "--r1", "nan", "--r2", "1"),
    ("covering", "--r1", "inf", "--r2", "1"),
    ("covering", "--r1", "1", "--r2", "1", "--tol", "nan"),
    ("covering", "--r1", "1", "--r2", "1", "--tol", "inf"),
    ("covering", "--r1", "1", "--r2", "1", "--tol=-1e-9"),
    ("flow", "--tol", "nan"),
    ("flow", "--tol", "inf"),
    ("flow", "--psi", "nan"),
    ("pairing", "--loop", "1,2,3", "--form", "3,2", "--psi", "nan"),
    ("pairing", "--loop", "1,2,3", "--form", "3,2", "--psi", "0"),
    ("verify-all", "--psi", "nan"),
    ("verify-all", "--psi", "1"),
    ("verify-all", "--seed", "-1"),
])
def test_bad_sample_counts_and_psi_are_rejected(capsys, argv):
    with pytest.raises(ValueError):
        run_cli(capsys, *argv)


def test_verify_all_has_no_tol_option(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "verify-all", "--tol", "1e-8")
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, flag", [
    (("monodromy", "--leg", "2,4,3", "--basepoint", "5"), "--basepoint"),
    (("monodromy", "--leg", "2,4,3", "--basepoint", "5,4,1"), "--basepoint"),
    (("monodromy", "--leg", "2,4,3,1"), "--leg"),
    (("monodromy", "--leg", "2,4"), "--leg"),
    (("monodromy", "--leg", "2,x,3"), "--leg"),
    (("pairing", "--loop", "1,2", "--form", "3,2"), "--loop"),
    (("pairing", "--loop", "1,2,3", "--form", "3"), "--form"),
])
def test_comma_lists_of_the_wrong_length_are_rejected(capsys, argv, flag):
    with pytest.raises(ValueError, match=f"{flag} takes"):
        run_cli(capsys, *argv)


def test_verify_report_json_is_stable_without_runtimes():
    cfg = verify.VerifyConfig(seed=0, skip="numeric")
    a = contract.report_text(verify.verify_all(cfg))
    b = contract.report_text(verify.verify_all(cfg))
    assert a == b


def test_verify_report_schema_and_config_keys():
    payload = verify.verify_all(verify.VerifyConfig(seed=0, skip="numeric")).as_dict()
    assert payload["schema_version"] == 2
    assert list(payload["config"]) == ["psi", "samples", "seed", "skip"]


@pytest.mark.parametrize("skip", ["numerics", "Numeric", "all", None])
def test_verify_config_refuses_unknown_skip(skip):
    # "numerics" used to run all 12 checks and write itself into the report
    with pytest.raises(ValueError, match="^skip must be '', 'numeric' or 'symbolic'"):
        verify.VerifyConfig(seed=0, skip=skip)


def test_verify_all_json_is_the_reports_dict(monkeypatch, capsys):
    report = verify.verify_all(verify.VerifyConfig(seed=0, skip="numeric"))
    monkeypatch.setattr(verify, "verify_all", lambda cfg: report)
    _, out = run_cli(capsys, "verify-all", "--format", "json")
    assert out == json.dumps(report.as_dict(), indent=2) + "\n"


def test_verify_injected_corruption_fails_with_diff(monkeypatch):
    # c03 computes a corrupted ledger; the rest of the battery is untouched
    checks = list(verify.CHECKS)
    check_id, criterion, kind, label, _ = checks[2]
    checks[2] = (check_id, criterion, kind, label,
                 lambda cfg, exact: ("(-200, 0, 6, 0)", (-100, 0, 6, 0), False, ""))
    monkeypatch.setattr(verify, "CHECKS", checks)
    report = verify.verify_all(verify.VerifyConfig(seed=0, skip="numeric"))
    bad = [c for c in report.checks if c.status == "fail"]
    assert len(bad) == 1
    assert bad[0].check_id == "c03-euler-ledgers"
    assert bad[0].detail == "expected (-200, 0, 6, 0), got (-100, 0, 6, 0)"
    assert not report.passed
    # the rest of the suite still ran
    assert sum(1 for c in report.checks if c.status == "pass") >= 5


def test_verify_exit_code_reflects_failure(monkeypatch, capsys):
    code, _ = run_cli(capsys, "verify-all", "--skip", "numeric")
    assert code == 0
    # one corrupted check turns the exit code to 1
    checks = list(verify.CHECKS)
    check_id, criterion, kind, label, _ = checks[2]
    checks[2] = (check_id, criterion, kind, label,
                 lambda cfg, exact: ("(-200, 0, 6, 0)", (-100, 0, 6, 0), False, ""))
    monkeypatch.setattr(verify, "CHECKS", checks)
    code, _ = run_cli(capsys, "verify-all", "--skip", "numeric")
    assert code == 1
