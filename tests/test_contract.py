"""The behaviour contract against its goldens under tests/goldens/.

A mismatch prints a unified diff from the golden to the current text.  A
change that alters the contract on purpose rewrites the goldens with
`PYTHONPATH=src python tests/regen_goldens.py` and names the change.
"""

import difflib

import pytest

import contract


def _check(name, text):
    want = (contract.GOLDENS / name).read_bytes().decode()  # line ends as stored
    diff = "".join(difflib.unified_diff(  # a CR shows as \r
        *(t.replace("\r", "\\r").splitlines(keepends=True) for t in (want, text)),
        f"goldens/{name}", "current"))
    assert text == want, f"contract changed:\n{diff}"


@pytest.mark.parametrize("name", [contract.report_name(c) for c in contract.REPORT_CONFIGS])
def test_verify_report_matches_golden(reports, name):
    _check(name, contract.report_text(reports[name]))


@pytest.mark.parametrize("name", sorted(contract.TABLES))
def test_verify_table_matches_golden(reports, name):
    _check(name, contract.table_text(reports[contract.TABLES[name]]))


@pytest.mark.parametrize("name", sorted(contract.CLI_EXAMPLES))
def test_cli_example_matches_golden(name):
    _check(name, contract.cli_text(contract.CLI_EXAMPLES[name]))


def test_flow_matches_golden():
    for name, text in contract.flow_texts().items():
        _check(name, text)


@pytest.mark.parametrize("name", sorted(contract.DEMO_SCRIPTS))
def test_demo_matches_golden(name):
    _check(name, contract.demo_text(contract.DEMO_SCRIPTS[name]))


def test_covering_counts_match_golden():
    _check(contract.COVERING_GOLDEN, contract.covering_text())


def test_every_golden_is_a_case():
    cases = ({contract.report_name(c) for c in contract.REPORT_CONFIGS}
             | set(contract.TABLES) | set(contract.CLI_EXAMPLES)
             | set(contract.FLOW_GOLDENS)
             | set(contract.DEMO_SCRIPTS) | {contract.COVERING_GOLDEN})
    assert {p.name for p in contract.GOLDENS.iterdir()} == cases


def test_only_seed_1_fails_and_only_c07(reports):
    # the integrator's known f-drift defect stays visible in the contract
    failed = {name: [c.check_id for c in r.checks if c.status == "fail"]
              for name, r in reports.items()}
    assert {name: ids for name, ids in failed.items() if ids} == {
        "verify-all-seed1.json": ["c07-flow-conservation"],
        "verify-all-seed1-skip-symbolic.json": ["c07-flow-conservation"],
    }
