"""The behaviour contract as text: what the goldens under tests/goldens/ hold.

The contract is the `verify-all` JSON report minus its `runtime_s` fields,
at seeds 0-3 in each of the three modes (all checks, `--skip numeric`,
`--skip symbolic`), and the stdout of the README's command-line examples.
Each case is one text file under tests/goldens/; `tests/test_contract.py`
compares against them, and `python tests/regen_goldens.py` rewrites them.
"""

import contextlib
import io
import json
from pathlib import Path

from quintfib import cli, verify

GOLDENS = Path(__file__).resolve().parent / "goldens"

SEEDS = (0, 1, 2, 3)
SKIPS = ("", "numeric", "symbolic")
REPORT_CONFIGS = [verify.VerifyConfig(seed=seed, skip=skip)
                  for seed in SEEDS for skip in SKIPS]

# the README's command-line examples, by golden file name
CLI_EXAMPLES = {
    "cli-graph.json": ["graph", "--format", "json"],
    "cli-monodromy.txt": ["monodromy", "--leg", "2,4,3", "--basepoint", "5,4"],
    "cli-census.txt": ["census", "--fibration", "expected"],
    "cli-euler.txt": ["euler", "--fibration", "expected"],
    "cli-spectral-quintic.txt": ["spectral", "--fibration", "quintic"],
    "cli-spectral-explain-K3.txt": ["spectral", "--explain", "K3"],
    "cli-toric.json": ["toric", "--report", "json"],
    "cli-pairing.txt": ["pairing", "--loop", "1,2,3", "--form", "3,2"],
    "cli-covering.txt": ["covering", "--r1", "1.0", "--r2", "1.0"],
}


def report_name(config):
    mode = f"-skip-{config.skip}" if config.skip else ""
    return f"verify-all-seed{config.seed}{mode}.json"


def report_text(report):
    """The report's JSON as `verify-all --format json` writes it, without
    the `runtime_s` fields."""
    payload = report.as_dict()
    for row in payload["checks"]:
        del row["runtime_s"]
    return json.dumps(payload, indent=2) + "\n"


def cli_text(argv):
    """Exit code and stdout of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return f"$ quintfib {' '.join(argv)}\n# exit {code}\n{out.getvalue()}"


def build_reports():
    """{golden file name: report} for every report configuration."""
    return {report_name(cfg): verify.verify_all(cfg) for cfg in REPORT_CONFIGS}


def texts(reports):
    """{golden file name: text} for every case, from the built reports."""
    out = {name: report_text(r) for name, r in reports.items()}
    out.update((name, cli_text(argv)) for name, argv in CLI_EXAMPLES.items())
    return out
