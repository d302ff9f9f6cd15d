"""The behaviour contract as text: what the goldens under tests/goldens/ hold.

The contract is the `verify-all` JSON report minus its `runtime_s` fields,
at seeds 0-3 in each of the three modes (all checks, `--skip numeric`,
`--skip symbolic`), the human `verify-all` table at seed 0 without its
timing column, the stdout of the README's command-line examples in both
output forms, the stdout and the CSV of a small seeded `flow` run, the
stdout of the demos, and the covering counts of a seeded uniform sample of
face points.  Each case is one text file
under tests/goldens/; `tests/test_contract.py` compares against them byte
for byte, line ends included, and `python tests/regen_goldens.py` rewrites
them.
"""

import contextlib
import io
import json
import re
import runpy
import tempfile
import warnings
from pathlib import Path

import numpy as np

from quintfib import cli, flowlab, verify

GOLDENS = Path(__file__).resolve().parent / "goldens"
DEMOS = Path(__file__).resolve().parent.parent / "demos"

SEEDS = (0, 1, 2, 3)
SKIPS = ("", "numeric", "symbolic")
REPORT_CONFIGS = [verify.VerifyConfig(seed=seed, skip=skip)
                  for seed in SEEDS for skip in SKIPS]

# the human verify-all table of this report, by golden file name
TABLES = {"verify-all-seed0.txt": "verify-all-seed0.json"}

# the README's command-line examples, each in both output forms, by golden
# file name
CLI_EXAMPLES = {
    "cli-graph.json": ["graph", "--format", "json"],
    "cli-graph.txt": ["graph"],
    "cli-monodromy.txt": ["monodromy", "--leg", "2,4,3", "--basepoint", "5,4"],
    "cli-monodromy.json": ["monodromy", "--leg", "2,4,3", "--basepoint", "5,4",
                           "--format", "json"],
    "cli-census.txt": ["census", "--fibration", "expected"],
    "cli-census.json": ["census", "--fibration", "expected", "--format", "json"],
    "cli-euler.txt": ["euler", "--fibration", "expected"],
    "cli-euler.json": ["euler", "--fibration", "expected", "--format", "json"],
    "cli-spectral-quintic.txt": ["spectral", "--fibration", "quintic"],
    "cli-spectral-quintic.json": ["spectral", "--fibration", "quintic",
                                  "--format", "json"],
    "cli-spectral-mirror.txt": ["spectral", "--fibration", "mirror"],
    "cli-spectral-mirror.json": ["spectral", "--fibration", "mirror",
                                 "--format", "json"],
    "cli-spectral-explain-K3.txt": ["spectral", "--explain", "K3"],
    "cli-spectral-explain-K3.json": ["spectral", "--explain", "K3",
                                     "--format", "json"],
    "cli-toric.json": ["toric", "--report", "json"],
    "cli-toric.txt": ["toric"],
    "cli-pairing.txt": ["pairing", "--loop", "1,2,3", "--form", "3,2"],
    "cli-pairing.json": ["pairing", "--loop", "1,2,3", "--form", "3,2",
                         "--format", "json"],
    "cli-covering.txt": ["covering", "--r1", "1.0", "--r2", "1.0"],
    "cli-covering.json": ["covering", "--r1", "1.0", "--r2", "1.0",
                          "--format", "json"],
}

# a small seeded `flow` run, which writes its cloud to --out; its stdout
# and its CSV are one golden file each
FLOW_ARGV = ["flow", "--samples", "16", "--seed", "0", "--out", "cloud.csv"]
FLOW_GOLDENS = ("cli-flow.txt", "cli-flow.csv")

# the demos, by golden file name
DEMO_SCRIPTS = {f"demo-{p.stem}.txt": p for p in sorted(DEMOS.glob("*.py"))}


# covering_count over a seeded uniform sample of face points, at c10's two
# tolerances and a coarse one
COVERING_GOLDEN = "covering-counts.txt"
COVERING_TOLS = (1e-9, 5e-10, 1e-6)


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


def table_text(report):
    """The human `verify-all` table without its `(...s)` timing column."""
    return re.sub(r"  \(\d+\.\d\ds\)$", "", report.render_table(), flags=re.M) + "\n"


def cli_text(argv):
    """Exit code and stdout of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return f"$ quintfib {' '.join(argv)}\n# exit {code}\n{out.getvalue()}"


def flow_texts():
    """{golden file name: text} of the `flow` run: its exit code and stdout,
    and the CSV it writes, with --out pointed into a scratch directory.  The
    CSV is read as its bytes, so its CRLF line ends are part of the text."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / FLOW_ARGV[-1]
        text = cli_text(FLOW_ARGV[:-1] + [str(out)]).replace(str(out), FLOW_ARGV[-1])
        return dict(zip(FLOW_GOLDENS, (text, out.read_bytes().decode())))


def demo_text(path):
    """Stdout of one demo, run in process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return out.getvalue()


def covering_text():
    """One line per point of 400 seeded uniform points of [0.6, 1.3]^2: r1, r2
    and its covering count at each of COVERING_TOLS."""
    points = np.random.default_rng(2026).uniform(0.6, 1.3, (400, 2))
    lines = ["# r1 r2 count at tol " + " ".join(map(str, COVERING_TOLS))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the points outside warn
        for r1, r2 in points.tolist():
            counts = [flowlab.covering_count(r1, r2, tol) for tol in COVERING_TOLS]
            lines.append(" ".join(map(repr, [r1, r2, *counts])))
    return "\n".join(lines) + "\n"


def build_reports():
    """{golden file name: report} for every report configuration."""
    return {report_name(cfg): verify.verify_all(cfg) for cfg in REPORT_CONFIGS}


def texts(reports):
    """{golden file name: text} for every case, from the built reports."""
    out = {name: report_text(r) for name, r in reports.items()}
    out.update((name, table_text(reports[src])) for name, src in TABLES.items())
    out.update((name, cli_text(argv)) for name, argv in CLI_EXAMPLES.items())
    out.update(flow_texts())
    out.update((name, demo_text(path)) for name, path in DEMO_SCRIPTS.items())
    out[COVERING_GOLDEN] = covering_text()
    return out
