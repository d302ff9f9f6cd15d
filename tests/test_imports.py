"""Every top-level import in the library is used by the module that makes
it, the command line loads no test-only dependency, and its exact
subcommands load neither numpy nor fractions."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "quintfib"

# perfbench/layers.py traces the flow layer by patching names on
# flowlab.integrate, and refuses to trace when one of them is missing there.
EXEMPT = {("flowlab/integrate.py", "s_gradient"),
          ("flowlab/integrate.py", "eval_s"),
          ("flowlab/integrate.py", "grad_V")}


def _unused_imports(tree):
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:  # names re-exported through __all__
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {e.value for e in node.value.elts}
    return {name: line for name, line in bound.items() if name not in used}


def test_no_unused_top_level_imports():
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        unused += [f"{rel}:{line} {name}"
                   for name, line in _unused_imports(tree).items()
                   if (rel, name) not in EXEMPT]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_detector_flags_an_unused_import():
    tree = ast.parse("import os\nfrom math import gcd, lcm\n"
                     "__all__ = ['lcm']\nprint(os.sep)\n")
    assert _unused_imports(tree) == {"gcd": 2}


def _env():
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}


def test_cli_imports_no_test_dependency():
    # numpy is the numeric layer's runtime dependency; scipy, sympy, mpmath
    # and hypothesis serve the tests alone
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, quintfib.cli; print(*sorted("
         "{m.partition('.')[0] for m in sys.modules}"
         " & {'scipy', 'sympy', 'mpmath', 'hypothesis'}))"],
        env=_env(), capture_output=True, text=True, check=True).stdout.split()
    assert loaded == []


EXACT_SUBCOMMANDS = [["graph"], ["monodromy", "--leg", "2,4,3"], ["census"],
                     ["euler"], ["spectral"], ["spectral", "--explain", "K3"],
                     ["toric"]]
COVERING_ARGV = ["covering", "--r1", "1.0", "--r2", "1.0"]

# in one fresh interpreter: import the CLI, run each exact subcommand and
# note whether numpy and fractions are loaded after it, then run
# `covering`, which imports the numeric layer on demand, and report its
# exit code and stdout
_LAZY_SCRIPT = """
import contextlib, io, json, sys
from quintfib import cli
def loaded():
    return [m for m in ("numpy", "fractions") if m in sys.modules]
seen = {"import": loaded()}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
    seen[" ".join(argv)] = loaded()
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(json.loads(sys.argv[2]))
print(json.dumps({"loaded": seen, "code": code, "stdout": out.getvalue(),
                  "numpy after covering": "numpy" in sys.modules}))
"""


def test_exact_subcommands_load_no_numpy():
    """`import quintfib.cli` and the exact subcommands run on Python ints
    alone, loading neither numpy nor fractions; `covering` still loads the
    numeric layer and prints its golden."""
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_SCRIPT, json.dumps(EXACT_SUBCOMMANDS),
         json.dumps(COVERING_ARGV)],
        env=_env(), capture_output=True, text=True, check=True)
    got = json.loads(proc.stdout)
    assert got["loaded"] == {"import": [],
                             **{" ".join(argv): [] for argv in EXACT_SUBCOMMANDS}}
    golden = (SRC.parents[1] / "tests" / "goldens" / "cli-covering.txt").read_text()
    assert (f"$ quintfib {' '.join(COVERING_ARGV)}\n# exit {got['code']}\n"
            f"{got['stdout']}") == golden
    assert got["numpy after covering"]
