"""Every top-level import in the library is used by the module that makes
it, the command line loads no test-only dependency, importing it loads no
library module, and its exact subcommands load only the modules they run
and neither numpy nor fractions."""

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


# each exact subcommand with the library modules it loads, beyond the
# package and the CLI
_SHEAFCOH = {"basecomplex", "monodromy", "ratkernel", "sheafcoh"}
EXACT_SUBCOMMANDS = [
    (["graph"], {"basecomplex"}),
    (["monodromy", "--leg", "2,4,3"], {"basecomplex", "monodromy", "ratkernel"}),
    (["census"], {"basecomplex", "fibercensus"}),
    (["euler"], {"basecomplex", "fibercensus"}),
    (["spectral"], _SHEAFCOH),
    (["spectral", "--explain", "K3"], _SHEAFCOH),
    (["toric"], {"ratkernel", "toriccrepant"}),
    (["verify-all", "--skip", "numeric"],
     _SHEAFCOH | {"fibercensus", "toriccrepant", "verify"}),
]
COVERING_ARGV = ["covering", "--r1", "1.0", "--r2", "1.0"]

# in a fresh interpreter: import the CLI and run one subcommand, and report
# the library modules and which of numpy and fractions are loaded after the
# import and after the run, with the exit code and stdout
_LAZY_SCRIPT = """
import contextlib, io, json, sys
def loaded():
    return {"library": sorted(m.partition(".")[2] for m in sys.modules
                              if m.startswith("quintfib.") and m != "quintfib.cli"),
            "numeric": [m for m in ("numpy", "fractions") if m in sys.modules]}
from quintfib import cli
after_import = loaded()
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps({"import": after_import, "run": loaded(), "code": code,
                  "stdout": out.getvalue()}))
"""


def test_exact_subcommands_load_no_numpy():
    """`import quintfib.cli` loads no library module, and each exact
    subcommand and `verify-all --skip numeric` load only the modules they
    run, on Python ints alone: neither numpy nor fractions; `covering`
    still loads the numeric layer and prints its golden."""
    argvs = [argv for argv, _ in EXACT_SUBCOMMANDS] + [COVERING_ARGV]
    procs = [subprocess.Popen([sys.executable, "-c", _LAZY_SCRIPT, json.dumps(argv)],
                              env=_env(), stdout=subprocess.PIPE, text=True)
             for argv in argvs]  # one interpreter each, run side by side
    outs = [proc.communicate()[0] for proc in procs]
    assert [proc.returncode for proc in procs] == [0] * len(procs)
    got = {" ".join(argv): json.loads(out) for argv, out in zip(argvs, outs)}
    nothing = {"library": [], "numeric": []}
    assert {name: run["import"] for name, run in got.items()} == dict.fromkeys(got, nothing)
    for argv, modules in EXACT_SUBCOMMANDS:
        run = got[" ".join(argv)]
        assert (run["code"], run["run"]) == (
            0, {"library": sorted(modules), "numeric": []}), argv
    covering = got[" ".join(COVERING_ARGV)]
    golden = (SRC.parents[1] / "tests" / "goldens" / "cli-covering.txt").read_text()
    assert (f"$ quintfib {' '.join(COVERING_ARGV)}\n# exit {covering['code']}\n"
            f"{covering['stdout']}") == golden
    assert "numpy" in covering["run"]["numeric"]
