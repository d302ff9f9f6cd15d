"""Every top-level import in the library is used by the module that makes
it, and the command line loads no test-only dependency."""

import ast
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


def test_cli_imports_no_test_dependency():
    # numpy is the only runtime dependency; scipy, sympy, mpmath and
    # hypothesis serve the tests alone
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, quintfib.cli; print(*sorted("
         "{m.partition('.')[0] for m in sys.modules}"
         " & {'scipy', 'sympy', 'mpmath', 'hypothesis'}))"],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    assert loaded == []
