"""The library holds what the program runs.

A top-level function (public or private) or public class of the library,
and a public method or property of a library class, must be referred to
from outside its own body by a library module, the CLI, a demo or a file
under perfbench/ (whose tracer names its targets by string); a name that
only tests reach is a dead helper, and a private one belongs in the tests
that use it.  A defaulted parameter of a library
function, and a defaulted field of a library dataclass, must be passed by
some call site in src/, demos/ or perfbench/: by keyword, by position or
through `**`, in a call by the function's or the class's name; and when
such calls exist, at least one of them must omit it.  A default nothing
overrides is a constant, and a default no program call omits is a path no
program runs.  Each allowlist entry says which test keeps it, and an entry
the detectors no longer flag fails as stale.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "quintfib"

# (module, name): names only tests reach
NAMES_ALLOWED = {
    ("flowlab/harveylawson.py", "hl_map"):
        "test oracle: test_hl_fiber_samples_satisfy_constraints checks "
        "sample_hl_fiber's points against it; test_hl_map_values asserts it",
}

# (module, function or dataclass, parameter or field): defaults only tests
# override
DEFAULTS_ALLOWED = {
    ("cli.py", "main", "argv"):
        "test seam: test_cli drives the CLI in-process",
}


def _library():
    return {p.relative_to(SRC).as_posix(): ast.parse(p.read_text(), filename=str(p))
            for p in sorted(SRC.rglob("*.py"))}


def _programs():
    """Demos and the benchmark: callers outside the library."""
    paths = (sorted((ROOT / "demos").glob("*.py"))
             + sorted((ROOT / "perfbench").glob("*.py")))
    return [ast.parse(p.read_text(), filename=str(p)) for p in paths]


def _references(node, strings):
    """Names a subtree refers to: loaded names, attributes and, when
    `strings`, string constants."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
            yield n.value


def _definitions(tree):
    """(name, node) of each top-level function and public top-level class,
    and ("Class.method", node) of each public method or property of a
    top-level class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.FunctionDef) or not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                    yield f"{node.name}.{m.name}", m


def unreached_names(library, programs):
    """(module, name) of each top-level function and public top-level
    class, and (module, "Class.method") of each public method or property,
    that no tree refers to outside the definition's own body.  A method counts as
    reached by any reference to its bare name."""
    counts = {}
    for tree in library.values():
        for name in _references(tree, strings=False):
            counts[name] = counts.get(name, 0) + 1
    for tree in programs:
        for name in _references(tree, strings=True):
            counts[name] = counts.get(name, 0) + 1
    found = []
    for rel, tree in library.items():
        for name, node in _definitions(tree):
            own = sum(n == node.name for n in _references(node, strings=False))
            if counts.get(node.name, 0) == own:
                found.append((rel, name))
    return sorted(found)


def _functions(tree):
    """(function node, offset of its first positional argument in a call)."""
    for parent in ast.walk(tree):
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in node.decorator_list)
                yield node, int(isinstance(parent, ast.ClassDef) and not static)


def _defaulted(fn, offset):
    """(parameter, positional index in a call or None) of each default."""
    pos = fn.args.posonlyargs + fn.args.args
    first = len(pos) - len(fn.args.defaults)
    out = [(a.arg, i - offset) for i, a in enumerate(pos) if i >= first]
    out += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            if d is not None]
    return out


def _is_dataclass(cls):
    for d in cls.decorator_list:
        f = d.func if isinstance(d, ast.Call) else d
        if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "dataclass":
            return True
    return False


def _signatures(tree):
    """(name a call uses, [(parameter, positional index in a call or None)])
    of each function's defaulted parameters and each dataclass's defaulted
    fields."""
    for fn, offset in _functions(tree):
        yield fn.name, _defaulted(fn, offset)
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls):
            fields = [s for s in cls.body
                      if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
            yield cls.name, [(s.target.id, i) for i, s in enumerate(fields)
                             if s.value is not None]


def _passes(call, param, index):
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg in (None, param) for k in call.keywords):
        return True
    return index is not None and len(call.args) > index


def _default_passes(library, programs):
    """((module, function or dataclass, parameter or field), [whether it is
    passed] for each call, by the function's or the class's name, in any
    tree) of each default."""
    calls = {}
    for tree in [*library.values(), *programs]:
        for n in ast.walk(tree):
            if isinstance(n, ast.Call):
                f = n.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(n)
    for rel, tree in library.items():
        for name, params in _signatures(tree):
            for param, index in params:
                yield ((rel, name, param),
                       [_passes(c, param, index) for c in calls.get(name, [])])


def unset_defaults(library, programs):
    """Each default that no call passes."""
    return sorted(key for key, passed in _default_passes(library, programs)
                  if not any(passed))


def unomitted_defaults(library, programs):
    """Each default that some call passes and no call omits."""
    return sorted(key for key, passed in _default_passes(library, programs)
                  if passed and all(passed))


def test_every_public_name_is_reached():
    found = set(unreached_names(_library(), _programs()))
    stale = sorted(set(NAMES_ALLOWED) - found)
    assert not stale, f"allowlisted names that are reached now: {stale}"
    dead = sorted(found - set(NAMES_ALLOWED))
    assert not dead, "names no program reaches:\n" + "\n".join(
        f"{rel} {name}" for rel, name in dead)


def test_every_default_is_overridden_somewhere():
    found = set(unset_defaults(_library(), _programs()))
    stale = sorted(set(DEFAULTS_ALLOWED) - found)
    assert not stale, f"allowlisted defaults that a program passes now: {stale}"
    unset = sorted(found - set(DEFAULTS_ALLOWED))
    assert not unset, "defaults no program overrides:\n" + "\n".join(
        f"{rel} {fn}({param})" for rel, fn, param in unset)


def test_every_default_is_omitted_somewhere():
    found = unomitted_defaults(_library(), _programs())
    assert not found, "defaults every program call passes:\n" + "\n".join(
        f"{rel} {fn}({param})" for rel, fn, param in found)


def test_detectors_flag_dead_names_and_unset_defaults():
    library = {"lib.py": ast.parse(
        "def used(x, k=1, *, w=2):\n"
        "    return x\n"
        "def recursive(n, step=1):\n"
        "    return recursive(n - step) if n else 0\n"
        "def traced():\n"
        "    pass\n"
        "def _private(a=0):\n"
        "    pass\n"
        "def _helper():\n"
        "    return 0\n"
        "def _recursive_helper(n):\n"
        "    return _recursive_helper(n - 1)\n"
        "class _Kind:\n"
        "    pass\n"
        "class Box:\n"
        "    def get(self, key, default=None):\n"
        "        return Box()\n"
        "    @staticmethod\n"
        "    def make(size=3):\n"
        "        pass\n"
        "    def again(self):\n"
        "        return self.again()\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 3\n"
        "    def _hidden(self):\n"
        "        return _helper()\n")}
    programs = [ast.parse(
        "used(1, 2)\n"
        "lib.recursive(3)\n"
        "Box().get('a', 0)\n"
        "Box.make(**opts)\n"
        "print(Box().size)\n"
        "TARGETS = [(lib, 'traced')]\n")]
    assert unreached_names(library, programs) == [
        ("lib.py", "Box.again"), ("lib.py", "_private"),
        ("lib.py", "_recursive_helper")]
    assert unreached_names(library, []) == [
        ("lib.py", "Box"), ("lib.py", "Box.again"), ("lib.py", "Box.get"),
        ("lib.py", "Box.make"), ("lib.py", "Box.size"), ("lib.py", "_private"),
        ("lib.py", "_recursive_helper"), ("lib.py", "recursive"),
        ("lib.py", "traced"), ("lib.py", "used")]
    assert unset_defaults(library, programs) == [
        ("lib.py", "_private", "a"), ("lib.py", "recursive", "step"),
        ("lib.py", "used", "w")]
    assert unomitted_defaults(library, programs) == [
        ("lib.py", "get", "default"), ("lib.py", "make", "size"),
        ("lib.py", "used", "k")]
    assert unomitted_defaults(library, []) == []


def test_detector_flags_unset_dataclass_fields():
    library = {"lib.py": ast.parse(
        "@dataclass(frozen=True)\n"
        "class Cfg:\n"
        "    psi: float\n"
        "    tol: float = 1.0\n"
        "    guard: float = 2.0\n"
        "    metric: str = 'flat'\n"
        "    def scaled(self, by=2):\n"
        "        return Cfg(self.psi * by)\n"
        "@dataclasses.dataclass\n"
        "class Report:\n"
        "    rows: list = field(default_factory=list)\n"
        "class Plain:\n"
        "    size: int = 0\n")}
    programs = [ast.parse(
        "Cfg(1.0, 0.5).scaled(3)\n"
        "lib.Cfg(psi=2.0, metric='fs')\n"
        "Report(**parts)\n")]
    assert unset_defaults(library, programs) == [("lib.py", "Cfg", "guard")]
    assert unset_defaults(library, []) == [
        ("lib.py", "Cfg", "guard"), ("lib.py", "Cfg", "metric"),
        ("lib.py", "Cfg", "tol"), ("lib.py", "Report", "rows"),
        ("lib.py", "scaled", "by")]
