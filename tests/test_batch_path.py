"""Every numeric consumer in the library stays on the batch path.

The one-row calls `flow`, `newton_project_to_quintic`,
`distance_to_quintic`, `eval_s`, `s_gradient` and `grad_V` are for single
points; a library function that calls one of them per item of a loop or a
comprehension should make one call of `flow_batch`, `distances_to_quintic`,
`_eval_s_rows`, `_s_gradient_rows` or `_field_rows` instead.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "quintfib"

ONE_ROW = {"flow", "newton_project_to_quintic", "distance_to_quintic", "eval_s",
           "s_gradient", "grad_V"}
LOOPS = (ast.For, ast.AsyncFor, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


def _called_name(call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _one_row_calls_in_loops(tree):
    """(line, name) of every one-row call inside a loop or comprehension."""
    found = set()
    for loop in ast.walk(tree):
        if isinstance(loop, LOOPS):
            for node in ast.walk(loop):
                if isinstance(node, ast.Call) and _called_name(node) in ONE_ROW:
                    found.add((node.lineno, _called_name(node)))
    return sorted(found)


def test_no_one_row_calls_in_library_loops():
    hits = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        hits += [f"{rel}:{line} {name}" for line, name in _one_row_calls_in_loops(tree)]
    assert not hits, "one-row calls in loops:\n" + "\n".join(hits)


def test_detector_flags_loops_and_comprehensions():
    tree = ast.parse(
        "def f(ps):\n"
        "    for p in ps:\n"
        "        fl.flow(p, 0.1)\n"
        "    d = [distance_to_quintic(p, 10.0) for p in ps]\n"
        "    e = fl.flow_batch(ps, 0.1)\n"
        "    s = {p: abs(fl.eval_s(p)) for p in ps}\n"
        "    t = _eval_s_rows(rows)\n"
        "    g = [grad_V(p, cfg) for p in ps] + [s_gradient(p) for p in ps]\n"
        "    v = _field_rows(rows, cfg)\n"
        "    return newton_project_to_quintic(ps[0], 10.0)\n")
    assert _one_row_calls_in_loops(tree) == [
        (3, "flow"), (4, "distance_to_quintic"), (6, "eval_s"), (8, "grad_V"),
        (8, "s_gradient")]
