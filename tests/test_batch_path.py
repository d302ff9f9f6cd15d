"""Every numeric consumer in the library stays on the batch path.

The one-row calls `flow`, `newton_project_to_quintic`,
`distance_to_quintic`, `eval_s`, `s_gradient` and `grad_V` are for single
points; a library function that calls one of them per item of a loop or a
comprehension should make one call of `flow_batch`, `distances_to_quintic`,
`_eval_s_rows`, `_s_gradient_rows` or `_field_rows` instead.

Seeded samplers draw in blocks: a draw from a generator (`rng.<method>(...)`
or `default_rng(...).<method>(...)`) inside a loop or a comprehension must
pass `size=`.  Each allowlist entry says why its function still draws one
value at a time, and an entry the detector no longer flags fails as stale.

A dimension is a rank: library code does not build a lattice basis only to
count it, by `len()` of a `kernel_basis`, `saturate` or `row_hermite_form`
call (or of a call of a library function that returns one) or by `.rank`
read off a `vanishing_filtration(...)` call; it calls `ratkernel.rank` or
`monodromy.vanishing_rank`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "quintfib"

ONE_ROW = {"flow", "newton_project_to_quintic", "distance_to_quintic", "eval_s",
           "s_gradient", "grad_V"}
LOOPS = (ast.For, ast.AsyncFor, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)

# (module, function): seeded draws of one value at a time in a loop
SCALAR_DRAWS_ALLOWED = {
    ("flowlab/points.py", "_x_infinity_rows"):
        "c07's starts: scalar draws keep the pinned stream, and the rounds "
        "chart and test their candidates as arrays; a block draw changes "
        "the stream, and so whether c07 meets the f-drift defect at a seed, "
        "so it waits for the DOP853 integrator (ROADMAP item 2)",
    ("sheafcoh.py", "random_relabeling"):
        "draws through choice and shuffle, which random.Random has without a "
        "block draw; test_random_relabeling_keeps_its_draw_stream pins the "
        "numpy stream",
    ("verify.py", "check_property_suite"):
        "c12 draws from random.Random, which has no block draw",
}

LATTICE_BASES = {"kernel_basis", "saturate", "row_hermite_form"}


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


def _is_seeded_draw(call):
    func = call.func
    if not isinstance(func, ast.Attribute):
        return False
    owner = func.value
    return ((isinstance(owner, ast.Name) and owner.id == "rng")
            or (isinstance(owner, ast.Call) and _called_name(owner) == "default_rng"))


def _scalar_draws_in_loops(tree):
    """(function, line, method) of every seeded draw without `size=` inside
    a loop or a comprehension; function is the innermost enclosing def."""
    found = set()

    def visit(node, function, in_loop):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function, in_loop = node.name, False
        in_loop = in_loop or isinstance(node, (*LOOPS, ast.While))
        if (in_loop and isinstance(node, ast.Call) and _is_seeded_draw(node)
                and not any(k.arg == "size" for k in node.keywords)):
            found.add((function, node.lineno, node.func.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, function, in_loop)

    visit(tree, None, False)
    return sorted(found)


def test_seeded_samplers_draw_in_blocks():
    hits = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        for function, line, method in _scalar_draws_in_loops(tree):
            hits.setdefault((rel, function), []).append(f"{rel}:{line} {method}")
    stale = sorted(set(SCALAR_DRAWS_ALLOWED) - set(hits))
    assert not stale, f"allowlisted functions that draw in blocks now: {stale}"
    new = [hit for key in sorted(set(hits) - set(SCALAR_DRAWS_ALLOWED))
           for hit in hits[key]]
    assert not new, "seeded draws of one value in loops:\n" + "\n".join(new)


def test_detector_flags_scalar_draws_in_loops():
    tree = ast.parse(
        "def f(rng, n):\n"
        "    for _ in range(n):\n"
        "        a = rng.uniform(0.0, 1.0)\n"
        "    while n:\n"
        "        b = rng.exponential(1.0, size=n)\n"
        "        n = rng.integers(2)\n"
        "    c = [rng.normal() for _ in range(n)]\n"
        "    d = {k: default_rng(k).random() for k in range(n)}\n"
        "    e = rng.uniform(0.0, 1.0, 5)\n"
        "    return [other.uniform(0.0, 1.0) for _ in range(n)]\n"
        "\n"
        "def g(rng):\n"
        "    def draw():\n"
        "        return rng.permutation(5)\n"
        "    return [draw() for _ in range(3)]\n")
    assert _scalar_draws_in_loops(tree) == [
        ("f", 3, "uniform"), ("f", 6, "integers"), ("f", 7, "normal"),
        ("f", 8, "random")]


def _basis_builders(trees):
    """LATTICE_BASES and every function of the trees that returns a call of
    one of them, as `dual_invariants` returned its `kernel_basis`."""
    builders = set(LATTICE_BASES)
    defs = [node for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    while True:
        more = {d.name for d in defs if d.name not in builders
                and any(isinstance(r, ast.Return) and isinstance(r.value, ast.Call)
                        and _called_name(r.value) in builders for r in ast.walk(d))}
        if not more:
            return builders
        builders |= more


def _counted_bases(tree, builders):
    """(function, line, what) of every `len()` of a call of one of the
    builders and every `.rank` of a `vanishing_filtration` call; function
    is the innermost enclosing def."""
    found = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Call) and _called_name(node) == "len"
                and len(node.args) == 1 and isinstance(node.args[0], ast.Call)
                and _called_name(node.args[0]) in builders):
            found.add((function, node.lineno, f"len({_called_name(node.args[0])})"))
        if (isinstance(node, ast.Attribute) and node.attr == "rank"
                and isinstance(node.value, ast.Call)
                and _called_name(node.value) == "vanishing_filtration"):
            found.add((function, node.lineno, "vanishing_filtration.rank"))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return sorted(found)


def _library_trees():
    return {path.relative_to(SRC).as_posix():
            ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.rglob("*.py"))}


def test_dimensions_are_ranks():
    trees = _library_trees()
    builders = _basis_builders(trees.values())
    hits = [f"{rel}:{line} {function}: {what}" for rel, tree in trees.items()
            for function, line, what in _counted_bases(tree, builders)]
    assert not hits, "lattice bases built only to be counted:\n" + "\n".join(hits)


def test_detector_flags_counted_bases():
    tree = ast.parse(
        "def dual_invariants(ops):\n"
        "    return ratkernel.kernel_basis(stack(ops))\n"
        "\n"
        "def ic_chain_dims(atlas):\n"
        "    c2 = sum(len(monodromy.dual_invariants([op])) for op in legs)\n"
        "    c3 = sum(len(dual_invariants(ops)) for ops in vertices)\n"
        "    return len(saturate(vecs)) + len(rk.row_hermite_form(rows))\n"
        "\n"
        "def check_vertex_battery(cfg, exact):\n"
        "    got = monodromy.vanishing_filtration(ops).rank\n"
        "    w = vanishing_filtration(ops)\n"
        "    gens = ratkernel.kernel_basis(rows)\n"
        "    return w.rank, len(gens), len(w.basis), vanishing_rank(ops)\n")
    builders = _basis_builders([tree])
    assert builders == LATTICE_BASES | {"dual_invariants"}
    assert _counted_bases(tree, builders) == [
        ("check_vertex_battery", 10, "vanishing_filtration.rank"),
        ("ic_chain_dims", 5, "len(dual_invariants)"),
        ("ic_chain_dims", 6, "len(dual_invariants)"),
        ("ic_chain_dims", 7, "len(row_hermite_form)"),
        ("ic_chain_dims", 7, "len(saturate)")]
