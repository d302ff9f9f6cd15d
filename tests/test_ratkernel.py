import ast
import hashlib
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from quintfib import ratkernel as rk


def _eye(n):
    """The n x n identity as a numpy object array of Python ints."""
    return np.eye(n, dtype=int).astype(object)


def _zeros(rows, cols):
    return np.zeros((rows, cols), dtype=object)


def test_rank_identity():
    assert rk.rank(_eye(3)) == 3
    assert rk.rank(((1, 0, 0), (0, 1, 0), (0, 0, 1))) == 3


def test_rank_zero_matrix():
    assert rk.rank(_zeros(4, 7)) == 0


def test_empty_matrices_have_rank_zero_and_a_full_kernel():
    # an empty list or tuple is the empty sparse matrix; each used to be
    # refused as a dense matrix with no rows
    assert rk.rank([]) == 0
    assert rk.rank(()) == 0
    assert rk.rank(_zeros(0, 3)) == 0
    assert rk.rank(_zeros(0, 0)) == 0
    assert rk.kernel_basis(_zeros(0, 3)) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert rk.kernel_basis(_zeros(0, 0)) == []


def test_rank_transpose_invariance():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = rk.imat(rng.integers(-6, 7, size=(rng.integers(1, 7),
                                              rng.integers(1, 7))))
        assert rk.rank(m) == rk.rank(m.T.copy())


def test_kernel_of_identity_is_empty():
    assert rk.kernel_basis(_eye(4)) == []


def test_kernel_of_all_ones_row():
    basis = rk.kernel_basis(rk.imat([[1, 1, 1, 1, 1]]))
    assert len(basis) == 4
    for v in basis:
        assert sum(v) == 0


def test_rank_nullity():
    rng = np.random.default_rng(5)
    for _ in range(25):
        rows, cols = rng.integers(1, 8, 2)
        m = rk.imat(rng.integers(-4, 5, size=(rows, cols)))
        assert rk.rank(m) + len(rk.kernel_basis(m)) == cols


def test_kernel_vectors_annihilate():
    rng = np.random.default_rng(6)
    m = rk.imat(rng.integers(-5, 6, size=(4, 7)))
    for v in rk.kernel_basis(m):
        prod = m @ v
        assert all(x == 0 for x in prod)


def test_inverse_of_small_matrices():
    m = rk.imat([[2, 1], [1, 1]])
    inv = rk.inverse(m)
    assert inv == ((1, -1), (-1, 2))
    assert {type(x) for row in inv for x in row} == {int}
    for bad in ([[1, 2], [2, 4]], [[2, 0], [0, 1]]):  # singular, |det| = 2
        with pytest.raises(ValueError, match="not unimodular"):
            rk.inverse(rk.imat(bad))


def test_det_small_cases():
    assert rk.det(rk.imat([[1, 2], [3, 4]])) == -2
    d = rk.det(_eye(3))
    assert d == 1 and type(d) is int
    assert rk.det(rk.imat([[1, 2], [2, 4]])) == 0


def test_saturate_primitivization():
    assert [list(v) for v in rk.saturate([[5, 0, 0]])] == [[1, 0, 0]]


def test_saturate_empty():
    assert rk.saturate([]) == []


def test_saturate_shear_columns():
    # columns of (standard leg shear - identity)
    assert [list(v) for v in rk.saturate([[-5, 0, 0]])] == [[1, 0, 0]]


def test_saturate_idempotent_and_primitive():
    rng = np.random.default_rng(9)
    for _ in range(40):
        k = int(rng.integers(1, 4))
        vecs = [[int(x) for x in rng.integers(-9, 10, 4)] for _ in range(k)]
        sat = rk.saturate(vecs)
        assert all(rk.is_primitive(v) for v in sat)
        again = rk.saturate([list(v) for v in sat])
        assert [list(v) for v in sat] == [list(v) for v in again]


def test_saturate_preserves_rational_span():
    vecs = [[2, 4, 6], [0, 10, 0]]
    sat = rk.saturate(vecs)
    assert len(sat) == 2
    stacked = rk.imat([list(v) for v in sat] + vecs)
    assert rk.rank(stacked) == 2


def test_smith_normal_form_reconstruction():
    rng = np.random.default_rng(13)
    for _ in range(20):
        rows, cols = rng.integers(1, 6, 2)
        a = rk.imat(rng.integers(-7, 8, size=(rows, cols)))
        d, l, rinv = rk.smith_normal_form(a)
        assert abs(rk.det(l)) == 1
        assert abs(rk.det(rinv)) == 1
        # D R^-1 = L A
        lhs = np.asarray(d @ rinv)
        rhs = np.asarray(l @ a)
        assert (lhs == rhs).all()
        divs = [int(d[i, i]) for i in range(min(rows, cols)) if d[i, i] != 0]
        for a_, b_ in zip(divs, divs[1:]):
            assert b_ % a_ == 0


# sha256 of repr((D, L, Rinv)) as lists, and the last diagonal entry: any
# change to smith_normal_form's pivots, quotients or operation order shows
SMITH_GOLDEN = {
    "4x4": ("5fd440d496758bdcc5356733bf93aa040b6a6b63cc94631bc3fde35779b5ccc1", 959),
    "8x8": ("d8646775f094a06a84e9d427fa80a1cef9b452291c0e26837aa4ba6bcbcae155", 179341314),
    "12x12": ("df9fcc805191df8eaed8b4ce57bb0aa23a391d9deafd70bba8fdd19a9581243f",
              6038135853721),
    "16x16": ("310f7e4741568e21b7f68c752a0979acf7099e45babc092a98f1447fd962783b",
              1636675457895687426),
    "20x20": ("1ef27167a46e76cd44ebddc5f859da487d29b4100d413fb434577512e5cef63c",
              36205403143681986233103),
    "20x20 singular": ("1d174896d8514410d2e76051fabde417ca4849dc06aa2024e5dcbbe3f5c553c3", 0),
    "16x20": ("1ce4828eb7200f96204dfa11f5c75c4f6499be3a220e3fc9434f69cdf6f84aba", 1),
}


def _smith_probes():
    """Seeded dense +-9 matrices of the benchmark's shapes: square 4 to 20,
    a 20x20 with a repeated row and a wide 16x20."""
    rng = np.random.default_rng(27)
    out = {f"{n}x{n}": rk.imat(rng.integers(-9, 10, (n, n)).tolist())
           for n in (4, 8, 12, 16, 20)}
    singular = rk.imat(rng.integers(-9, 10, (20, 20)).tolist())
    singular[19] = singular[0]
    out["20x20 singular"] = singular
    out["16x20"] = rk.imat(rng.integers(-9, 10, (16, 20)).tolist())
    return out


def test_smith_normal_form_is_pinned():
    """The Smith triple is pinned entry for entry on dense matrices, and it
    is three 2-d object arrays of Python ints, which the benchmark indexes
    (d[i, i]) and multiplies (left @ m)."""
    probes = _smith_probes()
    assert list(probes) == list(SMITH_GOLDEN)
    for name, m in probes.items():
        d, left, rinv = rk.smith_normal_form(m)
        rows, cols = m.shape
        assert (d.shape, left.shape, rinv.shape) == ((rows, cols), (rows, rows), (cols, cols))
        assert all(a.dtype == object for a in (d, left, rinv))
        assert all(type(x) is int for a in (d, left, rinv) for x in a.flat)
        text = repr((d.tolist(), left.tolist(), rinv.tolist()))
        got = hashlib.sha256(text.encode()).hexdigest(), d[min(m.shape) - 1, min(m.shape) - 1]
        assert got == SMITH_GOLDEN[name], name
        assert ((left @ m) == (d @ rinv)).all()


def test_imat_is_an_object_array_with_assignable_rows():
    """imat returns the array the benchmark builds on: 2-d, object dtype,
    Python int entries, rows that can be assigned, and .shape and .dot."""
    m = rk.imat(np.arange(-4, 8).reshape(3, 4).tolist())
    assert m.ndim == 2 and m.shape == (3, 4) and m.dtype == object
    assert {type(x) for x in m.flat} == {int}
    m[2] = m[0]
    assert m.tolist() == [[-4, -3, -2, -1], [0, 1, 2, 3], [-4, -3, -2, -1]]
    assert m.dot((1, 0, 0, 1)).tolist() == [-5, 3, -5]


def test_matmul3_is_the_matrix_product():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b = (rng.integers(-9, 10, (3, 3)).astype(object) for _ in range(2))
        got = rk.matmul3(tuple(map(tuple, a.tolist())), b.tolist())
        assert got == tuple(map(tuple, (a @ b).tolist()))
        assert all(type(x) is int for row in got for x in row)


def test_tuple_matrices_are_read_as_rows():
    """The exact layers' tuple matrices work in every routine, and the
    results are int tuples; an empty or ragged matrix is refused."""
    m = ((2, 1, 0), (1, 1, 0), (0, 0, 1))
    assert rk.rank(m) == 3 and rk.det(m) == 1
    assert rk.inverse(m) == ((1, -1, 0), (-1, 2, 0), (0, 0, 1))
    assert rk.kernel_basis(((1, 1, 1),)) == [(1, 0, -1), (0, 1, -1)]
    assert rk.saturate([(2, 4, 6)]) == [(1, 2, 3)]
    for bad in ((), ((1, 2), (3,))):
        with pytest.raises(ValueError, match="expected a matrix"):
            rk.det(bad)


def test_sublattice_index():
    assert rk.sublattice_index([[2, 0], [0, 3]]) == 6
    assert rk.sublattice_index([[1, 0]]) is None
    # full rank in Z^2 is still below full rank in a wider ambient lattice
    assert rk.sublattice_index([[2, 0, 0], [0, 3, 0]]) is None


@pytest.mark.parametrize("call", [
    lambda: rk.imat([[1.5, 2]]),
    lambda: rk.row_hermite_form([[Fraction(1, 2), 1], [0, 1]]),
    lambda: rk.saturate([[Fraction(3, 2), 3]]),
    lambda: rk.sublattice_index([[2.7, 0], [0, 1]]),
    lambda: rk.is_primitive([Fraction(1, 2), 1]),
    lambda: rk.smith_normal_form(np.array([[Fraction(1, 3)]], dtype=object)),
    lambda: rk.imat([[float("nan"), 1]]),
    lambda: rk.imat([[float("inf"), 1]]),
    lambda: rk.rank(np.array([[Fraction(1, 2), 1]], dtype=object)),
    lambda: rk.rank([{0: Fraction(1, 2)}]),
    lambda: rk.rank([[1, Fraction(1, 2)]]),
    lambda: rk.rank([{0: 1, 1: Fraction(1, 2)}]),
    lambda: rk.det(np.array([[Fraction(1, 2)]], dtype=object)),
    lambda: rk.kernel_basis(np.array([[Fraction(1, 2), 1]], dtype=object)),
    lambda: rk.inverse(np.array([[Fraction(1, 2)]], dtype=object)),
], ids=["imat", "hermite", "saturate", "index", "primitive", "smith", "nan", "inf",
        "rank", "sparse-rank", "rank-after-an-odd-entry", "sparse-rank-after-an-odd-entry",
        "det", "kernel", "inverse"])
def test_integer_routines_refuse_non_integers(call):
    with pytest.raises(ValueError, match="expected an integer"):
        call()


def test_integer_routines_take_integral_fractions_and_numpy_ints():
    two, three = Fraction(4, 2), np.int64(3)
    m = rk.imat([[two, three, 5.0]])
    assert m.tolist() == [[2, 3, 5]] and {type(x) for x in m.flat} == {int}
    assert rk.row_hermite_form([[two, 0], [0, three]]) == [[2, 0], [0, 3]]
    assert [list(v) for v in rk.saturate([[two, np.int64(4)]])] == [[1, 2]]
    assert rk.sublattice_index([[two, 0], [0, three]]) == 6
    assert rk.is_primitive([two, three])
    m = np.array([[two, 1], [three, 2]], dtype=object)
    assert rk.rank(m) == 2 and rk.det(m) == 1
    assert rk.inverse(m) == ((2, -1), (-3, 2))


def test_hermite_rejects_rows_of_unequal_length():
    for rows in ([[2], [3, 5]], [[2, 4], [3]]):
        with pytest.raises(ValueError, match="unequal"):
            rk.row_hermite_form(rows)


def test_the_exact_kernel_works_over_z():
    """ratkernel imports nothing from fractions and names no Fraction: every
    exact routine works over Z, and non-integers are refused on entry."""
    tree = ast.parse(Path(rk.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] != "fractions" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.module != "fractions"
        elif isinstance(node, ast.Name):
            assert node.id != "Fraction"
        elif isinstance(node, ast.Attribute):
            assert node.attr != "Fraction"


def test_determinism():
    m = rk.imat([[3, 1, 4], [1, 5, 9], [2, 6, 5], [3, 5, 8]])
    assert rk.rank(m) == rk.rank(m)
    k1 = rk.kernel_basis(m)
    k2 = rk.kernel_basis(m)
    assert [list(v) for v in k1] == [list(v) for v in k2]


# -- sympy as an independent oracle, on hypothesis-drawn matrices up to 7x7 --

def _oracle():
    return pytest.importorskip("hypothesis"), pytest.importorskip("sympy")


def _settings(hyp, max_examples):
    return hyp.settings(max_examples=max_examples, deadline=None, derandomize=True)


def _matrices(st, square=False):
    """Integer matrices, with empty shapes, zero rows and columns and
    rank-deficient cases drawn on purpose."""
    entries = st.integers(-9, 9)

    @st.composite
    def matrices(draw):
        rows = draw(st.integers(0, 7))
        cols = rows if square else draw(st.integers(0, 7))
        m = np.array([[draw(entries) for _ in range(cols)] for _ in range(rows)],
                     dtype=object).reshape(rows, cols)
        if rows and draw(st.booleans()):  # later rows combine the first k
            k = draw(st.integers(0, rows - 1))
            for i in range(k, rows):
                m[i] = 0
                for j in range(k):
                    m[i] = m[i] + draw(st.integers(-2, 2)) * m[j]
        if cols:
            for j in draw(st.sets(st.integers(0, cols - 1), max_size=2)):
                m[:, j] = 0
        return m

    return matrices()


def _sparse_wide(st):
    """Wide sparse integer matrices up to 30 x 80 at about 5% density, with
    zero rows and duplicate (rescaled) rows drawn on purpose: the shapes the
    sparse-row elimination is for."""

    @st.composite
    def matrices(draw):
        rows, cols = draw(st.integers(10, 30)), draw(st.integers(40, 80))
        m = _zeros(rows, cols)
        for i in range(rows):
            for j in draw(st.sets(st.integers(0, cols - 1), max_size=cols // 10)):
                m[i, j] = draw(st.integers(-9, 9))
        for i in draw(st.sets(st.integers(0, rows - 1), max_size=3)):
            m[i] = 0
        for _ in range(draw(st.integers(0, 3))):
            i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
            m[i] = draw(st.integers(-2, 2)) * m[j]
        return m

    return matrices()


def _unit_columns(st, square=False):
    """Sparse +-1 matrices up to 8 x 16 whose leading columns each hold
    several unit entries, in rows of different lengths: the ties on the
    least absolute entry that the pivot search breaks by row length, then
    by row.  Row i also holds column i, so square ones are often regular."""

    @st.composite
    def matrices(draw):
        rows = draw(st.integers(2, 8))
        cols = rows if square else draw(st.integers(rows + 1, 16))
        m = _zeros(rows, cols)
        for i in range(rows):
            lead = draw(st.integers(0, i // 2))
            for j in {lead, i} | draw(st.sets(st.integers(lead + 1, cols - 1))):
                m[i, j] = draw(st.sampled_from([1, -1]))
        return m

    return matrices()


def _permuted_triangular(st):
    """Square P @ U with P a signed permutation and U upper triangular with a
    nonzero diagonal, or U = I: the pivots sit in permuted rows, so the
    elimination takes them out of order and det's sign is the row order's
    parity."""

    @st.composite
    def matrices(draw):
        n = draw(st.integers(1, 8))
        perm = draw(st.permutations(range(n)))
        u = _eye(n)
        if draw(st.booleans()):
            for i in range(n):
                u[i, i] = draw(st.integers(-9, 9).filter(bool))
                for j in range(i + 1, n):
                    u[i, j] = draw(st.integers(-9, 9))
        m = _zeros(n, n)
        for i, k in enumerate(perm):
            m[i] = draw(st.sampled_from([1, -1])) * u[k]
        return m

    return matrices()


def _unimodular(st):
    """Products of up to 12 elementary integer matrices (row additions with
    multipliers in [-3, 3], row swaps and row negations) of size 0 to 6."""

    @st.composite
    def matrices(draw):
        n = draw(st.integers(0, 6))
        m = _eye(n)
        for _ in range(draw(st.integers(0, 12)) if n else 0):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            kind = draw(st.sampled_from(["add", "swap", "negate"]))
            if kind == "add" and i != j:
                m[i] = m[i] + draw(st.integers(-3, 3)) * m[j]
            elif kind == "swap":
                m[[i, j]] = m[[j, i]]
            else:
                m[i] = -m[i]
        return m

    return matrices()


def _sym(sympy, m):
    return sympy.Matrix(*m.shape, [int(x) for x in m.flat])


def _rank(sympy, mat):
    """sympy's rank over QQ, without the expression domain's simplification."""
    return mat.to_DM().convert_to(sympy.QQ).rank()


def _check_kernel(sympy, m):
    """kernel_basis against sympy: the vectors annihilate m, there are
    cols - rank of them, stacking them on sympy's rational null space leaves
    its rank unchanged, and their lattice is saturated (every invariant
    factor of the Smith form is 1)."""
    from sympy.matrices.normalforms import smith_normal_form
    rows, cols = m.shape
    basis = rk.kernel_basis(m)
    s_null = _sym(sympy, m).nullspace()
    assert len(basis) == cols - rk.rank(m) == len(s_null)
    assert all(type(x) is int for v in basis for x in v)
    assert all(not any(m.dot(v)) for v in basis)
    if basis:
        b = sympy.Matrix([list(v) for v in basis])
        stacked = sympy.Matrix.vstack(b, *(v.T for v in s_null))
        assert _rank(sympy, stacked) == len(s_null)
        s = smith_normal_form(b, domain=sympy.ZZ)
        assert [abs(int(s[i, i])) for i in range(len(basis))] == [1] * len(basis)


def test_rank_and_kernel_match_sympy():
    hyp, sympy = _oracle()
    st = hyp.strategies

    @_settings(hyp, 40)
    @hyp.given(_matrices(st))
    def check(m):
        assert rk.rank(m) == _rank(sympy, _sym(sympy, m))
        _check_kernel(sympy, m)

    check()


def test_sparse_wide_rank_and_kernel_match_sympy():
    """The kernel's own shape and wide +-1 matrices with tied pivots: rank
    against sympy, the integer kernel basis against sympy's rational null
    space, and the Hermite form of the +-1 ones spans their row lattice."""
    hyp, sympy = _oracle()
    st = hyp.strategies

    @_settings(hyp, 20)
    @hyp.given(_sparse_wide(st))
    def check(m):
        assert rk.rank(m) == _rank(sympy, _sym(sympy, m))
        _check_kernel(sympy, m)

    @_settings(hyp, 40)
    @hyp.given(_unit_columns(st))
    def check_unit(m):
        assert rk.rank(m) == _rank(sympy, _sym(sympy, m))
        _check_kernel(sympy, m)
        rows = m.tolist()
        h = rk.row_hermite_form(rows)
        assert _is_hermite(h) and len(h) == rk.rank(m)
        assert _in_row_lattice(sympy, h, rows) and _in_row_lattice(sympy, rows, h)

    check()
    check_unit()


def test_det_and_inverse_match_sympy():
    hyp, sympy = _oracle()
    st = hyp.strategies

    @_settings(hyp, 80)
    @hyp.given(st.one_of(_matrices(st, square=True), _permuted_triangular(st),
                         _unit_columns(st, square=True)))
    def check(m):
        d = rk.det(m)
        assert type(d) is int and d == _sym(sympy, m).det()
        if abs(d) != 1:  # singular or not unimodular
            with pytest.raises(ValueError, match="not unimodular"):
                rk.inverse(m)
        else:
            assert rk.inverse(m) == tuple(tuple(int(x) for x in row)
                                          for row in _sym(sympy, m).inv().tolist())

    @_settings(hyp, 60)
    @hyp.given(_unimodular(st))
    def check_unimodular(m):
        assert abs(rk.det(m)) == 1
        inv = rk.inverse(m)
        assert inv == tuple(tuple(int(x) for x in row) for row in _sym(sympy, m).inv().tolist())

    check()
    check_unimodular()


def test_smith_form_and_lattice_index_match_sympy():
    hyp, sympy = _oracle()
    from sympy.matrices.normalforms import smith_normal_form

    @_settings(hyp, 40)
    @hyp.given(_matrices(hyp.strategies))
    def check(m):
        rows, cols = m.shape
        s = smith_normal_form(_sym(sympy, m), domain=sympy.ZZ)
        want = [abs(int(s[i, i])) for i in range(min(rows, cols))]
        d, _, _ = rk.smith_normal_form(m)
        assert [d[i, i] for i in range(min(rows, cols))] == want
        if rows:
            full = _rank(sympy, _sym(sympy, m)) == cols
            index = math.prod(want) if full else None
            assert rk.sublattice_index(m.tolist()) == index

    check()


def test_dense_20x20_rank_and_det_match_sympy():
    _, sympy = _oracle()
    m = rk.imat(np.random.default_rng(20).integers(-9, 10, (20, 20)).tolist())
    singular = m.copy()
    singular[19] = singular[0] - singular[7]
    for a in (m, singular):
        dm = _sym(sympy, a).to_DM()
        assert rk.rank(a) == dm.convert_to(sympy.QQ).rank()
        assert rk.det(a) == dm.det()


# -- rank's GF(2) certificate against the elimination --

def _eliminated_rank(rows):
    return len(rk._eliminate(rk._sparse(rows))[1])


def _count_eliminations(monkeypatch):
    calls = []
    eliminate = rk._eliminate
    monkeypatch.setattr(rk, "_eliminate", lambda rows: calls.append(rows) or eliminate(rows))
    return calls


def _sign_rows(rng, rows, cols, density):
    """Dense rows with entries -1, 0 and 1, each nonzero with the given
    probability."""
    mask = rng.random((rows, cols)) < density
    return (mask * rng.choice((-1, 1), (rows, cols))).tolist()


def test_certified_rank_matches_the_elimination_on_sparse_sign_rows(monkeypatch):
    """Random sparse +-1 matrices as sparse rows, half of them short of full
    row rank (a row repeated with its sign flipped, or more rows than
    columns): `rank` is the elimination's pivot count, and it eliminates
    exactly when the GF(2) rank falls short of the row count."""
    rng = np.random.default_rng(31)
    calls = _count_eliminations(monkeypatch)
    paths = {True: 0, False: 0}
    for trial in range(200):
        dense = _sign_rows(rng, int(rng.integers(1, 30)), int(rng.integers(1, 60)), 0.1)
        if trial % 2:
            i, j = rng.integers(0, len(dense), 2)
            dense[i] = [-x for x in dense[j]]
        rows = [{j: x for j, x in enumerate(row) if x} for row in dense]
        want = _eliminated_rank(rows)
        calls.clear()
        certified = rk._gf2_rank(rows) == len(rows)
        assert rk.rank(rows) == want
        assert bool(calls) != certified
        paths[certified] += 1
    assert min(paths.values()) > 20


def test_certified_rank_matches_the_elimination_on_dense_matrices(monkeypatch):
    """Dense +-1 matrices, wide and tall, and dense +-9 20x20 ones: a GF(2)
    rank that reaches the row or the column count is the rank."""
    rng = np.random.default_rng(32)
    calls = _count_eliminations(monkeypatch)
    mats = [_sign_rows(rng, r, c, 0.3) for r, c in ((8, 30), (30, 8), (12, 12)) * 20]
    mats += [rng.integers(-9, 10, (20, 20)).tolist() for _ in range(40)]
    by_columns = 0
    for m in mats:
        want = _eliminated_rank(m)
        calls.clear()
        gf2 = rk._gf2_rank(m)
        assert rk.rank(m) == want
        assert bool(calls) != (gf2 in (len(m), len(m[0])))
        by_columns += gf2 == len(m[0]) < len(m)
    assert by_columns


@pytest.mark.parametrize("m, r", [
    ([[2]], 1),
    ([[1, 1], [1, -1]], 2),
    ([[2, 0], [0, 3]], 2),
    ([{0: 1, 1: 1}, {0: 1, 1: -1}], 2),
    ([[1, 1], [1, 1]], 1),
])
def test_rank_eliminates_when_gf2_falls_short(monkeypatch, m, r):
    """Full-rank matrices whose GF(2) rank is short, and a singular one:
    the certificate cannot decide, so the elimination gives the rank."""
    calls = _count_eliminations(monkeypatch)
    assert rk.rank(m) == r
    assert len(calls) == 1


def _is_hermite(rows):
    """Row Hermite shape: leading entries positive in strictly increasing
    columns, entries above each leading entry in [0, leading entry)."""
    lead = [next((c for c, x in enumerate(row) if x), None) for row in rows]
    return (None not in lead and lead == sorted(set(lead))
            and all(row[c] > 0 for row, c in zip(rows, lead))
            and all(0 <= rows[i][c] < rows[r][c]
                    for r, c in enumerate(lead) for i in range(r)))


def test_saturate_is_saturated_hermite_with_the_same_span():
    hyp, sympy = _oracle()
    from sympy.matrices.normalforms import smith_normal_form

    @_settings(hyp, 60)
    @hyp.given(_matrices(hyp.strategies))
    def check(m):
        sat = [[int(x) for x in v] for v in rk.saturate(m.tolist())]
        r = rk.rank(m)
        assert len(sat) == r
        if r:
            assert rk.rank(rk.imat(sat + m.tolist())) == r
            s = smith_normal_form(sympy.Matrix(sat), domain=sympy.ZZ)
            assert [abs(int(s[i, i])) for i in range(r)] == [1] * r
        assert _is_hermite(sat)

    check()


def test_saturate_dense_matches_smith_reference():
    """Seeded dense cases against the Smith path: the first rank-many rows
    of R^{-1} (D = L A R) span the saturation; their Hermite form is it."""
    rng = np.random.default_rng(25)
    dense = rk.imat(rng.integers(-9, 10, (20, 20)).tolist())
    singular = rk.imat(rng.integers(-9, 10, (20, 20)).tolist())
    singular[19] = singular[0]
    wide = rk.imat(rng.integers(-9, 10, (16, 20)).tolist())
    for m, r in ((dense, 20), (singular, 19), (wide, 16)):
        d, _, rinv = rk.smith_normal_form(m)
        assert sum(1 for i in range(min(d.shape)) if d[i, i] != 0) == r
        want = rk.row_hermite_form([list(rinv[i]) for i in range(r)])
        assert [list(v) for v in rk.saturate(m.tolist())] == want


def _kernel_of_kernel(vectors):
    """The saturation as the integer kernel of the integer kernel, the
    reference for `saturate`'s full-rank return."""
    n = len(vectors[0])
    return [tuple(row) for row in rk._integer_kernel(rk._integer_kernel(vectors, n), n)]


def test_saturate_of_full_rank_vectors_is_the_identity(monkeypatch):
    eye = [tuple(int(i == j) for j in range(3)) for i in range(3)]
    square = [[2, 0, 0], [0, 3, 0], [1, 1, 5]]
    tall = square + [[4, -7, 9], [0, 0, 2]]
    widths = []
    eliminate = rk._eliminate

    def spy(rows):
        widths.append(max(j for row in rows for j in row) + 1)
        return eliminate(rows)

    # the vectors' own rank elimination, unless their rank is certified over
    # GF(2) as the tall rows' is, then the identity's: no elimination of the
    # 2n-column [vectors^T | I]
    for vectors, want in ((square, [3, 3]), (tall, [3])):
        assert _kernel_of_kernel(vectors) == eye
        widths.clear()
        with monkeypatch.context() as m:
            m.setattr(rk, "_eliminate", spy)
            assert rk.saturate(vectors) == eye
        assert widths == want


def test_saturate_matches_the_kernel_of_the_kernel():
    rng = np.random.default_rng(30)
    full = rng.integers(-9, 10, (20, 20)).tolist()
    tall = rng.integers(-9, 10, (24, 20)).tolist()
    deficient = (rng.integers(-3, 4, (20, 14)) @ rng.integers(-3, 4, (14, 20))).tolist()
    singular = rng.integers(-9, 10, (20, 20)).tolist()
    singular[19] = [a - 2 * b for a, b in zip(singular[3], singular[11])]
    wide = rng.integers(-9, 10, (6, 20)).tolist()
    for m, r in ((full, 20), (tall, 20), (deficient, 14), (singular, 19), (wide, 6)):
        assert rk.rank(m) == r
        sat = rk.saturate(m)
        assert len(sat) == r and sat == _kernel_of_kernel(m)


# -- the Hermite form against an oracle that shares no code with it --

def _in_row_lattice(sympy, basis, vectors):
    """True when every vector is an integer combination of the basis rows.

    With sympy's Smith decomposition S = U B V (U, V unimodular), x B = v
    has an integer solution x exactly when y S = v V has one for y = x U^-1.
    """
    from sympy.matrices.normalforms import smith_normal_decomp
    if not basis:
        return not any(x for v in vectors for x in v)
    b = sympy.Matrix(basis)
    s, u, v_ = smith_normal_decomp(b, domain=sympy.ZZ)
    assert u * b * v_ == s
    diag = [s[i, i] for i in range(min(s.shape))]
    for vec in vectors:
        w = sympy.Matrix([list(vec)]) * v_
        for j in range(b.cols):
            d = diag[j] if j < len(diag) else 0
            if (w[j] % d if d else w[j]) != 0:
                return False
    return True


def _random_unimodular(rng, n):
    """A product of seeded elementary integer row operations."""
    u = np.eye(n, dtype=int).astype(object)
    for _ in range(3 * n):
        i, j = rng.integers(0, n, 2)
        if i != j:
            u[i] = u[i] + int(rng.integers(-3, 4)) * u[j]
        else:
            u[i] = -u[i]
    return u


def _hermite_probes(rng):
    """Seeded integer matrices: general ones up to 6 x 8, rank-deficient ones
    (later rows combine earlier ones), and the wide [M^T | I] shapes that
    kernel_basis and saturate reduce."""
    for _ in range(30):
        rows, cols = (int(x) for x in rng.integers(1, 7, 2) + (0, 2))
        m = rng.integers(-9, 10, (rows, cols)).astype(object)
        if rng.integers(2) and rows > 1:
            k = int(rng.integers(1, rows))
            for i in range(k, rows):
                m[i] = sum(int(c) * m[j] for j, c in enumerate(rng.integers(-2, 3, k)))
        yield m
        yield np.hstack([m.T, np.eye(cols, dtype=int).astype(object)])


def test_hermite_form_spans_the_lattice_and_ignores_row_operations():
    """row_hermite_form(M) has Hermite shape, spans M's row lattice (each
    side's rows are integer combinations of the other's, by sympy), and is
    unchanged by a unimodular U on the left."""
    _, sympy = _oracle()
    rng = np.random.default_rng(22)
    for m in _hermite_probes(rng):
        rows = [[int(x) for x in row] for row in m]
        h = rk.row_hermite_form(rows)
        assert _is_hermite(h)
        assert all(type(x) is int for row in h for x in row)
        assert _in_row_lattice(sympy, h, rows)
        assert _in_row_lattice(sympy, rows, h)
        u = _random_unimodular(rng, len(rows))
        assert rk.row_hermite_form((u @ m).tolist()) == h


def test_integer_kernel_is_the_tail_of_the_augmented_hermite_form():
    """_integer_kernel back-reduces only the rows of the echelon form of
    [rows^T | I] that pivot past the first block; they equal the identity
    parts of those rows of the whole Hermite form, on random lattices of
    every shape and rank deficit, zero rows and the empty family included."""
    rng = np.random.default_rng(24)
    shapes = [(int(rng.integers(0, 6)), int(rng.integers(1, 7))) for _ in range(200)]
    for m, n in shapes:
        rows = rng.integers(-9, 10, (m, n))
        if m > 1 and rng.random() < 0.5:  # a dependent row
            rows[-1] = rng.integers(-2, 3) * rows[0] + rng.integers(-2, 3) * rows[1]
        rows = rows.tolist()
        aug = [[r[i] for r in rows] + [int(i == j) for j in range(n)]
               for i in range(n)]
        want = [row[m:] for row in rk.row_hermite_form(aug) if not any(row[:m])]
        assert rk._integer_kernel(rows, n) == want, (m, n, rows)
