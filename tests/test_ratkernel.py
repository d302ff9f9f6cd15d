import math
from fractions import Fraction

import numpy as np
import pytest

from quintfib import ratkernel as rk


def test_rank_identity():
    assert rk.rank(rk.identity(3)) == 3


def test_rank_zero_matrix():
    assert rk.rank(rk.zeros(4, 7)) == 0


def test_rank_transpose_invariance():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = rk.imat(rng.integers(-6, 7, size=(rng.integers(1, 7),
                                              rng.integers(1, 7))))
        assert rk.rank(m) == rk.rank(m.T.copy())


def test_kernel_of_identity_is_empty():
    assert rk.kernel_basis(rk.identity(4)) == []


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
    m = np.array([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]],
                 dtype=object)
    inv = rk.inverse(m)
    assert (np.asarray(inv @ m) == np.asarray(rk.identity(2))).all()
    with pytest.raises(ValueError):
        rk.inverse(rk.imat([[1, 2], [2, 4]]))


def test_det_small_cases():
    assert rk.det(rk.imat([[1, 2], [3, 4]])) == -2
    assert rk.int_det(rk.identity(3)) == 1
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
        assert abs(rk.int_det(l)) == 1
        assert abs(rk.int_det(rinv)) == 1
        # D R^-1 = L A
        lhs = np.asarray(d @ rinv)
        rhs = np.asarray(l @ a)
        assert (lhs == rhs).all()
        divs = [int(d[i, i]) for i in range(min(rows, cols)) if d[i, i] != 0]
        for a_, b_ in zip(divs, divs[1:]):
            assert b_ % a_ == 0


def test_sublattice_index():
    assert rk.sublattice_index([[2, 0], [0, 3]]) == 6
    assert rk.sublattice_index([[1, 0]]) is None
    # full rank in Z^2 is still below full rank in a wider ambient lattice
    assert rk.sublattice_index([[2, 0, 0], [0, 3, 0]]) is None


def test_hermite_rejects_rows_of_unequal_length():
    for rows in ([[2], [3, 5]], [[2, 4], [3]]):
        with pytest.raises(ValueError, match="unequal"):
            rk.row_hermite_form(rows)


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


def _matrices(st, square=False, integer=False):
    """Integer or Fraction matrices, with empty shapes, zero rows and
    columns and rank-deficient cases drawn on purpose."""
    entries = st.integers(-9, 9)
    if not integer:
        entries = st.one_of(entries, st.fractions(-9, 9, max_denominator=6))

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


def _sym(sympy, m):
    return sympy.Matrix(*m.shape, [sympy.Rational(x.numerator, x.denominator)
                                   for x in map(Fraction, m.flat)])


def _frac(x):
    return Fraction(int(x.p), int(x.q))


def _fracs(s):
    return [[_frac(x) for x in row] for row in s.tolist()]


def test_rank_rref_kernel_match_sympy():
    hyp, sympy = _oracle()
    st = hyp.strategies

    @_settings(hyp, 40)
    @hyp.given(_matrices(st))
    def check(m):
        s = _sym(sympy, m)
        assert rk.rank(m) == s.rank()
        red, pivots = rk.rref(m)
        s_red, s_pivots = s.rref()
        assert pivots == tuple(s_pivots)
        assert red.tolist() == _fracs(s_red)
        assert all(type(x) is Fraction for x in red.flat)
        basis = rk.kernel_basis(m)
        assert len(basis) == len(s.nullspace())
        assert all(not any(m.dot(v)) for v in basis)

    check()


def test_det_and_inverse_match_sympy():
    hyp, sympy = _oracle()

    @_settings(hyp, 40)
    @hyp.given(_matrices(hyp.strategies, square=True))
    def check(m):
        s = _sym(sympy, m)
        d = rk.det(m)
        assert type(d) is Fraction and d == _frac(s.det())
        if d == 0:
            with pytest.raises(ValueError):
                rk.inverse(m)
        else:
            assert rk.inverse(m).tolist() == _fracs(s.inv())

    check()


def test_smith_form_and_lattice_index_match_sympy():
    hyp, sympy = _oracle()
    from sympy.matrices.normalforms import smith_normal_form

    @_settings(hyp, 40)
    @hyp.given(_matrices(hyp.strategies, integer=True))
    def check(m):
        rows, cols = m.shape
        s = smith_normal_form(_sym(sympy, m), domain=sympy.ZZ)
        want = [abs(int(s[i, i])) for i in range(min(rows, cols))]
        d, _, _ = rk.smith_normal_form(m)
        assert [d[i, i] for i in range(min(rows, cols))] == want
        if rows:
            full = _sym(sympy, m).rank() == cols
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
    @hyp.given(_matrices(hyp.strategies, integer=True))
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
