"""Exact linear algebra over Q and Z.

Everything here is exact: matrices are numpy object arrays whose entries are
Python ints or fractions.Fraction (arbitrary precision, always in lowest
terms, positive denominators).  No floating point enters any code path.

Rank, determinant and reduced row echelon form (and through it kernels
and inverses) share one fraction-free elimination on integer
rows, `_echelon`, whose entries stay within Hadamard's bound on the minors
instead of growing exponentially on dense input.  Lattice saturation and
sublattice indices go through the row Hermite normal form, with unimodular
integer row operations; Smith normal form is kept only as an independent
reference for those results.

All functions are pure and re-entrant; results are bit-identical across runs.
"""

from fractions import Fraction
from math import gcd, lcm, prod

import numpy as np


def imat(rows):
    """Object-dtype matrix with exact int entries from nested iterables."""
    a = np.array([[int(x) for x in row] for row in rows], dtype=object)
    if a.ndim != 2:
        raise ValueError("expected a 2-d array of entries")
    return a


def identity(n):
    m = np.zeros((n, n), dtype=object)
    for i in range(n):
        m[i, i] = 1
    return m


def zeros(r, c):
    m = np.empty((r, c), dtype=object)
    m[:] = 0
    return m


def _as_object(m):
    a = np.asarray(m, dtype=object)
    if a.ndim != 2:
        raise ValueError("expected a matrix (2-d array)")
    return a


def _combine(p, row, f, pivot_row):
    """Primitive part of p*row - f*pivot_row, and the content divided out."""
    out = [p * x - f * y for x, y in zip(row, pivot_row)]
    g = gcd(*out)
    return ([x // g for x in out] if g > 1 else out), g


def _echelon(a):
    """Fraction-free forward elimination: (rows, pivots, scale).

    Each row of `a` is scaled by the lcm of its denominators.  The pivot of
    a column is its entry of smallest nonzero absolute value; each row with
    a nonzero entry below it is replaced by `_combine`, other rows are left
    alone.  So every row is its Bareiss row or that row's primitive part,
    and entries stay within Hadamard's bound.  The echelon rows are lists
    of ints; det(a) = scale * (product of the pivots) for square nonsingular a.
    """
    num, den = 1, 1
    rows = a.tolist()
    for i, row in enumerate(rows):
        if set(map(type, row)) != {int}:  # int rows skip the slow Fraction path
            row = [Fraction(x) for x in row]
            d = lcm(*(x.denominator for x in row))
            rows[i] = [x.numerator * (d // x.denominator) for x in row]
            num *= d
    pivots = []
    for c in range(a.shape[1]):
        r = len(pivots)
        nonzero = [i for i in range(r, len(rows)) if rows[i][c]]
        if not nonzero:
            continue
        best = min(nonzero, key=lambda i: abs(rows[i][c]))
        if best != r:
            rows[r], rows[best] = rows[best], rows[r]
            num = -num
        pivot_row, p = rows[r], rows[r][c]
        for i in range(r + 1, len(rows)):
            if rows[i][c]:
                rows[i], g = _combine(p, rows[i], rows[i][c], pivot_row)
                num *= p
                den *= g
        pivots.append(c)
    return rows, tuple(pivots), Fraction(den, num)


def rref(m):
    """Reduced row echelon form over Q: (R, pivot columns), R of Fractions.

    The rows of `_echelon` are reduced upward with the same row operation,
    then divided by their pivots; the result is canonical.
    """
    a = _as_object(m)
    rows, pivots, _ = _echelon(a)
    for k in range(len(pivots) - 1, 0, -1):
        c, pivot_row = pivots[k], rows[k]
        for i in range(k):
            if rows[i][c]:
                rows[i], _ = _combine(pivot_row[c], rows[i], rows[i][c], pivot_row)
    out = np.full(a.shape, Fraction(0), dtype=object)
    for i, c in enumerate(pivots):
        out[i] = [Fraction(x, rows[i][c]) for x in rows[i]]
    return out, pivots


def rank(m):
    """Exact rank over Q."""
    return len(_echelon(_as_object(m))[1])


def kernel_basis(m):
    """Basis of the rational null space {v : m v = 0}.

    Returns a list of object arrays of Fractions; its length is always
    cols - rank(m).
    """
    a = _as_object(m)
    cols = a.shape[1]
    red, pivots = rref(a)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = []
    for fcol in free:
        v = np.array([Fraction(0)] * cols, dtype=object)
        v[fcol] = Fraction(1)
        for i, pcol in enumerate(pivots):
            v[pcol] = -Fraction(red[i, fcol])
        basis.append(v)
    return basis


def inverse(m):
    """Exact inverse of a square matrix over Q; raises on singular input."""
    a = _as_object(m)
    n, nc = a.shape
    if n != nc:
        raise ValueError("inverse of a non-square matrix")
    aug = np.concatenate([a, identity(n)], axis=1)
    red, pivots = rref(aug)
    if tuple(pivots[:n]) != tuple(range(n)):
        raise ValueError("matrix is singular")
    return red[:, n:]


def det(m):
    """Exact determinant over Q, as a Fraction."""
    a = _as_object(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError("determinant of a non-square matrix")
    rows, pivots, scale = _echelon(a)
    if len(pivots) < len(rows):
        return Fraction(0)
    return scale * prod(row[i] for i, row in enumerate(rows))


def int_det(m):
    """Determinant of an integer matrix, returned as a Python int."""
    d = det(m)
    if d.denominator != 1:
        raise ValueError("matrix is not integral")
    return int(d)


def is_primitive(v):
    """True when the integer vector has coordinate gcd 1."""
    return gcd(*map(int, v)) == 1


def smith_normal_form(m):
    """Smith normal form of an integer matrix.

    Returns (D, L, Rinv) with D = L @ m @ R diagonal, L and R unimodular,
    and Rinv = R^{-1} (tracked directly, so L @ m = D @ Rinv).  Diagonal
    entries are nonnegative with each dividing the next.
    """
    a = _as_object(m).copy()
    rows, cols = a.shape
    for i in range(rows):
        for j in range(cols):
            a[i, j] = int(a[i, j])
    L = identity(rows)
    Rinv = identity(cols)

    def row_op(i, j, q):
        # row_i -= q * row_j, mirrored on L
        a[i] = a[i] - q * a[j]
        L[i] = L[i] - q * L[j]

    def col_op(j, i, q):
        # col_j -= q * col_i  (A <- A E); Rinv <- E^{-1} Rinv is a row op
        a[:, j] = a[:, j] - q * a[:, i]
        Rinv[i] = Rinv[i] + q * Rinv[j]

    def swap_rows(i, j):
        a[[i, j]] = a[[j, i]]
        L[[i, j]] = L[[j, i]]

    def swap_cols(i, j):
        a[:, [i, j]] = a[:, [j, i]]
        Rinv[[i, j]] = Rinv[[j, i]]

    def negate_row(i):
        a[i] = -a[i]
        L[i] = -L[i]

    t = 0
    while t < min(rows, cols):
        # find smallest nonzero entry in the trailing block
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i, j] != 0 and (best is None
                                     or abs(a[i, j]) < abs(a[best[0], best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            swap_rows(t, bi)
        if bj != t:
            swap_cols(t, bj)
        if a[t, t] < 0:
            negate_row(t)
        dirty = False
        for i in range(t + 1, rows):
            if a[i, t] != 0:
                q = a[i, t] // a[t, t]
                row_op(i, t, q)
                if a[i, t] != 0:
                    dirty = True
        for j in range(t + 1, cols):
            if a[t, j] != 0:
                q = a[t, j] // a[t, t]
                col_op(j, t, q)
                if a[t, j] != 0:
                    dirty = True
        if dirty:
            continue
        # divisibility: a[t,t] must divide the rest of the block
        witness = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i, j] % a[t, t] != 0:
                    witness = i
                    break
            if witness is not None:
                break
        if witness is not None:
            row_op(t, witness, -1)  # fold offending row in, redo the block
            continue
        t += 1
    return a, L, Rinv


def sublattice_index(gens):
    """Index in Z^n, n the vectors' length, of the lattice spanned by the
    integer row vectors.

    The index is the product of the Hermite normal form's pivots.  Returns
    None when the span is not of full rank in Z^n.
    """
    gens = list(gens)
    if not gens:
        return None
    h = row_hermite_form(imat(gens))
    if len(h) < len(gens[0]):
        return None
    return prod(next(x for x in row if x) for row in h)


def row_hermite_form(rows):
    """Row-style Hermite normal form of a full set of integer rows.

    Pivots are positive, entries above each pivot lie in [0, pivot); the
    result is the canonical basis of the row lattice (zero rows dropped).
    """
    a = [[int(x) for x in row] for row in rows]
    if not a:
        return []
    nrows, ncols = len(a), len(a[0])
    if any(len(row) != ncols for row in a):
        raise ValueError("rows of unequal length")
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        while True:
            nz = [i for i in range(r, nrows) if a[i][c] != 0]
            if not nz:
                break
            best = min(nz, key=lambda i: abs(a[i][c]))
            a[r], a[best] = a[best], a[r]
            done = True
            for i in range(r + 1, nrows):
                if a[i][c] != 0:
                    q = a[i][c] // a[r][c]
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                    if a[i][c] != 0:
                        done = False
            if done:
                break
        if a[r][c] == 0:
            continue
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
        for i in range(r):
            q = a[i][c] // a[r][c]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
        r += 1
    return a[:r]


def _integer_kernel(rows, n):
    """Hermite basis of {x in Z^n : r . x = 0 for every row r}.

    Row-reducing [rows^T | I_n] is unimodular, so the identity parts of the
    reduced rows whose first part vanishes are a basis of that lattice.
    """
    m = len(rows)
    aug = [[r[i] for r in rows] + [int(i == j) for j in range(n)] for i in range(n)]
    return [row[m:] for row in row_hermite_form(aug) if not any(row[:m])]


def saturate(vectors):
    """Primitive basis of the saturation of the span of integer vectors.

    The saturation is the largest sublattice of Z^n with the same rational
    span, Z^n intersected with that span: the integer kernel of the integer
    kernel.  It is returned in Hermite normal form, so the operation is
    literally idempotent.  Every basis vector of a saturated lattice is
    automatically primitive.
    """
    vectors = [[int(x) for x in v] for v in vectors]
    if not vectors:
        return []
    n = len(vectors[0])
    if any(len(v) != n for v in vectors):
        raise ValueError("vectors of unequal length")
    basis = _integer_kernel(_integer_kernel(vectors, n), n)
    return [np.array(row, dtype=object) for row in basis]
