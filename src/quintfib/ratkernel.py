"""Exact linear algebra over Z.

Matrices are numpy object arrays, or lists of rows, of Python ints
(arbitrary precision); no floating point and no fraction enters any code
path.  Entries that are not integers are refused through `as_int` rather
than truncated; integral fractions, numpy ints and floats pass.

Two eliminations, each with one job:

- `_echelon`, a fraction-free forward elimination on sparse integer rows
  {column: nonzero int}, serves `rank` and `det`.  A dense matrix is
  converted once on entry; `rank` also takes a matrix as its list of such
  rows, the form in which `sheafcoh` holds its Cech differentials.
- `row_hermite_form`, with unimodular integer row operations, serves every
  lattice-valued result: `kernel_basis` (the Hermite basis of the integer
  kernel), `inverse` (of a unimodular matrix), `saturate` and
  `sublattice_index`.

Smith normal form is kept only as an independent reference for those
results.

All functions are pure and re-entrant; results are bit-identical across runs.
"""

from math import gcd, inf, prod

import numpy as np


def as_int(x):
    """x as a Python int; ValueError, not truncation, unless x is integral
    (integral Fractions, numpy ints and floats pass; NaN and inf do not)."""
    n = int(x) if abs(x) < inf else None
    if n != x:
        raise ValueError(f"expected an integer, got {x!r}")
    return n


def imat(rows):
    """Object-dtype matrix with exact int entries from nested iterables."""
    a = np.array([[as_int(x) for x in row] for row in rows], dtype=object)
    if a.ndim != 2:
        raise ValueError("expected a 2-d array of entries")
    return a


def identity(n):
    return np.eye(n, dtype=int).astype(object)


def zeros(r, c):
    return np.full((r, c), 0, dtype=object)


def _as_object(m):
    a = np.asarray(m, dtype=object)
    if a.ndim != 2:
        raise ValueError("expected a matrix (2-d array)")
    return a


def _combine(p, row, f, pivot_row):
    """Primitive part of p*row - f*pivot_row, and the content divided out
    (1 for a row that cancels to nothing).

    Rows are sparse, {column: nonzero int}; only the columns of the two
    rows are touched, and entries that cancel are dropped.
    """
    out = {j: p * x for j, x in row.items()}
    for j, y in pivot_row.items():
        x = out.get(j, 0) - f * y
        if x:
            out[j] = x
        else:
            del out[j]
    g = gcd(*out.values()) or 1
    return ({j: x // g for j, x in out.items()} if g > 1 else out), g


def _odd(perm):
    """True when the permutation of range(len(perm)) is odd: n minus its
    number of cycles is odd."""
    seen, cycles = set(), 0
    for i in range(len(perm)):
        if i not in seen:
            cycles += 1
            while i not in seen:
                seen.add(i)
                i = perm[i]
    return (len(perm) - cycles) % 2 == 1


def _echelon(m):
    """Fraction-free forward elimination on sparse rows: (rows, pivots, (den, num)).

    `m` is a 2-d object array, converted once through `tolist()`, or a list
    of sparse rows {column: entry}.  The rows that still lack a pivot are
    grouped by their leading column, so the pivot search of a column sees
    exactly the rows holding it.  Its pivot is the entry of smallest
    absolute value, ties going to the lowest original row; every other row
    of the group is replaced by `_combine` and joins the group of its new
    leading column.  Fill-in lies right of the pivot column and in columns
    where some input row has a nonzero, so only those columns are visited.
    Every row is its Bareiss row or that row's primitive part, so entries
    stay within Hadamard's bound instead of growing exponentially on dense
    input.  Rows never move: the echelon rows are the pivot rows in pivot
    order, and the sign of det comes from the parity of that row order.
    For square nonsingular m, det(m) = den * (product of the pivots) // num,
    and the division is exact.
    """
    rows = [{j: x if type(x) is int else as_int(x)
             for j, x in (row.items() if isinstance(row, dict) else enumerate(row)) if x}
            for row in (m.tolist() if isinstance(m, np.ndarray) else m)]
    num, den = 1, 1
    groups = {}
    for i, row in enumerate(rows):
        if row:
            groups.setdefault(min(row), []).append(i)
    order, pivots = [], []
    for c in sorted({j for row in rows for j in row}):
        group = groups.pop(c, None)
        if group is None:
            continue
        r = min(group, key=lambda i: (abs(rows[i][c]), i))
        pivot_row, p = rows[r], rows[r][c]
        for i in group:
            if i == r:
                continue
            rows[i], g = _combine(p, rows[i], rows[i][c], pivot_row)
            num *= p
            den *= g
            if rows[i]:
                groups.setdefault(min(rows[i]), []).append(i)
        order.append(r)
        pivots.append(c)
    if len(order) == len(rows) and _odd(order):
        num = -num
    return [rows[r] for r in order], tuple(pivots), (den, num)


def rank(m):
    """Exact rank of an integer matrix, or of its list of sparse rows
    {column: entry}."""
    sparse = isinstance(m, list) and m and isinstance(m[0], dict)
    return len(_echelon(m if sparse else _as_object(m))[1])


def det(m):
    """Exact determinant of a square integer matrix, as a Python int."""
    a = _as_object(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError("determinant of a non-square matrix")
    rows, pivots, (den, num) = _echelon(a)
    if len(pivots) < a.shape[0]:
        return 0
    return den * prod(row[c] for row, c in zip(rows, pivots)) // num


def kernel_basis(m):
    """Hermite basis of the integer kernel {v in Z^n : m v = 0}.

    Returns a list of object arrays of ints; its length is always
    cols - rank(m).
    """
    a = _as_object(m)
    if len(_echelon(a)[1]) == a.shape[1]:  # full column rank: no kernel
        return []
    return [np.array(v, dtype=object) for v in _integer_kernel(a.tolist(), a.shape[1])]


def inverse(m):
    """Inverse of a unimodular integer matrix.

    The Hermite form of [M | I] is [H | U] = U [M | I] with U unimodular;
    its left block H is I exactly when M is unimodular, and then U is the
    inverse.  ValueError for every other matrix.
    """
    a = _as_object(m)
    n, nc = a.shape
    if n != nc:
        raise ValueError("inverse of a non-square matrix")
    h = row_hermite_form([row + [int(i == j) for j in range(n)]
                          for i, row in enumerate(a.tolist())])
    if [row[:n] for row in h] != identity(n).tolist():
        raise ValueError("matrix is not unimodular")
    return np.array([row[n:] for row in h], dtype=object).reshape(n, n)


def is_primitive(v):
    """True when the integer vector has coordinate gcd 1."""
    return gcd(*map(as_int, v)) == 1


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
            a[i, j] = as_int(a[i, j])
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
    A column is cleared below its pivot by repeated division, with the
    nearest quotient, by the row of smallest absolute entry there; row
    operations touch only the columns from the pivot on.
    """
    a = [[as_int(x) for x in row] for row in rows]
    if not a:
        return []
    nrows, ncols = len(a), len(a[0])
    if any(len(row) != ncols for row in a):
        raise ValueError("rows of unequal length")
    r = 0
    for c in range(ncols):  # rows r.. are zero left of column c
        if r == nrows:
            break
        while True:
            nz = [i for i in range(r, nrows) if a[i][c]]
            if not nz:
                break
            best = min(nz, key=lambda i: abs(a[i][c]))
            a[r], a[best] = a[best], a[r]
            p, tail = a[r][c], a[r][c:]
            done = True
            for i in range(r + 1, nrows):
                if a[i][c]:
                    q = (2 * a[i][c] + p) // (2 * p)  # nearest: |remainder| <= |p|/2
                    a[i][c:] = [x - q * y for x, y in zip(a[i][c:], tail)]
                    done = done and not a[i][c]
            if done:
                break
        if not a[r][c]:
            continue
        if a[r][c] < 0:
            a[r][c:] = [-x for x in a[r][c:]]
        p, tail = a[r][c], a[r][c:]
        for i in range(r):
            q = a[i][c] // p
            if q:
                a[i][c:] = [x - q * y for x, y in zip(a[i][c:], tail)]
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
    vectors = [[as_int(x) for x in v] for v in vectors]
    if not vectors:
        return []
    n = len(vectors[0])
    if any(len(v) != n for v in vectors):
        raise ValueError("vectors of unequal length")
    basis = _integer_kernel(_integer_kernel(vectors, n), n)
    return [np.array(row, dtype=object) for row in basis]
