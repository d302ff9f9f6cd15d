"""Exact linear algebra over Z.

Matrices are numpy object arrays, or lists of rows, of Python ints
(arbitrary precision); no floating point and no fraction enters any code
path.  Entries that are not integers are refused through `as_int` rather
than truncated; integral fractions, numpy ints and floats pass.

One elimination, `_eliminate`, a forward elimination on sparse integer rows
{column: nonzero int} by unimodular row operations, serves every result.
Its pivot row in a column has the least absolute entry there, ties going
to the sparsest row and then the lowest (Markowitz's tie-break).
A dense matrix is converted once on entry; `rank` also takes a matrix as
its list of such rows, the form in which `sheafcoh` holds its Cech
differentials.

- `rank` is its pivot count, and `det` the product of its pivots, signed
  by the parity of the pivot row order.
- `row_hermite_form` is its echelon form made canonical, and serves every
  lattice-valued result: `kernel_basis` (the Hermite basis of the integer
  kernel), `inverse` (of a unimodular matrix), `saturate` and
  `sublattice_index`.

Smith normal form is kept only as an independent reference for those
results.

All functions are pure and re-entrant; results are bit-identical across runs.
"""

from bisect import bisect_left
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


def _subtract(row, q, pivot_row):
    """row -= q * pivot_row on sparse rows {column: nonzero int}, in place:
    only the pivot row's columns are touched, and entries that cancel are
    dropped."""
    for j, y in pivot_row.items():
        x = row.get(j, 0) - q * y
        if x:
            row[j] = x
        else:
            del row[j]


def _sparse(rows):
    """Rows, dense or {column: entry}, as fresh sparse rows {column: nonzero int}."""
    return [{j: x if type(x) is int else as_int(x)
             for j, x in (row.items() if isinstance(row, dict) else enumerate(row)) if x}
            for row in rows]


def _eliminate(rows):
    """Forward elimination of sparse integer rows by unimodular row
    operations: (pivot rows, pivot columns, pivot row order).

    The rows that still lack a pivot are grouped by their leading column, so
    a column's pivot search sees exactly the rows holding it.  The group is
    reduced by nearest-quotient Euclid steps against its row of smallest
    absolute entry there until one row is left: the pivot row.  Ties go to
    the row of fewest nonzeros, whose subtraction touches fewest entries,
    then to the lowest row.  A row whose entry cancels joins the group of
    its new leading column.  Only row additions are made and rows are
    updated in place and never move, so the sign of det comes from the
    parity of the pivot row order.
    """
    groups = {}
    for i, row in enumerate(rows):
        if row:
            groups.setdefault(min(row), []).append(i)
    order, pivots = [], []
    for c in sorted(set().union(*rows)):
        group = groups.pop(c, None)
        if group is None:
            continue
        while len(group) > 1:
            r = min(group, key=lambda i: (abs(rows[i][c]), len(rows[i]), i))
            pivot_row = rows[r]
            p, p2 = pivot_row[c], 2 * pivot_row[c]
            rest = [r]
            for i in group:
                if i == r:
                    continue
                row = rows[i]
                _subtract(row, (2 * row[c] + p) // p2, pivot_row)  # |remainder| <= |p|/2
                if c in row:
                    rest.append(i)
                elif row:
                    groups.setdefault(min(row), []).append(i)
            group = rest
        order.append(group[0])
        pivots.append(c)
    return [rows[r] for r in order], pivots, order


def rank(m):
    """Exact rank of an integer matrix, or of its list of sparse rows
    {column: entry}."""
    sparse = isinstance(m, list) and m and isinstance(m[0], dict)
    return len(_eliminate(_sparse(m if sparse else _as_object(m).tolist()))[1])


def det(m):
    """Exact determinant of a square integer matrix, as a Python int."""
    a = _as_object(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError("determinant of a non-square matrix")
    rows, pivots, order = _eliminate(_sparse(a.tolist()))
    if len(pivots) < a.shape[0]:
        return 0
    d = prod(row[c] for row, c in zip(rows, pivots))
    return -d if _odd(order) else d


def kernel_basis(m):
    """Hermite basis of the integer kernel {v in Z^n : m v = 0}.

    Returns a list of object arrays of ints; its length is always
    cols - rank(m).
    """
    a = _as_object(m)
    if len(_eliminate(_sparse(a.tolist()))[1]) == a.shape[1]:  # full column rank
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
    It is `_eliminate`'s echelon form with each pivot row made positive and
    the rows above it reduced by it.
    """
    rows = list(rows)
    if not rows:
        return []
    n = len(rows[0])
    if any(len(row) != n for row in rows):
        raise ValueError("rows of unequal length")
    h, pivots, _ = _eliminate(_sparse(rows))
    _back_reduce(h, pivots)
    return [[row.get(j, 0) for j in range(n)] for row in h]


def _back_reduce(h, pivots):
    """Make echelon rows Hermite, in place: each pivot positive, and each
    row reduced by the reduced rows below it.  A row is reduced by the rows
    below it alone, so a tail of the rows is reduced exactly as within the
    whole form."""
    for row, c in zip(h, pivots):
        if row[c] < 0:
            for j in row:
                row[j] = -row[j]
    for k in reversed(range(len(h))):  # the rows below k are reduced already
        row = h[k]
        for below, c in zip(h[k + 1:], pivots[k + 1:]):
            q = row.get(c, 0) // below[c]
            if q:
                _subtract(row, q, below)


def _integer_kernel(rows, n):
    """Hermite basis of {x in Z^n : r . x = 0 for every row r}.

    Row-reducing [rows^T | I_n] is unimodular, so the identity parts of the
    reduced rows whose first part vanishes are a basis of that lattice.
    Those rows are the echelon form's tail, the rows pivoting past the
    first part, and only they are back-reduced.
    """
    m = len(rows)
    aug = [[r[i] for r in rows] + [int(i == j) for j in range(n)] for i in range(n)]
    h, pivots, _ = _eliminate(_sparse(aug))
    tail = bisect_left(pivots, m)
    h, pivots = h[tail:], pivots[tail:]
    _back_reduce(h, pivots)
    return [[row.get(j, 0) for j in range(m, m + n)] for row in h]


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
