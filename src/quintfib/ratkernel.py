"""Exact linear algebra over Q and Z.

Everything here is exact: matrices are numpy object arrays whose entries are
Python ints or fractions.Fraction (arbitrary precision, always in lowest
terms, positive denominators).  No floating point enters any code path.

Rank, determinant and reduced row echelon form (and through it kernels
and inverses) share one fraction-free elimination, `_echelon`, on sparse
integer rows {column: nonzero int}.  A dense matrix is converted once on
entry; `rank` also takes a matrix as its list of such rows, the form in
which `sheafcoh` holds its Cech differentials.  A row operation touches
only the nonzeros of its two rows, and the pivot search of a column sees
only the rows whose leading entry lies there.  The pivot is the entry of
smallest absolute value, ties going to the lowest original row; rows are
never swapped, so the sign of a determinant is the parity of the final
row order.  Entries stay within Hadamard's bound on the minors instead of
growing exponentially on dense input.

Lattice saturation and sublattice indices go through the row Hermite
normal form, with unimodular integer row operations; Smith normal form is
kept only as an independent reference for those results.  The integer
routines refuse entries that are not integers (`as_int`) rather than
truncate them.

All functions are pure and re-entrant; results are bit-identical across runs.
"""

from fractions import Fraction
from math import gcd, inf, lcm, prod

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
    """Primitive part of p*row - f*pivot_row, and the content divided out.

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
    g = gcd(*out.values())
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
    """Fraction-free forward elimination on sparse rows: (rows, pivots, scale).

    `m` is a 2-d object array, converted once through `tolist()`, or a list
    of sparse rows {column: entry}; each row is scaled by the lcm of its
    denominators.  The rows that still lack a pivot are grouped by their
    leading column, so the pivot search of a column sees exactly the rows
    holding it.  Its pivot is the entry of smallest absolute value, ties
    going to the lowest original row; every other row of the group is
    replaced by `_combine` and joins the group of its new leading column.
    Fill-in lies right of the pivot column and in columns where some input
    row has a nonzero, so only those columns are visited.  Every row is its
    Bareiss row or that row's primitive part, so entries stay within
    Hadamard's bound.  Rows never move: the echelon rows are the pivot rows
    in pivot order, and the sign of det comes from the parity of that row
    order.  det(m) = scale * (product of the pivots) for square nonsingular m.
    """
    num, den = 1, 1
    rows = []
    for row in (m.tolist() if isinstance(m, np.ndarray) else m):
        if not isinstance(row, dict):
            row = {j: x for j, x in enumerate(row) if x}
        if not set(map(type, row.values())) <= {int}:  # int rows skip Fractions
            row = {j: Fraction(x) for j, x in row.items()}
            d = lcm(*(x.denominator for x in row.values()))
            row = {j: x.numerator * (d // x.denominator) for j, x in row.items()}
            num *= d
        rows.append(row)
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
    return [rows[r] for r in order], tuple(pivots), Fraction(den, num)


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
            if c in rows[i]:
                rows[i], _ = _combine(pivot_row[c], rows[i], rows[i][c], pivot_row)
    out = np.full(a.shape, Fraction(0), dtype=object)
    for i, (row, c) in enumerate(zip(rows, pivots)):
        line = [Fraction(0)] * a.shape[1]
        for j, x in row.items():
            line[j] = Fraction(x, row[c])
        out[i] = line
    return out, pivots


def rank(m):
    """Exact rank over Q of a matrix, or of its list of sparse rows
    {column: entry}."""
    sparse = isinstance(m, list) and m and isinstance(m[0], dict)
    return len(_echelon(m if sparse else _as_object(m))[1])


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
    if len(pivots) < a.shape[0]:
        return Fraction(0)
    return scale * prod(row[c] for row, c in zip(rows, pivots))


def int_det(m):
    """Determinant of an integer matrix, returned as a Python int."""
    d = det(m)
    if d.denominator != 1:
        raise ValueError("matrix is not integral")
    return int(d)


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
    """
    a = [[as_int(x) for x in row] for row in rows]
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
    vectors = [[as_int(x) for x in v] for v in vectors]
    if not vectors:
        return []
    n = len(vectors[0])
    if any(len(v) != n for v in vectors):
        raise ValueError("vectors of unequal length")
    basis = _integer_kernel(_integer_kernel(vectors, n), n)
    return [np.array(row, dtype=object) for row in basis]
