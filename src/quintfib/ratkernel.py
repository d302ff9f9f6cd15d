"""Exact linear algebra over Z.

A matrix is a sequence of rows of Python ints (arbitrary precision): the
exact layers hold theirs as tuples of int tuples.  The matrix results here
are rows of ints too: `inverse` returns a tuple of int tuples, `kernel_basis`
and `saturate` lists of int tuples, and `row_hermite_form` a list of int
lists.  A 2-d numpy array is read through its shape and `tolist()`, so
this module imports no numpy; only `imat` and `smith_normal_form`, which
return object arrays for callers that index and multiply them, import it
when called.  No floating point and no fraction enters any code path.
Entries that are not integers are refused through `as_int` rather than
truncated; integral fractions, numpy ints and floats pass.

One elimination, `_eliminate`, a forward elimination on sparse integer rows
{column: nonzero int} by unimodular row operations, serves every result
but a certified rank.  Its pivot row in a column has the least absolute
entry there, ties going to the sparsest row and then the lowest
(Markowitz's tie-break).  A dense matrix is converted once on entry;
`rank` also takes a matrix as its list of such rows, the form in which
`sheafcoh` holds its Cech differentials.

- `rank` is certified over GF(2) first: rows as bitsets of their odd
  entries, reduced by XOR.  A GF(2) rank that reaches the row count, or a
  dense matrix's column count, is the rank over Q, and no elimination
  runs; otherwise the rank is `_eliminate`'s pivot count.
- `det` is the product of `_eliminate`'s pivots, signed by the parity of
  the pivot row order.
- `row_hermite_form` is `_eliminate`'s echelon form made canonical, and
  serves every lattice-valued result: `kernel_basis` (the Hermite basis of
  the integer kernel), `inverse` (of a unimodular matrix), `saturate` and
  `sublattice_index`.

Smith normal form is kept only as an independent reference for those
results.

All functions are pure and re-entrant; results are bit-identical across runs.
"""

from bisect import bisect_left
from math import gcd, inf, prod


def as_int(x):
    """x as a Python int; ValueError, not truncation, unless x is integral
    (integral Fractions, numpy ints and floats pass; NaN and inf do not)."""
    n = int(x) if abs(x) < inf else None
    if n != x:
        raise ValueError(f"expected an integer, got {x!r}")
    return n


def imat(rows):
    """Object-dtype numpy matrix with exact int entries from nested iterables."""
    import numpy as np  # for callers that assign its rows and multiply it

    a = np.array([[as_int(x) for x in row] for row in rows], dtype=object)
    if a.ndim != 2:
        raise ValueError("expected a 2-d array of entries")
    return a


def matmul3(a, b):
    """The product a b of two 3x3 integer matrices given as rows, as a tuple
    of int tuples.  It is written out: a zip/map product takes several
    times as long as numpy's object `@`, and this one less."""
    (a0, a1, a2), (a3, a4, a5), (a6, a7, a8) = a
    (b0, b1, b2), (b3, b4, b5), (b6, b7, b8) = b
    return ((a0 * b0 + a1 * b3 + a2 * b6, a0 * b1 + a1 * b4 + a2 * b7,
             a0 * b2 + a1 * b5 + a2 * b8),
            (a3 * b0 + a4 * b3 + a5 * b6, a3 * b1 + a4 * b4 + a5 * b7,
             a3 * b2 + a4 * b5 + a5 * b8),
            (a6 * b0 + a7 * b3 + a8 * b6, a6 * b1 + a7 * b4 + a8 * b7,
             a6 * b2 + a7 * b5 + a8 * b8))


def _dense(m):
    """(rows, column count) of a dense matrix: its rows as given, or a numpy
    array's rows through its `tolist()`."""
    if hasattr(m, "tolist"):
        if len(m.shape) != 2:
            raise ValueError("expected a matrix (2-d array)")
        return m.tolist(), m.shape[1]
    rows = list(m)
    if not rows or any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("expected a matrix: one or more rows of equal length")
    return rows, len(rows[0])


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


def _gf2_rank(rows):
    """Rank over GF(2) of integer rows, dense or {column: entry}.

    Each row is held as the int whose bit j is set where entry j is odd,
    and is reduced by XOR against the kept rows, keyed by leading bit.  The
    same pass checks every entry as `_sparse` does, so a non-integer is
    refused before any answer.
    """
    kept = {}
    for row in rows:
        b = 0
        for j, x in (row.items() if isinstance(row, dict) else enumerate(row)):
            if type(x) is not int:
                x = as_int(x) if x else 0
            if x & 1:
                b |= 1 << j
        while b:
            top = b.bit_length()
            pivot = kept.get(top)
            if pivot is None:
                kept[top] = b
                break
            b ^= pivot
    return len(kept)


def rank(m):
    """Exact rank of an integer matrix, or of its list of sparse rows
    {column: entry}; an empty list or tuple is the empty matrix, of rank 0.

    An odd minor is a nonzero integer, so the rank over GF(2) is at most
    the rank over Q, which is at most the row and the column count.  A
    GF(2) rank that reaches either count is therefore the rank, and no
    elimination over Z runs; otherwise `_eliminate` gives it.
    """
    sparse = isinstance(m, (list, tuple)) and (not m or isinstance(m[0], dict))
    rows, n = (m, None) if sparse else _dense(m)
    r = _gf2_rank(rows)
    if r == len(rows) or r == n:
        return r
    return len(_eliminate(_sparse(rows))[1])


def det(m):
    """Exact determinant of a square integer matrix, as a Python int."""
    rows, n = _dense(m)
    if len(rows) != n:
        raise ValueError("determinant of a non-square matrix")
    rows, pivots, order = _eliminate(_sparse(rows))
    if len(pivots) < n:
        return 0
    d = prod(row[c] for row, c in zip(rows, pivots))
    return -d if _odd(order) else d


def kernel_basis(m):
    """Hermite basis of the integer kernel {v in Z^n : m v = 0}.

    Returns a list of int tuples; its length is always cols - rank(m).
    """
    rows, n = _dense(m)
    if rank(rows) == n:  # full column rank
        return []
    return [tuple(v) for v in _integer_kernel(rows, n)]


def inverse(m):
    """Inverse of a unimodular integer matrix, as a tuple of int tuples.

    The Hermite form of [M | I] is [H | U] = U [M | I] with U unimodular;
    its left block H is I exactly when M is unimodular, and then U is the
    inverse.  ValueError for every other matrix.
    """
    rows, n = _dense(m)
    if len(rows) != n:
        raise ValueError("inverse of a non-square matrix")
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    h = row_hermite_form([[*row, *unit] for row, unit in zip(rows, eye)])
    if [row[:n] for row in h] != eye:
        raise ValueError("matrix is not unimodular")
    return tuple(tuple(row[n:]) for row in h)


def is_primitive(v):
    """True when the integer vector has coordinate gcd 1."""
    return gcd(*map(as_int, v)) == 1


def smith_normal_form(m):
    """Smith normal form of an integer matrix.

    Returns (D, L, Rinv) as numpy object arrays, with D = L @ m @ R
    diagonal, L and R unimodular, and Rinv = R^{-1} (tracked directly, so
    L @ m = D @ Rinv).  Diagonal entries are nonnegative with each dividing
    the next.  The pivot at step t is the first entry of least absolute
    value in the trailing block (row-major order); floor quotients clear
    its column, then its row, and a row holding an entry it does not divide
    is added to the pivot row.  The work is done on lists of rows: once
    step t is done, row t and column t of the block are zero apart from the
    pivot, so a column operation or swap touches the rows from t on only.
    """
    import numpy as np  # the result is indexed and multiplied as arrays

    rows, cols = _dense(m)
    a = [[as_int(x) for x in row] for row in rows]
    n = len(a)
    left = [[int(i == j) for j in range(n)] for i in range(n)]
    rinv = [[int(i == j) for j in range(cols)] for i in range(cols)]
    t = 0
    while t < min(n, cols):
        best, least = None, 0
        for i in range(t, n):
            row = a[i]
            for j in range(t, cols):
                x = row[j]
                if x and (best is None or abs(x) < least):
                    best, least = (i, j), abs(x)
            if least == 1:  # no later entry is strictly smaller
                break
        if best is None:
            break
        bi, bj = best
        if bi != t:
            a[t], a[bi] = a[bi], a[t]
            left[t], left[bi] = left[bi], left[t]
        if bj != t:
            for row in a[t:]:
                row[t], row[bj] = row[bj], row[t]
            rinv[t], rinv[bj] = rinv[bj], rinv[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            left[t] = [-x for x in left[t]]
        p, pivot_row, pivot_left = a[t][t], a[t], left[t]
        dirty = False
        for i in range(t + 1, n):
            if a[i][t]:
                q = a[i][t] // p
                a[i] = [x - q * y for x, y in zip(a[i], pivot_row)]
                left[i] = [x - q * y for x, y in zip(left[i], pivot_left)]
                dirty = dirty or a[i][t] != 0
        for j in range(t + 1, cols):
            if pivot_row[j]:
                q = pivot_row[j] // p
                for row in a[t:]:
                    row[j] -= q * row[t]
                rinv[t] = [x + q * y for x, y in zip(rinv[t], rinv[j])]
                dirty = dirty or pivot_row[j] != 0
        if dirty:
            continue
        # divisibility: the pivot must divide the rest of the block
        witness = next((i for i in range(t + 1, n)
                        if any(x % p for x in a[i][t + 1:])), None)
        if witness is not None:  # fold the offending row in, redo the block
            a[t] = [x + y for x, y in zip(a[t], a[witness])]
            left[t] = [x + y for x, y in zip(left[t], left[witness])]
            continue
        t += 1
    return (np.array(a, dtype=object).reshape(n, cols),
            np.array(left, dtype=object).reshape(n, n),
            np.array(rinv, dtype=object).reshape(cols, cols))


def sublattice_index(gens):
    """Index in Z^n, n the vectors' length, of the lattice spanned by the
    integer row vectors.

    The index is the product of the Hermite normal form's pivots.  Returns
    None when the span is not of full rank in Z^n.
    """
    gens = list(gens)
    if not gens:
        return None
    h = row_hermite_form(gens)
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
    automatically primitive.  The inner kernel is `kernel_basis`'s, which
    at full column rank is empty after one elimination; the kernel of no
    vectors is Z^n, the identity rows, so full-rank input never eliminates
    the 2n-column [vectors^T | I].
    """
    vectors = [[as_int(x) for x in v] for v in vectors]
    if not vectors:
        return []
    n = len(vectors[0])
    if any(len(v) != n for v in vectors):
        raise ValueError("vectors of unequal length")
    return [tuple(row) for row in _integer_kernel(kernel_basis(vectors), n)]
