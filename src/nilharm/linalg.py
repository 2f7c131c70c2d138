"""Exact linear algebra over the rationals.

Small dense matrices only (the largest catalog algebra has dim 46), so
plain fraction Gaussian elimination is fine.  Matrices are lists of lists of
Fraction; vectors are lists of Fraction.
"""

from fractions import Fraction


def frac_matrix(rows):
    """Copy a matrix, coercing every entry to Fraction."""
    return [[Fraction(x) for x in row] for row in rows]


def zeros(n, m):
    return [[Fraction(0)] * m for _ in range(n)]


def identity(n):
    mat = zeros(n, n)
    for i in range(n):
        mat[i][i] = Fraction(1)
    return mat


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = zeros(n, m)
    for i in range(n):
        for j in range(m):
            out[i][j] = sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0))
    return out


def transpose(mat):
    return [list(col) for col in zip(*mat)]


def rref(rows):
    """Reduced row echelon form.

    Returns (echelon_rows, pivot_columns).  Zero rows are dropped.
    Pivoting picks the first nonzero entry in column order, which makes
    the output deterministic for golden tests.
    """
    mat = frac_matrix(rows)
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [mat[i][j] - f * mat[r][j] for j in range(ncols)]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rank(rows):
    return len(rref(rows)[0])


def kernel(rows):
    """Basis of the right null space, reduced-echelon style.

    One basis vector per free column, with a 1 in the free coordinate.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    ech, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -ech[r][fc]
        basis.append(vec)
    return basis


def det(rows):
    """Exact determinant via fraction Gaussian elimination."""
    mat = frac_matrix(rows)
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("determinant needs a square matrix")
    sign = 1
    out = Fraction(1)
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if mat[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            mat[c], mat[pivot_row] = mat[pivot_row], mat[c]
            sign = -sign
        out *= mat[c][c]
        inv = Fraction(1) / mat[c][c]
        for i in range(c + 1, n):
            if mat[i][c] != 0:
                f = mat[i][c] * inv
                mat[i] = [mat[i][j] - f * mat[c][j] for j in range(n)]
    return out * sign
