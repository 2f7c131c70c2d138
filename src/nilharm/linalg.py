"""Exact linear algebra over the rationals, eliminated in integers.

Small dense matrices only (the largest catalog algebra has dim 46).
A matrix is a list of rows whose entries are ints, Fractions or anything
Fraction() accepts; every result is exact.  Elimination never divides:
each row is first scaled to coprime integers, which leaves its span
unchanged.  rref then eliminates on sparse integer rows, kept primitive,
and divides by the pivots only at the end; det runs Bareiss's
fraction-free elimination (Math. Comp. 22, 1968).
"""

from fractions import Fraction
from math import gcd, lcm


def frac_matrix(rows):
    """Copy a matrix, coercing every entry to Fraction."""
    return [[Fraction(x) for x in row] for row in rows]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0))
             for col in zip(*b)] for row in a]


def transpose(mat):
    return [list(col) for col in zip(*mat)]


def _scaled(row):
    """(ints, den): row times den, den the lcm of its denominators."""
    if all(type(x) is int for x in row):
        return list(row), 1
    vals = [Fraction(x) for x in row]
    den = lcm(*(x.denominator for x in vals))
    return [x.numerator * (den // x.denominator) for x in vals], den


def _primitive(vec):
    """A sparse integer row {column: value} divided by its content."""
    g = gcd(*vec.values())
    return vec if g == 1 else {c: x // g for c, x in vec.items()}


def _eliminate(vec, piv, c):
    """piv[c] * vec - vec[c] * piv, made primitive: zero in column c."""
    a, b = piv[c], vec[c]
    out = {k: a * x for k, x in vec.items()} if a != 1 else dict(vec)
    for k, y in piv.items():
        s = out.get(k, 0) - b * y
        if s:
            out[k] = s
        else:
            del out[k]
    return _primitive(out)


def _echelon(rows):
    """{pivot column: primitive sparse integer row}, fully reduced.

    Rows enter one at a time.  Each is reduced against the pivot rows
    at the pivot columns in its support (every pivot row is zero on
    every other pivot column, so one reduction neither clears nor adds
    another pivot entry, and their order does not matter); a nonzero
    remainder leads at a column no pivot holds, becomes a pivot row,
    and is cleared from the earlier pivot rows.  A pivot row leads at
    its pivot column throughout.
    """
    basis = {}
    for row in rows:
        vec = {c: x for c, x in enumerate(_scaled(row)[0]) if x}
        for c in [c for c in vec if c in basis]:
            vec = _eliminate(vec, basis[c], c)
        if not vec:
            continue
        vec = _primitive(vec)
        lead = min(vec)
        for c, piv in basis.items():
            if lead in piv:
                basis[c] = _eliminate(piv, vec, lead)
        basis[lead] = vec
    return basis


def rref(rows):
    """Reduced row echelon form.

    Returns (echelon_rows, pivot_columns), the rows as Fractions.  Zero
    rows are dropped.  The reduced echelon form of a row space is
    unique, so the result does not depend on the order of the rows.
    """
    basis = _echelon(rows)
    pivots = sorted(basis)
    echelon = []
    for c in pivots:
        row = [Fraction(0)] * len(rows[0])
        for k, x in basis[c].items():
            row[k] = Fraction(x, basis[c][c])
        echelon.append(row)
    return echelon, pivots


def row_basis(rows):
    """Primitive integer rows spanning the row space of rows: rref's
    elimination before the pivots divide, for a caller that needs a
    span and its dimension but no normal form."""
    out = []
    for vec in _echelon(rows).values():
        row = [0] * len(rows[0])
        for k, x in vec.items():
            row[k] = x
        out.append(row)
    return out


def rank(rows):
    return len(_echelon(rows))


def kernel(rows):
    """Basis of the right null space, reduced-echelon style: one vector
    per free column, 1 there, read off the integer echelon."""
    if not rows:
        return []
    ncols = len(rows[0])
    ech = _echelon(rows)
    basis = []
    for fc in sorted(set(range(ncols)) - set(ech)):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for pc, piv in ech.items():
            if fc in piv:
                vec[pc] = Fraction(-piv[fc], piv[pc])
        basis.append(vec)
    return basis


def det(rows):
    """Exact determinant, a Fraction, by Bareiss elimination.

    Each row is scaled to integers first; the determinant of the scaled
    matrix is divided by the product of the scales at the end.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant needs a square matrix")
    mat, scale = [], 1
    for row in rows:
        ints, den = _scaled(row)
        mat.append(ints)
        scale *= den
    sign, prev = 1, 1
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if mat[i][c]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            mat[c], mat[pivot_row] = mat[pivot_row], mat[c]
            sign = -sign
        piv, top = mat[c][c], mat[c]
        for i in range(c + 1, n):
            row, f = mat[i], mat[i][c]
            # exact: Sylvester's identity makes every entry divisible
            mat[i] = [0] * (c + 1) + [(piv * row[j] - f * top[j]) // prev
                                      for j in range(c + 1, n)]
        prev = piv
    return Fraction(sign * prev, scale)
