"""Exact linear algebra over the rationals, eliminated in integers.

Elimination (echelon, rref, kernel) takes sparse rows: a row is an
iterable of (column, value) pairs on distinct columns, the values ints
or Fractions, zeros skipped.  That is the form of
LieAlgebraData.bracket_row, so bracket rows enter as they are.
Elimination never divides: each row is first scaled to coprime
integers, which leaves its span unchanged, then eliminated as a sparse
integer row kept primitive; rref divides by the pivots only at the end,
and rref and kernel return dense Fraction rows.  det, mat_mul and
transpose take dense matrices, lists of rows; det runs Bareiss's
fraction-free elimination (Math. Comp. 22, 1968), _pivot_pairs runs it
on skew pivot pairs.  Every result is exact.  _scaled and _unscaled
take values to ints over one denominator and back, for the kernels.
"""

from fractions import Fraction
from math import gcd, lcm

_EXACT = (int, Fraction)    # the types exact kernels take as they are
_ZERO = Fraction(0)


def mat_mul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0))
             for col in zip(*b)] for row in a]


def transpose(mat):
    return [list(col) for col in zip(*mat)]


def _scaled(values):
    """(ints, den): values, read as Fractions, times den, the lcm of their
    denominators, taken in a loop (a starred generator raises the peak)."""
    ratios = [(x if type(x) in _EXACT else Fraction(x))
              .as_integer_ratio() for x in values]
    den = 1
    for _, q in ratios:
        if den % q:
            den = lcm(den, q)
    return [p * (den // q) for p, q in ratios], den


def _int_rows(rows):
    """(int rows, den): the square matrix rows times den, as _scaled."""
    n = len(rows)
    ints, den = _scaled([x for row in rows for x in row])
    return [ints[i * n:(i + 1) * n] for i in range(n)], den


def _unscaled(ints, den):
    """[Fraction(c, den) for c in ints], one built per nonzero c."""
    return [Fraction(c, den) if c else _ZERO for c in ints]


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


def echelon(rows):
    """{pivot column: primitive sparse integer row}, fully reduced.

    Rows enter one at a time, their nonzero values scaled to integers.
    Each is reduced against the pivot rows at the pivot columns in its
    support (every pivot row is zero on every other pivot column, so
    one reduction neither clears nor adds another pivot entry, and
    their order does not matter); a nonzero remainder leads at a column
    no pivot holds, becomes a pivot row, and is cleared from the
    earlier pivot rows.  A pivot row leads at its pivot column
    throughout.
    """
    basis = {}
    for row in rows:
        vec = {c: x for c, x in row if x}
        if not all(type(x) is int for x in vec.values()):
            vec = dict(zip(vec, _scaled(vec.values())[0]))
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


def rref(rows, ncols):
    """Reduced row echelon form of sparse rows with ncols columns.

    Returns (echelon_rows, pivot_columns), the rows dense and their
    entries Fractions.  The reduced echelon form of a row space is
    unique, so the result does not depend on the order of the rows.
    """
    basis = echelon(rows)
    pivots = sorted(basis)
    out = []
    for c in pivots:
        row = [Fraction(0)] * ncols
        for k, x in basis[c].items():
            row[k] = Fraction(x, basis[c][c])
        out.append(row)
    return out, pivots


def kernel(rows, ncols):
    """Basis of the right null space of sparse rows with ncols columns,
    reduced-echelon style: one dense Fraction vector per free column,
    1 there, read off the integer echelon.  No rows give the identity."""
    ech = echelon(rows)
    basis = []
    for fc in range(ncols):
        if fc in ech:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for pc, piv in ech.items():
            if fc in piv:
                vec[pc] = Fraction(-piv[fc], piv[pc])
        basis.append(vec)
    return basis


def det(rows):
    """Exact determinant of a dense square matrix, a Fraction, by
    Bareiss elimination.

    The matrix is scaled to integers first; the determinant of the
    scaled matrix is divided by scale^n at the end.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant needs a square matrix")
    mat, scale = _int_rows(rows)
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
    return Fraction(sign * prev, scale ** n)


def _pivot_pairs(gram, vectors=None):
    """Pivot-pair elimination (Bunch, Math. Comp. 38, 1982) of an int
    skew gram, with basis rows vectors if given, both consumed: per pair
    it yields (a, b, s, prev), the first a < b with s = gram[a][b] != 0
    and the pivot before (at first 1), drops rows a and b, and takes
    each other w to (s w - G_wb v_a + G_wa v_b) / prev and G_pq to (s
    G_pq + G_pb G_qa - G_pa G_qb) / prev, exact as in Bareiss.  So the
    pair's value is s / prev and the rank 2 per pair; the basis change
    has det +-1, so Pf is the last pivot, -1 per even b, when every a
    is 0.  O(n^3)."""
    prev = 1
    while gram:
        # the rows above are zero, so row is zero up to its diagonal
        for a, row in enumerate(gram):
            if any(row):
                break
        else:
            return
        s = next(filter(None, row))
        b = row.index(s)
        yield a, b, s, prev
        del gram[b], gram[a]
        gb, ga = [r.pop(b) for r in gram], [r.pop(a) for r in gram]
        if vectors is not None:
            v, u = vectors.pop(b), vectors.pop(a)
            vectors[:] = [[(s * w - x * y + z * t) // prev
                           for w, y, t in zip(r, u, v)]
                          for r, x, z in zip(vectors, gb, ga)]
        gram[:] = [[(s * y + x * zq - z * xq) // prev
                    for y, zq, xq in zip(r, ga, gb)]
                   for r, x, z in zip(gram, gb, ga)]
        prev = s


def _components(n, pairs):
    """The uncoupled blocks of a matrix with off-diagonal pattern pairs:
    the components of that graph on range(n), increasing tuples."""
    block = [[k] for k in range(n)]     # block[k]: k's, led by its least
    for a, b in pairs:
        x, y = block[a], block[b]
        if x is not y:
            x, y = (x, y) if x[0] < y[0] else (y, x)
            x += y
            for k in y:
                block[k] = x
    return [tuple(sorted(b)) for k, b in enumerate(block) if b[0] == k]
