"""Finite-dimensional real Lie algebras via exact structure constants.

A LieAlgebraData holds a basis, a designated center/complement split
and one bracket table: sparse rows, [b_i, b_j] as its nonzero (k, c)
pairs.  A coefficient is an int when it is integral and a Fraction
otherwise, so every catalog algebra holds ints only.  Every bracket
computed here runs on these rows, on exact vectors in integers over
one denominator.  The structural queries visit only the nonzero
brackets (on a 2-step algebra, no double bracket at all) and hand rows
of the same sparse form, with no dense copy, to the fraction-free
elimination of linalg, so a zero really is a zero.
Algebras are immutable: invariants, and the dense `structure` table
for readers that want one, are computed on first use and cached on
the instance.
"""

from collections import defaultdict
from fractions import Fraction
from types import MappingProxyType

from . import linalg


def _exact(c):
    """c as an int when it is integral, else as a Fraction."""
    if type(c) is not int:
        c = Fraction(c)
        if c.denominator == 1:
            c = c.numerator
    return c


class LieAlgebraData:
    """Structure constants with a designated z + v basis split.

    entries are (i, j, k, c) with i < j, meaning [b_i, b_j] += c b_k;
    repeated (i, j, k) add up and zero sums drop.  The (j, i) bracket
    is implied by antisymmetry and diagonal brackets vanish.
    bracket_row(i, j) gives the nonzero (k, c) pairs of [b_i, b_j] for
    either order.
    """

    __slots__ = ("dim", "basis_labels", "_rows", "center_indices",
                 "complement_indices", "name", "meta", "_cache")

    def __init__(self, dim, basis_labels, entries, center_indices,
                 complement_indices, name="", meta=None):
        if dim <= 0:
            raise ValueError("dim must be positive")
        if len(basis_labels) != dim:
            raise ValueError("basis_labels length mismatch")
        acc = {}
        for i, j, k, c in entries:
            if not (0 <= i < j < dim and 0 <= k < dim):
                raise ValueError(f"bracket entry ({i},{j},{k}) is out of "
                                 "range or does not have i < j")
            row = acc.setdefault((i, j), {})
            row[k] = row.get(k, 0) + _exact(c)
        rows = tuple({} for _ in range(dim))
        for (i, j), row in acc.items():
            row = tuple((k, _exact(c)) for k, c in sorted(row.items()) if c)
            if row:
                rows[i][j] = row
                rows[j][i] = tuple((k, -c) for k, c in row)
        center_indices = tuple(center_indices)
        complement_indices = tuple(complement_indices)
        if sorted(center_indices + complement_indices) != list(range(dim)):
            raise ValueError("center/complement must partition the basis")
        self.dim = dim
        self.basis_labels = tuple(basis_labels)
        self._rows = rows
        self.center_indices = center_indices
        self.complement_indices = complement_indices
        self.name = name
        self.meta = dict(meta) if meta else {}
        self._cache = {}

    def bracket_row(self, i, j):
        """[b_i, b_j] as its nonzero (k, c) pairs, in increasing k."""
        return self._rows[i].get(j, ())

    def brackets(self):
        """{(i, j): bracket_row(i, j)} over the nonzero brackets with
        i < j, in increasing (i, j)."""
        return {(i, j): row for i, row_i in enumerate(self._rows)
                for j, row in sorted(row_i.items()) if i < j}

    @property
    def structure(self):
        """Read-only dense table: (i, j), i < j, to the coefficient
        tuple of [b_i, b_j]; derived from the sparse rows on first read."""
        return self.cached("structure", lambda alg: MappingProxyType(
            {key: tuple(_dense(alg.dim, row))
             for key, row in alg.brackets().items()}))

    def cached(self, key, compute):
        """compute(self), evaluated once per key for this instance."""
        if key not in self._cache:
            self._cache[key] = compute(self)
        return self._cache[key]

    def __repr__(self):
        return f"LieAlgebraData({self.name or 'dim ' + str(self.dim)})"


def _dense(dim, pairs):
    vec = [0] * dim
    for k, c in pairs:
        vec[k] = c
    return vec


def _support(vec):
    return [(i, c) for i, c in enumerate(vec) if c]


def _accumulate(alg, xs, ys, out):
    """The bracket kernel: out[k] += [x, y]_k, for x and y given by
    their nonzero (index, coefficient) pairs."""
    for i, a in xs:
        row_i = alg._rows[i]
        for j, b in ys:
            row = row_i.get(j)
            if row:
                c = a * b
                for k, v in row:
                    out[k] += c * v
    return out


def bracket(alg, x, y):
    """Bilinear extension of the structure constants: exact input (ints
    and Fractions) runs in integers over dx * dy, any other as it is,
    from an int 0 in each coordinate."""
    exact = _scaled_bracket(alg, x, y)
    if exact is None:
        return _accumulate(alg, _support(x), _support(y), [0] * alg.dim)
    (_, dx), (_, dy), out = exact
    return linalg._unscaled(out, dx * dy)


def _scaled_bracket(alg, x, y):
    """((xs, dx), (ys, dy), [xs, ys]) with x = xs / dx and y = ys / dy in
    integers; None unless every entry is an int or a Fraction."""
    if len(x) != alg.dim or len(y) != alg.dim:
        raise ValueError("vector dimension mismatch")
    if not all(type(c) in linalg._EXACT for vec in (x, y) for c in vec):
        return None
    sx, sy = linalg._scaled(x), linalg._scaled(y)
    return sx, sy, _accumulate(alg, _support(sx[0]), _support(sy[0]),
                               [0] * alg.dim)


def jacobi_defect(alg):
    """Max |coefficient| of the Jacobi cyclic sum over all basis triples.

    The sum vanishes unless some [[b_p, b_q], b_r] does, that is unless
    b_r brackets a b_m in [b_p, b_q]; only such triples are visited.
    """
    triples = {tuple(sorted((p, q, r)))
               for (p, q), row in alg.brackets().items()
               for m, _ in row for r in alg._rows[m] if r != p and r != q}
    worst = 0
    for i, j, k in triples:
        out = defaultdict(int)
        for p, q, r in ((i, j, k), (j, k, i), (k, i, j)):
            _accumulate(alg, alg.bracket_row(p, q), ((r, 1),), out)
        worst = max([worst, *map(abs, out.values())])
    return worst


def derived_subalgebra(alg):
    """Reduced-echelon basis of [n, n], rref of its cached echelon."""
    rows = _derived_echelon(alg).values()
    return linalg.rref((row.items() for row in rows), alg.dim)[0]


def _derived_echelon(alg):
    # [n, n] = C^2 as {pivot: primitive integer row}, once per algebra
    return alg.cached("C2", lambda a: linalg.echelon(a.brackets().values()))


def derived_inside_center(alg):
    """Whether [n, n] lies in the span of the center basis vectors.

    [n, n] is spanned by the bracket rows, so it does exactly when the
    support of every bracket row does.
    """
    zset = set(alg.center_indices)
    return all(k in zset for row in alg.brackets().values() for k, _ in row)


def center(alg):
    """Reduced-echelon basis of the center; cached, returned as fresh rows."""
    return [list(row) for row in alg.cached("center", _center)]


def _center(alg):
    # x is central iff sum_i x_i [b_i, b_j]_k = 0 for every nonzero (j, k)
    eqs = defaultdict(list)
    for i, row_i in enumerate(alg._rows):
        for j, row in row_i.items():
            for k, c in row:
                eqs[j, k].append((i, c))
    return linalg.kernel(eqs.values(), alg.dim)


def nilpotency_class(alg):
    """Length of the lower central series (1 = abelian); cached."""
    return alg.cached("nilpotency_class", _nilpotency_class)


def _nilpotency_class(alg):
    # C^1 = n and C^(k+1) = [n, C^k] lies inside C^k, so the series
    # either loses dimension at every step or has stalled for good.
    # C^2 is spanned by the bracket rows, and [n, w] by the [b_i, w]
    # with b_i bracketing some b_k in w's support.  Each C^k is kept as
    # the pivot rows of its integer echelon, C^2 the cached one.
    size, step = alg.dim, 1
    current = _derived_echelon(alg)
    while current:
        if len(current) == size:
            raise ValueError("algebra is not nilpotent")
        rows = (_accumulate(alg, ((i, 1),), w.items(),
                            defaultdict(int)).items()
                for w in current.values()
                for i in {i for k in w for i in alg._rows[k]})
        size, current, step = len(current), linalg.echelon(rows), step + 1
    return step
