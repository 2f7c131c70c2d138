"""Finite-dimensional real Lie algebras via exact structure constants.

A LieAlgebraData holds a basis, a designated center/complement split
and the bracket table over the rationals in two forms: `structure`,
dense coefficient rows that serialization and callers read, and the
sparse rows derived from it, on which every bracket computed here runs.
All structural queries run in exact arithmetic, so a zero really is a
zero.  Algebras are immutable: invariants are computed on first use and
cached on the instance.
"""

from collections import defaultdict
from fractions import Fraction

from . import linalg

_ONE = Fraction(1)


class LieAlgebraData:
    """Structure constants with a designated z + v basis split.

    structure maps (i, j) with i < j to the coefficient vector of
    [b_i, b_j]; the (j, i) value is implied by antisymmetry and
    diagonal brackets vanish.  bracket_row(i, j) gives the nonzero
    (k, c) pairs of [b_i, b_j] for either order.
    """

    __slots__ = ("dim", "basis_labels", "structure", "_rows",
                 "center_indices", "complement_indices", "name", "meta",
                 "_cache")

    def __init__(self, dim, basis_labels, structure, center_indices,
                 complement_indices, name="", meta=None):
        if dim <= 0:
            raise ValueError("dim must be positive")
        if len(basis_labels) != dim:
            raise ValueError("basis_labels length mismatch")
        clean = {}
        rows = tuple({} for _ in range(dim))
        for (i, j), vec in structure.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"structure key ({i},{j}) out of range")
            if i >= j:
                raise ValueError("structure keys must have i < j")
            vec = tuple(Fraction(c) for c in vec)
            if len(vec) != dim:
                raise ValueError("structure value length mismatch")
            pairs = tuple((k, c) for k, c in enumerate(vec) if c)
            if pairs:
                clean[(i, j)] = vec
                rows[i][j] = pairs
                rows[j][i] = tuple((k, -c) for k, c in pairs)
        center_indices = tuple(center_indices)
        complement_indices = tuple(complement_indices)
        if sorted(center_indices + complement_indices) != list(range(dim)):
            raise ValueError("center/complement must partition the basis")
        self.dim = dim
        self.basis_labels = tuple(basis_labels)
        self.structure = clean
        self._rows = rows
        self.center_indices = center_indices
        self.complement_indices = complement_indices
        self.name = name
        self.meta = dict(meta) if meta else {}
        self._cache = {}

    def bracket_row(self, i, j):
        """[b_i, b_j] as its nonzero (k, c) pairs, in increasing k."""
        return self._rows[i].get(j, ())

    def bracket_basis(self, i, j):
        """[b_i, b_j] as a coefficient vector."""
        vec = [Fraction(0)] * self.dim
        for k, c in self.bracket_row(i, j):
            vec[k] = c
        return vec

    def cached(self, key, compute):
        """compute(self), evaluated once per key for this instance."""
        if key not in self._cache:
            self._cache[key] = compute(self)
        return self._cache[key]

    def __repr__(self):
        return f"LieAlgebraData({self.name or 'dim ' + str(self.dim)})"


def _support(vec):
    return [(i, Fraction(c)) for i, c in enumerate(vec) if c]


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
    """Bilinear extension of the structure constants; exact."""
    if len(x) != alg.dim or len(y) != alg.dim:
        raise ValueError("vector dimension mismatch")
    return _accumulate(alg, _support(x), _support(y),
                       [Fraction(0)] * alg.dim)


def ad_matrix(alg, i):
    """Matrix of ad(b_i) acting on coefficient columns."""
    mat = linalg.zeros(alg.dim, alg.dim)
    for j, row in alg._rows[i].items():
        for k, c in row:
            mat[k][j] = c
    return mat


def jacobi_defect(alg):
    """Max |coefficient| of the Jacobi cyclic sum over all basis triples.

    [[b_i, b_j], b_k] is the kernel on the row of [b_i, b_j] and b_k.
    """
    worst = Fraction(0)
    n = alg.dim
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                out = defaultdict(int)
                for p, q, r in ((i, j, k), (j, k, i), (k, i, j)):
                    _accumulate(alg, alg.bracket_row(p, q), ((r, _ONE),), out)
                worst = max([worst, *map(abs, out.values())])
    return worst


def derived_subalgebra(alg):
    """Reduced-echelon basis of [n, n]."""
    return linalg.rref(list(alg.structure.values()))[0]


def center(alg):
    """Reduced-echelon basis of the center; cached, returned as fresh rows."""
    return [list(row) for row in alg.cached("center", _center)]


def _center(alg):
    # ker of every ad(b_i) at once
    stacked = [row for i in range(alg.dim) for row in ad_matrix(alg, i)
               if any(row)]
    return linalg.kernel(stacked) if stacked else linalg.identity(alg.dim)


def nilpotency_class(alg):
    """Length of the lower central series (1 = abelian); cached."""
    return alg.cached("nilpotency_class", _nilpotency_class)


def _nilpotency_class(alg):
    # C^1 = n and C^(k+1) = [n, C^k] lies inside C^k, so the series
    # either loses dimension at every step or has stalled for good
    current, step = linalg.identity(alg.dim), 0
    while current:
        rows = []
        for v in current:
            vs = _support(v)
            for i in range(alg.dim):
                w = _accumulate(alg, ((i, _ONE),), vs, [Fraction(0)] * alg.dim)
                if any(w):
                    rows.append(w)
        nxt = linalg.rref(rows)[0]
        if nxt and len(nxt) == len(current):
            raise ValueError("algebra is not nilpotent")
        current, step = nxt, step + 1
    return step


def subalgebra(alg, indices, name=""):
    """Restrict to the span of the given basis indices.

    The span must be closed under the bracket.  The designated center
    of the restriction is its computed center, which must be spanned by
    restricted basis vectors (true for every split this package
    builds).
    """
    indices = list(indices)
    pos = {g: i for i, g in enumerate(indices)}
    structure = {}
    for a, gi in enumerate(indices):
        for b in range(a + 1, len(indices)):
            gj = indices[b]
            restricted = [Fraction(0)] * len(indices)
            for k, c in alg.bracket_row(gi, gj):
                if k not in pos:
                    raise ValueError(
                        f"span not closed: [{alg.basis_labels[gi]},"
                        f"{alg.basis_labels[gj]}] leaves the subspace")
                restricted[pos[k]] = c
            structure[(a, b)] = restricted
    # a basis vector is central iff it brackets to zero with the span
    central = [a for a, gi in enumerate(indices)
               if not any(alg.bracket_row(gi, gj) for gj in indices)]
    sub = LieAlgebraData(
        dim=len(indices),
        basis_labels=[alg.basis_labels[g] for g in indices],
        structure=structure,
        center_indices=central,
        complement_indices=[a for a in range(len(indices))
                            if a not in set(central)],
        name=name or f"{alg.name}|sub",
        meta=dict(alg.meta),
    )
    if len(center(sub)) != len(central):
        raise ValueError("computed center is not spanned by basis vectors")
    return sub


def _frac_str(c):
    return f"{c.numerator}/{c.denominator}"


def to_json(alg):
    """JSON-ready dict; rationals as exact "p/q" strings."""
    brackets = []
    for (i, j) in sorted(alg.structure):
        brackets.append({
            "i": i,
            "j": j,
            "coeffs": [_frac_str(c) for c in alg.structure[(i, j)]],
        })
    doc = {
        "dim": alg.dim,
        "labels": list(alg.basis_labels),
        "center": list(alg.center_indices),
        "complement": list(alg.complement_indices),
        "brackets": brackets,
    }
    if alg.name:
        doc["name"] = alg.name
    if alg.meta:
        doc["meta"] = alg.meta
    return doc


def from_json(doc):
    structure = {}
    for entry in doc["brackets"]:
        structure[(entry["i"], entry["j"])] = [Fraction(s) for s in entry["coeffs"]]
    return LieAlgebraData(
        dim=doc["dim"],
        basis_labels=doc["labels"],
        structure=structure,
        center_indices=doc["center"],
        complement_indices=doc.get(
            "complement",
            [i for i in range(doc["dim"]) if i not in set(doc["center"])]),
        name=doc.get("name", ""),
        meta=doc.get("meta"),
    )
