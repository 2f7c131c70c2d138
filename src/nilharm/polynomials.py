"""Sparse multivariate polynomials with int or Fraction coefficients.

Symbolic Pfaffians come out as Polys, one variable per center
coordinate (42 on free2step:7:C).  Monomials are exponent tuples; the
zero polynomial is the empty dict.  A coefficient is an int when it is
integral and a Fraction otherwise (algebra._exact), so the Pfaffians of
the catalog's integer brackets expand in ints.
"""

from operator import add

from .algebra import _exact


def _add_terms(out, pairs):
    # one pair at a time, a zero sum deleted: every Poly's term order
    for mono, c in pairs:
        s = out.get(mono, 0) + c
        if s:
            out[mono] = s
        else:
            del out[mono]
    return out


class Poly:
    """Polynomial in a fixed number of variables over Q.

    terms: dict exponent-tuple -> nonzero coefficient, an int when
    integral, else a Fraction.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        exact = ((tuple(m), _exact(c)) for m, c in (terms or {}).items())
        self.terms = {m: c for m, c in exact if c}

    @classmethod
    def _of(cls, nvars, terms):
        # trusted: terms maps tuples to nonzero numbers, taken as they
        # are but for a Fraction that may be integral
        for mono, c in terms.items():
            if type(c) is not int:
                terms[mono] = _exact(c)
        poly = object.__new__(cls)
        poly.nvars, poly.terms = nvars, terms
        return poly

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars, index):
        mono = [0] * nvars
        mono[index] = 1
        return cls(nvars, {tuple(mono): 1})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.nvars == other.nvars and self.terms == other.terms
        return NotImplemented

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign):
        # other's new monomials go last, so a sum keeps self's term order
        pairs = ((m, sign * c) for m, c in self._coerce(other).terms.items())
        return Poly._of(self.nvars, _add_terms(dict(self.terms), pairs))

    def __neg__(self):
        return Poly._of(self.nvars, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        theirs = self._coerce(other).terms.items()
        return Poly._of(self.nvars, _add_terms({}, (
            (tuple(map(add, m1, m2)), c1 * c2)
            for m1, c1 in self.terms.items() for m2, c2 in theirs)))

    __radd__ = __add__
    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError("variable count mismatch")
            return other
        return Poly.constant(self.nvars, other)

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def evaluate_float(self, points):
        """Vectorized float evaluation; points is an (npts, nvars) array."""
        import numpy as np

        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points[None, :]
        return self._sum_terms(points.T, len(points))

    def evaluate_grid(self, axes):
        """The values on the tensor grid of the 1-D node arrays in axes,
        C order, from per-axis powers by broadcasting: each value is
        bitwise the one evaluate_float gives at that grid point."""
        import numpy as np

        return self._sum_terms(np.meshgrid(*axes, indexing="ij", sparse=True),
                               tuple(len(x) for x in axes))

    def _sum_terms(self, columns, shape):
        import numpy as np

        # each term is coeff * x_j^e_j * ... in increasing j, summed in
        # the dict's term order: pfaffian keeps a Poly expansion's order
        out = np.zeros(shape)
        for mono, coeff in self.terms.items():
            term = float(coeff)
            for x, e in zip(columns, mono):
                if e:
                    term = term * x ** e
            out += term
        return out

    def __str__(self):
        return self.format()

    def format(self):
        # graded lexicographic, highest first, for stable CLI output
        if not self.terms:
            return "0"
        names = [f"t{i + 1}" for i in range(self.nvars)]

        def key(mono):
            return (sum(mono), mono)

        pieces = []
        for mono in sorted(self.terms, key=key, reverse=True):
            coeff = self.terms[mono]
            factors = []
            for name, e in zip(names, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            if not body:
                piece = str(coeff)
            elif coeff == 1:
                piece = body
            elif coeff == -1:
                piece = f"-{body}"
            else:
                piece = f"{coeff}*{body}"
            pieces.append(piece)
        text = pieces[0]
        for piece in pieces[1:]:
            text += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
        return text

    def __repr__(self):
        return f"Poly({self.nvars}, {self.format()})"
