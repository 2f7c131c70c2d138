"""Sparse multivariate polynomials with rational coefficients.

Just enough ring arithmetic for symbolic Pfaffians of the catalog
algebras (at most 7 variables, degree <= 7).  Monomials are exponent
tuples; the zero polynomial is the empty dict.
"""

from fractions import Fraction


class Poly:
    """Polynomial in a fixed number of variables over Q.

    terms: dict exponent-tuple -> nonzero Fraction.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for mono, coeff in terms.items():
                c = Fraction(coeff)
                if c != 0:
                    self.terms[tuple(mono)] = c

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def constant(cls, nvars, c):
        c = Fraction(c)
        if c == 0:
            return cls(nvars)
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars, index):
        mono = [0] * nvars
        mono[index] = 1
        return cls(nvars, {tuple(mono): Fraction(1)})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.nvars == other.nvars and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            s = out.get(mono, Fraction(0)) + coeff
            if s == 0:
                out.pop(mono, None)
            else:
                out[mono] = s
        return Poly(self.nvars, out)

    def __neg__(self):
        return Poly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                s = out.get(mono, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(mono, None)
                else:
                    out[mono] = s
        return Poly(self.nvars, out)

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

    def evaluate(self, point):
        """Exact evaluation at a sequence of Fractions (or ints)."""
        point = [Fraction(x) for x in point]
        if len(point) != self.nvars:
            raise ValueError("point length mismatch")
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            term = coeff
            for x, e in zip(point, mono):
                if e:
                    term *= x ** e
            total += term
        return total

    def evaluate_float(self, points):
        """Vectorized float evaluation; points is an (npts, nvars) array."""
        import numpy as np

        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points[None, :]
        # each term is coeff * x_j^e_j * ... in increasing j, summed in
        # the dict's term order: pfaffian._skew_form relies on that order
        out = np.zeros(points.shape[0])
        for mono, coeff in self.terms.items():
            term = float(coeff)
            for j, e in enumerate(mono):
                if e:
                    term = term * points[:, j] ** e
            out += term
        return out

    def evaluate_grid(self, axes):
        """Float values on the tensor grid of the node arrays in axes.

        Returns an array of shape (len(axes[0]), ..., len(axes[-1])), C
        order.  Each monomial is the outer product of per-axis powers;
        products and sums run in evaluate_float's order, so the values
        are bit-identical to evaluate_float on the grid's points.
        """
        import numpy as np

        if len(axes) != self.nvars:
            raise ValueError("axis count mismatch")
        xs = np.meshgrid(*(np.asarray(x, dtype=float) for x in axes),
                         indexing="ij", sparse=True)
        out = np.zeros(tuple(len(x) for x in axes))
        for mono, coeff in self.terms.items():
            term = float(coeff)
            for x, e in zip(xs, mono):
                if e:
                    term = term * x ** e
            out += term
        return out

    def __str__(self):
        return self.format()

    def format(self, names=None):
        # graded lexicographic, highest first, for stable CLI output
        if not self.terms:
            return "0"
        if names is None:
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
