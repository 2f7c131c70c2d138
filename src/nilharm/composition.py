"""Exact arithmetic in the composition algebras C, H, O.

The octonion product is generated from seven oriented triples plus the
rules e0*x = x, ej^2 = -e0, and anticommutation of distinct imaginary
units.  C and H sit inside O as the subalgebras spanned by {e0,e1} and
{e0,e1,e2,e3}; the triple (1,2,3) makes the quaternion block close.

The expanded 8x8 table is built once at import and cross-checked
against the generating rules; everything downstream reads it only.
"""

from fractions import Fraction

from .config import read_number, shown

# positively oriented: each (a,b,c) means ea*eb = ec, cyclically
TRIPLES = ((1, 2, 3), (3, 5, 6), (6, 7, 1), (1, 4, 5),
           (3, 4, 7), (6, 4, 2), (2, 5, 7))

_TAG_DIM = {"C": 2, "H": 4, "O": 8}


def _build_table():
    # table[i][j] = (sign, index) meaning ei*ej = sign * e_index
    table = [[None] * 8 for _ in range(8)]
    for j in range(8):
        table[0][j] = (1, j)
        table[j][0] = (1, j)
    for j in range(1, 8):
        table[j][j] = (-1, 0)
    for a, b, c in TRIPLES:
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            if table[x][y] is not None:
                raise RuntimeError(f"duplicate product e{x}*e{y} in triples")
            table[x][y] = (1, z)
            table[y][x] = (-1, z)
    for i in range(8):
        for j in range(8):
            if table[i][j] is None:
                raise RuntimeError(f"triples leave e{i}*e{j} undefined")
    return tuple(tuple(row) for row in table)


def _check_table(table):
    # identity and squares
    for j in range(8):
        if table[0][j] != (1, j) or table[j][0] != (1, j):
            raise RuntimeError(f"e0 is not the unit at e{j}")
    for j in range(1, 8):
        if table[j][j] != (-1, 0):
            raise RuntimeError(f"e{j}*e{j} is not -1")
    # anticommutation off the diagonal
    for i in range(1, 8):
        for j in range(1, 8):
            if i == j:
                continue
            si, ki = table[i][j]
            sj, kj = table[j][i]
            if not (ki == kj and si == -sj and ki not in (0, i, j)):
                raise RuntimeError(f"e{i} and e{j} do not anticommute "
                                   "to a third imaginary unit")


TABLE = _build_table()
_check_table(TABLE)


class CompositionElement:
    """Element of C, H, or O with exact rational coefficients.

    coefficients are indexed by e0..e{d-1} where d = 2, 4, 8.
    """

    __slots__ = ("tag", "coeffs")

    def __init__(self, tag, coeffs):
        if tag not in _TAG_DIM:
            raise ValueError(f"unknown algebra tag {shown(tag)}")
        dim = _TAG_DIM[tag]
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != dim:
            raise ValueError(f"{tag} element needs {dim} coefficients, got {len(coeffs)}")
        self.tag = tag
        self.coeffs = coeffs

    @classmethod
    def zero(cls, tag):
        return cls(tag, [0] * _TAG_DIM[tag])

    @classmethod
    def basis(cls, tag, j):
        dim = _TAG_DIM[tag]
        if not 0 <= j < dim:
            raise ValueError(f"{shown(f'e{j}')} not in {tag}")
        coeffs = [0] * dim
        coeffs[j] = 1
        return cls(tag, coeffs)

    def __eq__(self, other):
        if isinstance(other, CompositionElement):
            return self.tag == other.tag and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.tag, self.coeffs))

    def __add__(self, other):
        self._same_tag(other)
        return CompositionElement(self.tag, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._same_tag(other)
        return CompositionElement(self.tag, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return CompositionElement(self.tag, [-a for a in self.coeffs])

    def scale(self, c):
        c = Fraction(c)
        return CompositionElement(self.tag, [c * a for a in self.coeffs])

    def _same_tag(self, other):
        if not isinstance(other, CompositionElement):
            raise TypeError("expected a CompositionElement")
        if self.tag != other.tag:
            raise ValueError(f"mixed algebra tags {self.tag} and {other.tag}")

    def __repr__(self):
        parts = [f"{c}*e{j}" for j, c in enumerate(self.coeffs) if c != 0]
        return f"<{self.tag}: {' + '.join(parts) if parts else '0'}>"


def multiply(a, b):
    """Bilinear extension of the basis table."""
    a._same_tag(b)
    dim = _TAG_DIM[a.tag]
    out = [Fraction(0)] * dim
    for i, ca in enumerate(a.coeffs):
        if ca == 0:
            continue
        for j, cb in enumerate(b.coeffs):
            if cb == 0:
                continue
            sign, k = TABLE[i][j]
            # C and H are closed under the table: k < dim always holds here
            out[k] += sign * ca * cb
    return CompositionElement(a.tag, out)


def conj(a):
    """Conjugation: negate the imaginary part."""
    return CompositionElement(a.tag, [a.coeffs[0]] + [-c for c in a.coeffs[1:]])


def re(a):
    out = [Fraction(0)] * _TAG_DIM[a.tag]
    out[0] = a.coeffs[0]
    return CompositionElement(a.tag, out)


def im(a):
    """Zero the e0 component."""
    return CompositionElement(a.tag, [Fraction(0)] + list(a.coeffs[1:]))


def norm(a):
    """Squared norm: sum of squared coefficients (exact)."""
    return sum((c * c for c in a.coeffs), Fraction(0))


def parse_unit(text, tag="O"):
    """Parse 'e3' or '-e3' into a basis element, for the CLI."""
    text = text.strip()
    sign = 1
    if text.startswith("-"):
        sign = -1
        text = text[1:]
    if not text.startswith("e") or not text[1:].isdigit():
        raise ValueError(f"cannot parse basis unit {shown(text)}")
    el = CompositionElement.basis(tag, read_number(text[1:], int))
    return el if sign == 1 else -el


def format_element(a):
    """Human-readable signed combination, e0..e7 order."""
    parts = []
    for j, c in enumerate(a.coeffs):
        if c == 0:
            continue
        if c == 1:
            parts.append(f"e{j}" if not parts else f"+ e{j}")
        elif c == -1:
            parts.append(f"-e{j}" if not parts else f"- e{j}")
        else:
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            lead = f"{sign} " if parts else sign
            parts.append(f"{lead}{mag}*e{j}")
    return " ".join(parts) if parts else "0"
