"""The octonion multiplication table and its signed basis units.

The octonion product is generated from seven oriented triples plus the
rules e0*x = x, ej^2 = -e0, and anticommutation of distinct imaginary
units.  Each of R, C, H sits inside O as the subalgebra spanned by its
first DIM[F] units: {e0}, {e0,e1}, {e0,e1,e2,e3}; the triple (1,2,3)
makes the quaternion block close.

The expanded 8x8 table is built once at import and checked against the
generating rules by table_failures, the same check as criterion 1.
Every value here is a signed unit (sign, index), meaning sign * e_index;
general C/H/O elements live only in the test suite's oracle.
"""

from .config import read_number, shown

# the composition algebras, each spanned by the table's first DIM[F] units
DIM = {"R": 1, "C": 2, "H": 4, "O": 8}

# positively oriented: each (a,b,c) means ea*eb = ec, cyclically
TRIPLES = ((1, 2, 3), (3, 5, 6), (6, 7, 1), (1, 4, 5),
           (3, 4, 7), (6, 4, 2), (2, 5, 7))


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


def table_failures(table):
    """The generating rules a table breaks, in a fixed order: the
    triples, the squares, the identity, anticommutation of distinct
    imaginary units to a third one.  Empty for the octonion table."""
    failures = []
    for i, j, k in TRIPLES:
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            if table[a][b] != (1, c):
                failures.append(f"e{a}e{b} != e{c}")
    failures += [f"e{j}^2 != -e0" for j in range(1, 8)
                 if table[j][j] != (-1, 0)]
    failures += [f"identity fails at e{j}" for j in range(8)
                 if table[0][j] != (1, j) or table[j][0] != (1, j)]
    for i in range(1, 8):
        for j in range(1, 8):
            if i == j:
                continue
            (si, ki), (sj, kj) = table[i][j], table[j][i]
            if (si, ki) != (-sj, kj):
                failures.append(f"e{i}e{j} != -e{j}e{i}")
            if ki in (0, i, j):
                failures.append(f"e{i}e{j} is not a third imaginary unit")
    return failures


TABLE = _build_table()
if _failures := table_failures(TABLE):
    raise RuntimeError("; ".join(_failures))


def multiply(a, b):
    """Product of two signed units, read from the table."""
    (sa, ia), (sb, ib) = a, b
    s, k = TABLE[ia][ib]
    return sa * sb * s, k


def parse_unit(text):
    """Parse 'e3' or '-e3' into a signed unit, for the CLI."""
    text = text.strip()
    sign = 1
    if text.startswith("-"):
        sign = -1
        text = text[1:]
    if not text.startswith("e") or not text[1:].isdigit():
        raise ValueError(f"cannot parse basis unit {shown(text)}")
    j = read_number(text[1:], int)
    if not 0 <= j < 8:
        raise ValueError(f"{shown(f'e{j}')} not in O")
    return sign, j


def format_element(a):
    sign, k = a
    return f"e{k}" if sign > 0 else f"-e{k}"
