"""General C, H and O elements as coefficient lists over e0..e{d-1},
d = 2, 4, 8: the bilinear product over the octonion table, which the
signed-unit code in the package is checked against."""

from fractions import Fraction

from nilharm.composition import TABLE


def unit(dim, j):
    return [Fraction(int(k == j)) for k in range(dim)]


def mul(a, b):
    # C and H close under the table: k < len(a) whenever i, j are
    out = [Fraction(0)] * len(a)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            sign, k = TABLE[i][j]
            out[k] += sign * x * y
    return out


def conj(a):
    return [a[0]] + [-x for x in a[1:]]


def im(a):
    return [Fraction(0)] + list(a[1:])


def norm(a):
    """Squared norm: the sum of squared coefficients."""
    return sum(x * x for x in a)
