"""The octonion table, its signed units, and the composition-algebra
laws of C, H and O, checked through the coefficient-list oracle."""

import random
from fractions import Fraction

import pytest

from nilharm.composition import (TABLE, TRIPLES, format_element, multiply,
                                 parse_unit, table_failures)
from octonion_oracle import conj, im, mul, norm, unit


def test_octonion_oriented_triples():
    for (a, b, c) in TRIPLES:
        assert multiply((1, a), (1, b)) == (1, c)
        assert multiply((1, b), (1, c)) == (1, a)
        assert multiply((1, c), (1, a)) == (1, b)


def test_octonion_squares_and_identity():
    for j in range(1, 8):
        assert multiply((1, j), (1, j)) == (-1, 0)
        assert multiply((1, 0), (1, j)) == (1, j)
        assert multiply((1, j), (1, 0)) == (1, j)


def test_octonion_anticommutation():
    for a in range(1, 8):
        for b in range(1, 8):
            if a == b:
                continue
            sign, k = multiply((1, b), (1, a))
            assert multiply((1, a), (1, b)) == (-sign, k)
            assert k not in (0, a, b)


def test_table_failures_names_a_product_that_is_not_a_third_unit():
    # the import check's rule, which criterion 1's mutation never trips
    table = [list(row) for row in TABLE]
    table[1][2], table[2][1] = (1, 1), (-1, 1)
    assert table_failures(table) == [
        "e1e2 != e3", "e1e2 is not a third imaginary unit",
        "e2e1 is not a third imaginary unit"]


def test_signed_units_multiply_as_their_coefficient_lists():
    for sa in (1, -1):
        for sb in (1, -1):
            for i in range(8):
                for j in range(8):
                    sign, k = multiply((sa, i), (sb, j))
                    expected = mul([sa * x for x in unit(8, i)],
                                   [sb * x for x in unit(8, j)])
                    assert [sign * x for x in unit(8, k)] == expected


def test_specific_products():
    assert format_element(multiply(parse_unit("e6"), parse_unit("e7"))) == "e1"
    assert format_element(multiply(parse_unit("e2"), parse_unit("e5"))) == "e7"
    assert format_element(multiply(parse_unit("e5"), parse_unit("e2"))) == "-e7"
    assert parse_unit(" -e3 ") == (-1, 3)


def rand(rng, dim, lo, hi, den=1):
    return [Fraction(rng.randint(lo, hi), rng.randint(1, den))
            for _ in range(dim)]


def test_quaternions_associative_octonions_not():
    rng = random.Random(11)
    for _ in range(25):
        a, b, c = (rand(rng, 4, -4, 4, 3) for _ in range(3))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))

    seen_nonassoc = False
    for _ in range(25):
        a, b, c = (rand(rng, 8, -4, 4, 3) for _ in range(3))
        if mul(mul(a, b), c) != mul(a, mul(b, c)):
            seen_nonassoc = True
            break
    assert seen_nonassoc


def test_norm_is_multiplicative():
    # composition law N(ab) = N(a) N(b), exact over Q
    rng = random.Random(7)
    for dim in (2, 4, 8):
        for _ in range(30):
            a, b = rand(rng, dim, -5, 5, 4), rand(rng, dim, -5, 5, 4)
            assert norm(mul(a, b)) == norm(a) * norm(b)


def test_conjugation_properties():
    rng = random.Random(3)
    for _ in range(20):
        a, b = rand(rng, 8, -3, 3), rand(rng, 8, -3, 3)
        assert conj(mul(a, b)) == mul(conj(b), conj(a))
        aa = mul(a, conj(a))
        assert aa[0] == norm(a)
        assert im(aa) == [0] * 8


def test_real_and_imaginary_parts():
    a = [Fraction(2), Fraction(-1), Fraction(3), Fraction(5)]
    assert im(a) == [0, -1, 3, 5]
    # Re a = (a + conj a)/2 and Im a = (a - conj a)/2
    assert [(x + y) / 2 for x, y in zip(a, conj(a))] == [2, 0, 0, 0]
    assert [(x - y) / 2 for x, y in zip(a, conj(a))] == im(a)


def hermitian_inner(u, v):
    """<u,v> = sum_i u_i * conj(v_i), conjugation on the second slot."""
    total = [Fraction(0)] * len(u[0])
    for ui, vi in zip(u, v):
        total = [x + y for x, y in zip(total, mul(ui, conj(vi)))]
    return total


def test_hermitian_inner_vectors():
    u = [unit(2, 0), unit(2, 1)]
    v = [unit(2, 1), unit(2, 1)]
    # conjugation sits on the second slot: 1*(-i) + i*(-i) = 1 - i
    assert hermitian_inner(u, v) == [1, -1]


def test_parse_unit_rejects_garbage():
    with pytest.raises(ValueError, match="'e9' not in O"):
        parse_unit("e9")
    with pytest.raises(ValueError, match="cannot parse basis unit 'x3'"):
        parse_unit("x3")
