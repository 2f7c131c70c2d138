"""Exact arithmetic in C, H, and O."""

import random
from fractions import Fraction

import pytest

from nilharm.composition import (CompositionElement, conj, format_element,
                                 im, multiply, norm, parse_unit, re)

TRIPLES = [(1, 2, 3), (3, 5, 6), (6, 7, 1), (1, 4, 5),
           (3, 4, 7), (6, 4, 2), (2, 5, 7)]


def unit(tag, j):
    return CompositionElement.basis(tag, j)


def test_octonion_oriented_triples():
    for (a, b, c) in TRIPLES:
        assert multiply(unit("O", a), unit("O", b)) == unit("O", c)
        assert multiply(unit("O", b), unit("O", c)) == unit("O", a)
        assert multiply(unit("O", c), unit("O", a)) == unit("O", b)


def test_octonion_squares_and_identity():
    e0 = unit("O", 0)
    for j in range(1, 8):
        ej = unit("O", j)
        assert multiply(ej, ej) == -e0
        assert multiply(e0, ej) == ej
        assert multiply(ej, e0) == ej


def test_octonion_anticommutation():
    for a in range(1, 8):
        for b in range(1, 8):
            if a == b:
                continue
            ea, eb = unit("O", a), unit("O", b)
            assert multiply(ea, eb) == -multiply(eb, ea)


def test_specific_products():
    assert format_element(multiply(parse_unit("e6"), parse_unit("e7"))) == "e1"
    assert format_element(multiply(parse_unit("e2"), parse_unit("e5"))) == "e7"
    assert format_element(multiply(parse_unit("e5"), parse_unit("e2"))) == "-e7"


def test_quaternions_associative_octonions_not():
    rng = random.Random(11)

    def rand(tag, dim):
        return CompositionElement(
            tag, [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in range(dim)])

    for _ in range(25):
        a, b, c = (rand("H", 4) for _ in range(3))
        lhs = multiply(multiply(a, b), c)
        rhs = multiply(a, multiply(b, c))
        assert lhs == rhs

    seen_nonassoc = False
    for _ in range(25):
        a, b, c = (rand("O", 8) for _ in range(3))
        if multiply(multiply(a, b), c) != multiply(a, multiply(b, c)):
            seen_nonassoc = True
            break
    assert seen_nonassoc


def test_norm_is_multiplicative():
    # composition law N(ab) = N(a) N(b), exact over Q
    rng = random.Random(7)
    for tag, dim in (("C", 2), ("H", 4), ("O", 8)):
        for _ in range(30):
            a = CompositionElement(
                tag, [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                      for _ in range(dim)])
            b = CompositionElement(
                tag, [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                      for _ in range(dim)])
            assert norm(multiply(a, b)) == norm(a) * norm(b)


def test_conjugation_properties():
    rng = random.Random(3)
    for _ in range(20):
        a = CompositionElement(
            "O", [Fraction(rng.randint(-3, 3)) for _ in range(8)])
        b = CompositionElement(
            "O", [Fraction(rng.randint(-3, 3)) for _ in range(8)])
        assert conj(multiply(a, b)) == multiply(conj(b), conj(a))
        aa = multiply(a, conj(a))
        assert re(aa).coeffs[0] == norm(a)
        assert all(c == 0 for c in im(aa).coeffs[1:])


def test_real_and_imaginary_parts():
    a = CompositionElement("H", [Fraction(2), Fraction(-1),
                                 Fraction(3), Fraction(5)])
    assert re(a).coeffs[0] == 2
    assert im(a).coeffs == (0, -1, 3, 5)


def hermitian_inner(u, v):
    """<u,v> = sum_i u_i * conj(v_i), conjugation on the second slot."""
    total = CompositionElement.zero(u[0].tag)
    for ui, vi in zip(u, v):
        total = total + multiply(ui, conj(vi))
    return total


def test_hermitian_inner_vectors():
    u = [unit("C", 0), unit("C", 1)]
    v = [unit("C", 1), unit("C", 1)]
    w = hermitian_inner(u, v)
    # conjugation sits on the second slot: 1*(-i) + i*(-i) = 1 - i
    assert w.coeffs == (Fraction(1), Fraction(-1))


def test_parse_unit_rejects_garbage():
    with pytest.raises(ValueError):
        parse_unit("e9")
    with pytest.raises(ValueError):
        parse_unit("x3")
