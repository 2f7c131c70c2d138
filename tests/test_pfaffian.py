"""Symbolic Pfaffians, square integrability, and the exact recursion."""

import gc
import importlib
import json
import math
import random
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from nilharm import algebra, linalg
from nilharm.algebra import LieAlgebraData, center, nilpotency_class
from nilharm.catalog import (abelian, free_two_step, from_name, heisenberg,
                             lambda_a, list_entries, octonion_double)
from nilharm.config import shown
from nilharm.orbits import (l1_complement_indices, orbit_representative,
                            pf_nonsingular)
from nilharm.pfaffian import (LinearFunctional, _witness_candidates,
                              b_matrix, b_matrix_poly, is_square_integrable,
                              pf_at, pf_polynomial, pfaffian)
from nilharm.polynomials import Poly
from nilharm.stepwise import find_codim_split
from pfaffian_oracle import (expansion_pfaffian, interleaved_blocks,
                             pf_at_matches_the_expansion)


def evaluate(poly, point):
    """Exact value of a Poly at a point of Fractions (or ints), term by
    term: the oracle that pf_at is checked against."""
    point = [Fraction(x) for x in point]
    assert len(point) == poly.nvars
    total = Fraction(0)
    for mono, coeff in poly.terms.items():
        term = coeff
        for x, e in zip(point, mono):
            if e:
                term *= x ** e
        total += term
    return total


def rand_skew(rng, n, lo=-9, hi=9):
    M = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            M[i][j] = Fraction(rng.randint(lo, hi), rng.randint(1, 5))
            M[j][i] = -M[i][j]
    return M


def poly_expansion(matrix, nvars):
    """Pf by the Poly-matrix route that the packed kernel replaced, the
    oracle of its term order and coefficient types: expansion along the
    first index in Poly arithmetic, memoized on index tuples, each term
    entry * sub added to or subtracted from a new total Poly."""
    zero = Poly.zero(nvars)
    if len(matrix) % 2:
        return zero
    memo = {(): Poly.constant(nvars, 1)}

    def pf(indices):
        if indices not in memo:
            row, rest, total = matrix[indices[0]], indices[1:], zero
            for t, j in enumerate(rest):
                if row[j]:
                    term = row[j] * pf(rest[:t] + rest[t + 1:])
                    total = total - term if t % 2 else total + term
            memo[indices] = total
        return memo[indices]

    return pf(tuple(range(len(matrix))))


def poly_route(alg, v_indices=None):
    """pf_polynomial by the Poly-matrix route: the form filled with the
    center coordinates as Poly variables, then expanded in Polys."""
    zdim = len(alg.center_indices)
    form = b_matrix_poly(alg, [Poly.variable(zdim, t) for t in range(zdim)],
                         v_indices=v_indices)
    return poly_expansion(form.matrix, zdim)


def assert_same_terms(got, want):
    # the same terms in the same order (evaluate_float sums in it), and
    # the same coefficient types: 1 == Fraction(1) would hide a change
    assert got.nvars == want.nvars
    assert list(got.terms.items()) == list(want.terms.items())
    assert list(map(type, got.terms.values())) == \
        list(map(type, want.terms.values()))


def test_pfaffian_base_cases():
    assert pfaffian([]) == 1
    two = [[Fraction(0), Fraction(7)], [Fraction(-7), Fraction(0)]]
    assert pfaffian(two) == 7


def test_pfaffian_squares_to_determinant():
    # exact, odd n included (both sides 0 there)
    rng = random.Random(41)
    for n in range(13):
        for _ in range(30 if n <= 8 else 3):
            M = rand_skew(rng, n)
            assert pfaffian(M) ** 2 == linalg.det(M), n


def test_pfaffian_return_type_follows_the_ring():
    rng = random.Random(45)
    rational = rand_skew(rng, 4)
    assert type(pfaffian(rational)) is Fraction
    assert type(pfaffian([[0, 3], [-3, 0]])) is Fraction
    assert type(pfaffian(rand_skew(rng, 3))) is Fraction
    assert pfaffian([]) == 1 and type(pfaffian([])) is Fraction
    t = Poly.variable(2, 0)
    poly = [[Poly.zero(2), t], [-t, Poly.zero(2)]]
    assert pfaffian(poly) == t
    odd = [[Poly.zero(2)] * 3 for _ in range(3)]
    assert pfaffian(odd) == Poly.zero(2)
    # Pf = m01 m23 - m02 m13 + m03 m12 with Poly and Fraction entries mixed
    mixed = rand_skew(rng, 4)
    mixed[0][1], mixed[1][0] = t, -t
    got = pfaffian(mixed)
    assert isinstance(got, Poly)
    assert got == (t * mixed[2][3] - mixed[0][2] * mixed[1][3]
                   + mixed[0][3] * mixed[1][2])


def test_expansion_reads_only_the_strict_upper_triangle():
    # junk on the diagonal and below it changes no value
    rng = random.Random(46)
    for n in (2, 4, 6):
        M = [[int(60 * x) for x in row] for row in rand_skew(rng, n)]
        pf = expansion_pfaffian(M, 0, 1)
        assert type(pf) is int and pf ** 2 == linalg.det(M)
        junk = [[M[i][j] if i < j else rng.randint(-9, 9)
                 for j in range(n)] for i in range(n)]
        assert expansion_pfaffian(junk, 0, 1) == pf


def test_pf_at_matches_the_symbolic_pfaffian():
    rng = random.Random(47)
    free = from_name("free2step:7:C")
    cases = [(from_name("table:2.2:23"), None),
             (heisenberg(15, "H"), None),
             (free, l1_complement_indices(free))]
    for alg, v in cases:
        pf = pf_polynomial(alg, v_indices=v)
        assert pf
        for _ in range(3):
            lam = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                   for _ in alg.center_indices]
            assert pf_at(alg, lam, v_indices=v) == evaluate(pf, lam)


def test_pfaffian_odd_dimension_is_zero():
    rng = random.Random(42)
    for n in (3, 5):
        M = rand_skew(rng, n)
        assert pfaffian(M) == 0


def test_congruence_scales_by_determinant():
    # Pf(Q^T M Q) = det(Q) Pf(M)
    rng = random.Random(43)
    for n in (4, 6):
        for _ in range(10):
            M = rand_skew(rng, n)
            Q = [[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                 for _ in range(n)]
            QtMQ = [[sum(Q[k][i] * M[k][l] * Q[l][j] for k in range(n)
                         for l in range(n))
                     for j in range(n)] for i in range(n)]
            detQ = Fraction(
                round(np.linalg.det(np.array(Q, dtype=float))))
            assert pfaffian(QtMQ) == detQ * pfaffian(M)


def test_heisenberg_complex_closed_form():
    # Pf = (-t1)^n
    for n in (1, 2, 3):
        pf = pf_polynomial(heisenberg(n, "C"))
        expect = Poly.constant(1, 1)
        for _ in range(n):
            expect = expect * (-Poly.variable(1, 0))
        assert pf == expect


def test_heisenberg_quaternionic_closed_form():
    # Pf = (t1^2 + t2^2 + t3^2)^n for h_{n;H}
    t = [Poly.variable(3, k) for k in range(3)]
    q = t[0] * t[0] + t[1] * t[1] + t[2] * t[2]
    assert pf_polynomial(heisenberg(1, "H")) == q
    assert pf_polynomial(heisenberg(2, "H")) == q * q


def test_octonion_heisenberg_value_is_norm_power():
    # Pf has degree dim(v)/2 = 4, so it is |lambda|^4 up to sign
    alg = heisenberg(1, "O")
    rng = random.Random(9)
    for _ in range(10):
        lam = [Fraction(rng.randint(-3, 3)) for _ in range(7)]
        norm2 = sum(c * c for c in lam)
        assert abs(pf_at(alg, lam)) == norm2 ** 2


def test_free_two_step_pfaffian_vanishes():
    for n, F in ((3, "R"), (5, "R"), (3, "C")):
        pf = pf_polynomial(free_two_step(n, F))
        assert not pf


def test_octonion_double_pfaffian_vanishes():
    assert not pf_polynomial(octonion_double())


def test_octonion_double_hyperplane_pfaffians():
    # dropping v_k leaves Pf = +-t_k*(t1^2 + ... + t7^2) on the other six
    alg = octonion_double()
    t = [Poly.variable(7, k) for k in range(7)]
    norm2 = Poly.zero(7)
    for tk in t:
        norm2 = norm2 + tk * tk
    for k, dropped in enumerate(alg.complement_indices):
        v = [i for i in alg.complement_indices if i != dropped]
        pf = pf_polynomial(alg, v_indices=v)
        expected = t[k] * norm2
        assert pf == expected or pf == -expected, (k, pf.format())


def test_octonion_double_any_hyperplane_determinant():
    # for a non-coordinate unit w, det of b_lambda on w^perp is
    # <lambda, w>^2 |lambda|^4: every hyperplane split has Pf = +-t_w |t|^2
    from nilharm.pfaffian import LinearFunctional
    alg = octonion_double()
    rng = np.random.default_rng(17)
    for _ in range(5):
        lam = [Fraction(int(c)) for c in rng.integers(-5, 6, size=7)]
        form = b_matrix(alg, LinearFunctional(alg, coeffs=lam))
        M = np.array(form.matrix, dtype=float)
        w = rng.normal(size=7)
        w /= np.linalg.norm(w)
        Q = np.linalg.svd(w[None, :])[2][1:].T       # orthonormal w^perp
        det = np.linalg.det(Q.T @ M @ Q)
        lv = np.array(lam, dtype=float)
        expect = (lv @ w) ** 2 * (lv @ lv) ** 2
        assert abs(det - expect) <= 1e-9 * max(1.0, expect)


def test_square_integrability_decisions():
    for alg in (heisenberg(1, "C"), heisenberg(3, "C"),
                heisenberg(1, "H"), heisenberg(1, "O")):
        res = is_square_integrable(alg)
        assert res
        assert pf_at(alg, res.witness) != 0
    for alg in (free_two_step(3, "R"), free_two_step(3, "C"),
                octonion_double()):
        assert not is_square_integrable(alg)
    # degenerate but consistent: v = 0 means Pf = 1, never zero
    assert is_square_integrable(abelian(2))


def candidate_points(zdim):
    """The witness stream, rebuilt: all-ones, then 500 fixed-seed small
    integer points."""
    rng = random.Random(0)
    return [[Fraction(1)] * zdim] + [
        [Fraction(rng.randint(-9, 9)) for _ in range(zdim)]
        for _ in range(500)]


def test_witness_search_matches_the_full_candidate_list(monkeypatch):
    # t1 - t2 vanishes at all-ones, so the witness comes from the stream
    alg = heisenberg(1, "H")
    pf = Poly.variable(3, 0) - Poly.variable(3, 1)
    want = next(p for p in candidate_points(3) if evaluate(pf, p) != 0)
    module = importlib.import_module("nilharm.pfaffian")
    monkeypatch.setattr(module, "pf_at", lambda alg, coeffs, v_indices=None:
                        evaluate(pf, coeffs))
    res = is_square_integrable(alg)
    assert res and res.witness == want


# the families up to free2step:7:C, whose zero Pfaffian on 14 complement
# vectors and 42 center coordinates is the largest symbolic expansion
FAMILY_ALGEBRAS = ([f"heisenberg:{n}:{F}" for F in "CH" for n in range(1, 7)]
                   + ["heisenberg:1:O", "octdouble"]
                   + [f"free2step:{n}:{F}" for F in "RC" for n in range(2, 8)])


def constructible_and_family_algebras():
    return ([f"table:{e.table_id}:{e.row}"
             for e in list_entries(constructible=True)] + FAMILY_ALGEBRAS)


def test_pf_polynomial_matches_the_poly_matrix_expansion():
    # every constructible row, every family algebra and a rational one,
    # on the complement and on its l1 split, if it has one
    names = constructible_and_family_algebras()
    for alg in [from_name(name) for name in names] + [rational_two_step()]:
        v1 = l1_complement_indices(alg)
        for v in [None] + ([v1] if v1 is not None else []):
            assert_same_terms(pf_polynomial(alg, v_indices=v),
                              poly_route(alg, v))


def random_two_step(rng, n):
    """A 2-step algebra on a complement of n vectors with seeded sparse
    integer brackets into a center of 1 to 3 coordinates (2 or 3 for
    odd n, where one form has a kernel), drawn until the center is
    exactly the designated one, as the two-step guard requires."""
    for _ in range(100):
        zdim = rng.randint(2 - n % 2, 3)
        entries = [(zdim + a, zdim + b, t, rng.choice((-3, -2, -1, 1, 2, 3)))
                   for a in range(n) for b in range(a + 1, n)
                   for t in range(zdim) if rng.random() < 0.3]
        alg = LieAlgebraData(zdim + n, [f"b{i}" for i in range(zdim + n)],
                             entries, center_indices=range(zdim),
                             complement_indices=range(zdim, zdim + n))
        if len(center(alg)) == zdim:
            return alg
    raise AssertionError(f"no draw at n = {n} has the designated center")


def test_symbolic_pfaffian_matches_the_poly_matrix_expansion_on_random_forms():
    # entries with several terms cancel inside a term, and each form is
    # also expanded in a shuffled ordering of its complement
    rng = random.Random(54)
    for n in [k for k in range(2, 13) for _ in range(3)]:
        alg = random_two_step(rng, n)
        shuffled = rng.sample(alg.complement_indices, n)
        for v in (None, shuffled):
            assert_same_terms(pf_polynomial(alg, v_indices=v),
                              poly_route(alg, v))


def random_entry(rng, nvars):
    """A Poly with exponents 0 or 40 to 60 (60 %), a number (20 %) or
    the zero Poly."""
    kind = rng.random()
    if kind < 0.2:
        return rng.choice((3, Fraction(-1, 2)))
    if kind < 0.4:
        return Poly.zero(nvars)
    return Poly(nvars, {tuple(rng.choice((0, rng.randint(40, 60)))
                              for _ in range(nvars)):
                        rng.choice((-2, 1, Fraction(1, 3)))
                        for _ in range(rng.randint(1, 3))})


def test_pfaffian_of_poly_entries_matches_the_poly_matrix_expansion():
    # exponents of 40 and more: Pf's exponents reach n/2 times that, so
    # a field width read off the entries alone would carry
    rng = random.Random(55)
    for n in [k for k in range(1, 7) for _ in range(4)]:
        nvars = rng.randint(1, 3)
        matrix = [[Poly.zero(nvars)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                x = random_entry(rng, nvars)
                matrix[i][j], matrix[j][i] = x, -x
        assert_same_terms(pfaffian(matrix), poly_expansion(matrix, nvars))


def test_pfaffian_refuses_entries_in_different_variable_counts():
    matrix = [[Poly.zero(2)] * 4 for _ in range(4)]
    matrix[0][1], matrix[1][0] = Poly.variable(2, 0), -Poly.variable(2, 0)
    matrix[2][3], matrix[3][2] = Poly.variable(3, 0), -Poly.variable(3, 0)
    with pytest.raises(ValueError, match="variable count mismatch"):
        pfaffian(matrix)


# orderings that used to be read anyway on heisenberg:1:H (z = 0..2,
# v = 3..6): the first three gave Pf = 0, and -1 was read as index 6;
# an unhashable item escaped as a TypeError, and a float item was read
# as the int it equals once that int ordering was cached
BAD_V_INDICES = {"repeated": [3, 3, 4, 5], "central": [0, 3, 4, 5],
                 "out_of_range": [3, 4, 5, 99], "negative": [-1, 3, 4, 5],
                 "list_item": [[3], 4, 5, 6], "set_item": [{3}, 4, 5, 6],
                 "float_item": [3.0, 4, 5, 6]}


@pytest.mark.parametrize("v", BAD_V_INDICES.values(), ids=BAD_V_INDICES)
def test_v_indices_must_be_distinct_complement_indices(v):
    alg = from_name("heisenberg:1:H")
    lam = LinearFunctional(alg, [1, 2, 3])
    for good in (None, [3, 4, 5, 6]):
        pf_at(alg, [1, 2, 3], v_indices=good)
        is_square_integrable(alg, v_indices=good)
        pf_polynomial(alg, v_indices=good)
    cached = set(alg._cache)
    queries = (lambda: pf_polynomial(alg, v_indices=v),
               lambda: pf_at(alg, [1, 2, 3], v_indices=v),
               lambda: b_matrix(alg, lam, v_indices=v),
               lambda: is_square_integrable(alg, v_indices=v))
    for query in queries:
        with pytest.raises(ValueError, match=re.escape(
                f"v_indices {shown(v)} are not distinct indices of the "
                "complement basis")):
            query()
    assert set(alg._cache) == cached


def test_square_integrable_side_expands_no_pfaffian(monkeypatch):
    module = importlib.import_module("nilharm.pfaffian")
    expand = module.pf_polynomial
    calls = []

    def counting(alg, v_indices=None):
        calls.append(alg.name)
        return expand(alg, v_indices=v_indices)

    monkeypatch.setattr(module, "pf_polynomial", counting)
    square_integrable = 0   # the next test checks each decision
    for name in constructible_and_family_algebras():
        calls.clear()
        if is_square_integrable(from_name(name)):
            square_integrable += 1
            assert calls == [], name
    assert square_integrable == 42


def test_witness_is_the_first_candidate_where_the_oracle_is_nonzero():
    # on the full form of each algebra, and on the v1 of each split
    forms = []
    for name in constructible_and_family_algebras():
        alg = from_name(name)
        forms.append((name, alg, None))
        if not is_square_integrable(alg):
            dec = find_codim_split(alg)
            forms.append((name, alg, [i for i in alg.complement_indices
                                      if i in dec.l1_indices]))
    assert sum(v is not None for _, _, v in forms) == 10
    for name, alg, v in forms:
        pf = pf_polynomial(alg, v_indices=v)
        res = is_square_integrable(alg, v_indices=v)
        want = next((p for p in candidate_points(len(alg.center_indices))
                     if evaluate(pf, p) != 0), None)
        assert bool(res) == bool(pf), (name, v)
        assert res.witness == want, (name, v)
        assert res.pf is pf


def test_dropped_algebras_leave_no_cycles_for_the_collector():
    # every cached invariant is plain data (no object pointing back at
    # the algebra), and no Pfaffian expansion outlives its call
    gc.collect()
    gc.disable()
    try:
        for name in ("heisenberg:2:H", "table:2.2:23", "free2step:3:R",
                     "free2step:5:C", "octdouble"):
            alg = from_name(name)
            center(alg)
            nilpotency_class(alg)
            pf_polynomial(alg)
            if not is_square_integrable(alg):
                find_codim_split(alg)
            pf_nonsingular(alg, [1] * len(alg.center_indices))
            del alg
            assert gc.collect() == 0, name
    finally:
        gc.enable()


def test_witness_search_stops_at_all_ones(monkeypatch):
    alg = heisenberg(1, "C")

    def no_draws(seed):
        raise AssertionError("a random point was drawn")

    module = importlib.import_module("nilharm.pfaffian")
    monkeypatch.setattr(module.random, "Random", no_draws)
    res = is_square_integrable(alg)
    assert res and res.witness == [Fraction(1)]


def evaluate_float_reference(poly, points):
    """Term by term: coefficient first, then variables in index order."""
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[None, :]
    out = np.zeros(points.shape[0])
    for mono, coeff in poly.terms.items():
        term = np.full(points.shape[0], float(coeff))
        for j, e in enumerate(mono):
            if e:
                term = term * points[:, j] ** e
        out += term
    return out


def test_evaluate_float_is_bit_identical_to_the_term_loop():
    rng = np.random.default_rng(12)
    polys = [pf_polynomial(heisenberg(1, "O")),
             pf_polynomial(heisenberg(2, "H")),
             pf_polynomial(octonion_double(), v_indices=list(
                 octonion_double().complement_indices)[1:]),
             Poly.constant(3, Fraction(-7, 3)), Poly.zero(3)]
    for poly in polys:
        pts = rng.normal(size=(50, poly.nvars))
        for arg in (pts, pts[0]):
            got = poly.evaluate_float(arg)
            want = evaluate_float_reference(poly, arg)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_restricted_pfaffian_via_v_indices():
    # dropping one generator of free2step(3, R) leaves Pf = +-t1 on the pair
    alg = free_two_step(3, "R")
    v = list(alg.complement_indices)[:2]
    pf = pf_polynomial(alg, v_indices=v)
    assert pf.degree() == 1
    assert pf


def test_b_matrix_entries_are_bracket_pairings():
    alg = heisenberg(1, "C")
    from nilharm.pfaffian import LinearFunctional
    lam = LinearFunctional(alg, coeffs=[Fraction(5)])
    form = b_matrix(alg, lam)
    assert form.matrix[0][1] == -form.matrix[1][0]
    assert abs(form.matrix[0][1]) == 5


def test_b_matrix_poly_substitutes_center_polynomials():
    # plugging a one-parameter family into the form matches pf_at pointwise
    alg = free_two_step(3, "R")
    zdim = len(alg.center_indices)
    coeffs = lambda_a(alg, [Fraction(1)])
    idx = next(t for t, c in enumerate(coeffs) if c != 0)
    coeff_polys = [Poly.variable(1, 0) if t == idx else Poly.constant(1, 0)
                   for t in range(zdim)]
    v = list(alg.complement_indices)[:2]
    pf = pfaffian(b_matrix_poly(alg, coeff_polys, v_indices=v))
    for val in (Fraction(2), Fraction(-3)):
        direct = pf_at(alg, [val * c for c in coeffs], v_indices=v)
        assert evaluate(pf, [val]) == direct


def test_skew_forms_refuse_brackets_outside_the_designated_center():
    # [a, b] = c, but only d is designated central
    alg = LieAlgebraData(4, ["a", "b", "c", "d"], [(0, 1, 2, 1)],
                         center_indices=(3,), complement_indices=(0, 1, 2))
    from nilharm.pfaffian import LinearFunctional
    with pytest.raises(ValueError, match="outside the designated center"):
        b_matrix(alg, LinearFunctional(alg, coeffs=[1]))
    with pytest.raises(ValueError, match="outside the designated center"):
        b_matrix_poly(alg, [Poly.variable(1, 0)])


def test_a_refused_pattern_is_not_cached():
    # [a, b] = c with only d designated central: the check runs again on
    # every call, and nothing is left in the algebra's cache
    alg = LieAlgebraData(4, ["a", "b", "c", "d"], [(0, 1, 2, 1)],
                         center_indices=(3,), complement_indices=(0, 1, 2))
    lam = LinearFunctional(alg, coeffs=[1])
    for _ in range(2):
        with pytest.raises(ValueError, match="outside the designated center"):
            b_matrix(alg, lam)
        with pytest.raises(ValueError, match="outside the designated center"):
            pf_at(alg, [1])
    assert all(key[0] != "skew_pattern" for key in alg._cache)


def test_a_central_complement_vector_is_refused():
    # [u1, u2] = z with only z designated central: u3 is central too,
    # and h(1;C) + R is square integrable modulo its true center
    alg = LieAlgebraData(4, ["z", "u1", "u2", "u3"], [(1, 2, 0, 1)],
                         center_indices=(0,), complement_indices=(1, 2, 3))
    refused = pytest.raises(ValueError, match="designated center is not")
    with refused:
        is_square_integrable(alg)
    with refused:
        find_codim_split(alg)
    with refused:
        b_matrix(alg, LinearFunctional(alg, coeffs=[1]))
    with refused:
        pf_at(alg, [1])
    with refused:
        pf_at(alg, [1], v_indices=(1, 2))


def test_a_designated_center_vector_with_a_bracket_is_refused():
    # [x, y] = w with x designated central: the computed center is w,
    # of the same dimension, so only the row check sees it
    alg = LieAlgebraData(3, ["x", "y", "w"], [(0, 1, 2, 1)],
                         center_indices=(0,), complement_indices=(1, 2))
    with pytest.raises(ValueError, match="designated center is not"):
        b_matrix(alg, LinearFunctional(alg, coeffs=[1]))


def test_a_three_step_algebra_is_refused_by_the_guard_order():
    # [x1, x2] = z, [x1, z] = w: class 3.  With z and w designated
    # central, z has a bracket; with w alone, [x1, x2] leaves the
    # designated center
    alg = LieAlgebraData(4, ["x1", "x2", "z", "w"],
                         [(0, 1, 2, 1), (0, 2, 3, 1)],
                         center_indices=(2, 3), complement_indices=(0, 1))
    assert nilpotency_class(alg) == 3
    with pytest.raises(ValueError, match="designated center is not"):
        pf_at(alg, [1, 1])
    alg = LieAlgebraData(4, ["x1", "x2", "z", "w"],
                         [(0, 1, 2, 1), (0, 2, 3, 1)],
                         center_indices=(3,), complement_indices=(0, 1, 2))
    with pytest.raises(ValueError, match=r"^\[x1,x2\] has a component "
                       "outside the designated center$"):
        pf_at(alg, [1])


def test_the_two_step_guard_runs_once_per_algebra(monkeypatch):
    module = importlib.import_module("nilharm.pfaffian")
    guard, calls = module._two_step_guard, []
    monkeypatch.setattr(module, "_two_step_guard",
                        lambda alg: calls.append(alg.name) or guard(alg))
    alg = from_name("free2step:5:C")
    assert find_codim_split(alg) is not None
    pf_at(alg, [1] * len(alg.center_indices))
    assert calls == ["free2step:5:C"]


def test_skew_forms_read_no_nilpotency_class(monkeypatch):
    # the guard's first two checks give class <= 2 on their own
    def refuse(alg):
        raise AssertionError("the nilpotency class was computed")

    monkeypatch.setattr(algebra, "_nilpotency_class", refuse)
    for entry in list_entries(constructible=True):
        alg = entry.build()
        pf_at(alg, [1] * len(alg.center_indices))
        if not is_square_integrable(alg):
            assert find_codim_split(alg) is not None
        family = alg.meta.get("family")
        if family in ("free2step", "octdouble"):
            a = [1, 2, 3] if family == "octdouble" else [1]
            orbit_representative(alg, lambda_a(alg, a))


def rational_two_step():
    """A hand-built 2-step algebra with non-integral structure constants:
    [x1, x2] = z1/2, [x1, x3] = 5/3 z2, [x2, x4] = -z1,
    [x3, x4] = -3/4 z1 + 2 z2."""
    entries = [(0, 1, 4, Fraction(1, 2)), (0, 2, 5, Fraction(5, 3)),
               (1, 3, 4, -1), (2, 3, 4, Fraction(-3, 4)), (2, 3, 5, 2)]
    return LieAlgebraData(6, ["x1", "x2", "x3", "x4", "z1", "z2"], entries,
                          center_indices=(4, 5),
                          complement_indices=(0, 1, 2, 3))


# each is checked on its complement and on its l1 split, if it has one
INTEGER_PF_CASES = ["heisenberg:1:C", "heisenberg:2:H", "heisenberg:1:O",
                    "heisenberg:3:C", "free2step:3:R", "free2step:4:R",
                    "free2step:5:C", "table:2.2:1", "table:2.2:23",
                    "octdouble", "rational"]


@pytest.mark.parametrize("name", INTEGER_PF_CASES)
def test_pf_at_in_integers_matches_the_polynomial_and_the_determinant(name):
    alg = rational_two_step() if name == "rational" else from_name(name)
    v1 = l1_complement_indices(alg)
    rng = random.Random(name)
    for v in [None] + ([v1] if v1 is not None else []):
        pf = pf_polynomial(alg, v_indices=v)
        for k in range(4):
            lam = [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                   for _ in alg.center_indices]
            if k == 0:   # integral points take the same path, with L = 1
                lam = [Fraction(c.numerator) for c in lam]
            got = pf_at(alg, lam, v_indices=v)
            assert type(got) is Fraction
            assert got == evaluate(pf, lam)
            form = b_matrix(alg, LinearFunctional(alg, lam), v_indices=v)
            assert got ** 2 == linalg.det(form.matrix)


def fraction_form(alg, lam, v):
    """b_lambda on the ordering v, filled in Fraction arithmetic from the
    dense structure table: entry (a, b) = sum_t lam_t [v_a, v_b]_(z_t)."""
    def pairing(i, j):
        vec = alg.structure.get((min(i, j), max(i, j)), [0] * alg.dim)
        sign = 1 if i < j else -1
        return sum((Fraction(c) * sign * vec[k] for c, k
                    in zip(lam, alg.center_indices)), Fraction(0))
    return [[pairing(i, j) for j in v] for i in v]


@pytest.mark.parametrize("name", INTEGER_PF_CASES)
def test_b_matrix_matches_the_fraction_oracle(name):
    # every entry a Fraction, at integral, rational and pairwise-coprime
    # functionals, on the complement and on the l1 split
    alg = rational_two_step() if name == "rational" else from_name(name)
    v1 = l1_complement_indices(alg)
    rng = random.Random(name)
    primes = [p for p in range(2, 100) if all(p % q for q in range(2, p))]
    zdim = len(alg.center_indices)
    for v in [None] + ([v1] if v1 is not None else []):
        order = list(alg.complement_indices) if v is None else v
        for lam in ([rng.randint(-9, 9) for _ in range(zdim)],
                    [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                     for _ in range(zdim)],
                    [Fraction(rng.randint(-9, 9), p)
                     for p in primes[:zdim]]):
            got = b_matrix(alg, LinearFunctional(alg, lam), v_indices=v)
            assert got.matrix == fraction_form(alg, lam, order)
            assert all(type(c) is Fraction for row in got.matrix
                       for c in row)


def test_pf_at_on_odd_and_empty_orderings():
    rng = random.Random(52)
    for alg in (rational_two_step(), from_name("heisenberg:2:H")):
        comp = list(alg.complement_indices)
        lam = [Fraction(rng.randint(1, 9), rng.randint(1, 6))
               for _ in alg.center_indices]
        for v in (comp[:1], comp[:3], comp[1:]):
            got = pf_at(alg, lam, v_indices=v)
            assert type(got) is Fraction and got == 0
        got = pf_at(alg, lam, v_indices=[])
        assert type(got) is Fraction and got == 1
    # the full complement of free2step:3:R has odd dimension
    got = pf_at(from_name("free2step:3:R"), [1, 2, 3])
    assert type(got) is Fraction and got == 0


def test_pf_at_rejects_wrong_length():
    with pytest.raises(ValueError):
        pf_at(heisenberg(1, "C"), [1, 2])


REFERENCE = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                        / "reference.json").read_text(encoding="utf-8"))


def catalog_algebras():
    """Every constructible table row at its defaults, then every algebra
    the benchmark reference records (its sweep pool and query set)."""
    rows = [(f"table:{e.table_id}:{e.row}", e.build())
            for e in list_entries(constructible=True)]
    return rows + [(name, from_name(name)) for name in REFERENCE["algebras"]]


def test_catalog_pfaffians_have_int_coefficients():
    for name, alg in catalog_algebras():
        v1 = l1_complement_indices(alg)
        for v in [None] + ([v1] if v1 is not None else []):
            pf = pf_polynomial(alg, v_indices=v)
            assert all(type(c) is int for c in pf.terms.values()), (name, v)


def test_pfaffian_strings_match_the_benchmark_reference():
    for name, want in REFERENCE["algebras"].items():
        assert pf_polynomial(from_name(name)).format() == want["pfaffian"]


def test_benchmark_algebra_entries_match_the_reference(monkeypatch):
    # the benchmark's recorder, run as it is: each exact output it pins
    # (SquareIntegrability.pf, the split and its flags, pf_v1) is intact
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(bench))
    record_reference = importlib.import_module("record_reference")
    mods = record_reference.workloads.load_modules()
    assert len(REFERENCE["algebras"]) == 26
    for name, want in REFERENCE["algebras"].items():
        assert record_reference.algebra_entry(name, mods) == want, name


def test_non_integral_brackets_keep_fraction_coefficients():
    half = LieAlgebraData(3, ["x", "y", "z"], [(0, 1, 2, Fraction(1, 2))],
                          center_indices=(2,), complement_indices=(0, 1))
    pf = pf_polynomial(half)
    assert pf.terms == {(1,): Fraction(1, 2)}
    assert type(pf.terms[(1,)]) is Fraction
    assert pf.format() == "1/2*t1"
    # Pf = (t1/2)(-3/4 t1 + 2 t2) + 5/3 t1 t2
    pf = pf_polynomial(rational_two_step())
    assert pf.format() == "-3/8*t1^2 + 8/3*t1*t2"
    # [x1, x2] = z/2 and [x3, x4] = 2z: the Fractions multiply to an int
    quarter = LieAlgebraData(
        5, ["x1", "x2", "x3", "x4", "z"],
        [(0, 1, 4, Fraction(1, 2)), (2, 3, 4, Fraction(2))],
        center_indices=(4,), complement_indices=(0, 1, 2, 3))
    pf = pf_polynomial(quarter)
    assert pf.terms == {(2,): 1} and type(pf.terms[(2,)]) is int


def oracle_combine(p, q, sign):
    """p + sign * q over Fraction dicts: p's terms first, q's new ones
    after them in q's order, vanishing terms dropped."""
    out = {m: Fraction(c) for m, c in p.items()}
    for m, c in q.items():
        s = out.get(m, Fraction(0)) + sign * Fraction(c)
        if s == 0:
            out.pop(m, None)
        else:
            out[m] = s
    return out


def oracle_product(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            s = out.get(m, Fraction(0)) + Fraction(c1) * Fraction(c2)
            if s == 0:
                out.pop(m, None)
            else:
                out[m] = s
    return out


def assert_terms(poly, want):
    # same terms in the same order (evaluate_float sums in it), each
    # coefficient an int exactly when it is integral
    assert list(poly.terms.items()) == list(want.items())
    for c in poly.terms.values():
        assert (type(c) is int) == (Fraction(c).denominator == 1), c


def random_terms(rng, nvars):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        mono = tuple(rng.randint(0, 2) for _ in range(nvars))
        terms[mono] = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
    return {m: c for m, c in terms.items() if c}


def test_mixed_int_and_fraction_arithmetic_matches_fractions():
    rng = random.Random(53)
    for _ in range(300):
        p_terms, q_terms = random_terms(rng, 3), random_terms(rng, 3)
        # overlapping monomials, so sums cancel and Fractions add to ints
        q_terms.update({m: rng.choice((-c, 1 - c, Fraction(1, 2) - c))
                        for m, c in p_terms.items() if rng.random() < 0.5})
        q_terms = {m: c for m, c in q_terms.items() if c}
        p, q = Poly(3, p_terms), Poly(3, q_terms)
        assert_terms(p + q, oracle_combine(p_terms, q_terms, 1))
        assert_terms(p - q, oracle_combine(p_terms, q_terms, -1))
        assert_terms(p * q, oracle_product(p_terms, q_terms))
        assert_terms(-p, {m: -c for m, c in p_terms.items()})
        for s in (3, Fraction(2, 3), Fraction(-3, 2), Fraction(4, 2), 0):
            const = {(0, 0, 0): s} if s else {}
            assert_terms(p * s, oracle_product(p_terms, const))
            assert_terms(s * p, oracle_product(p_terms, const))
            assert_terms(p + s, oracle_combine(p_terms, const, 1))
            assert_terms(p - s, oracle_combine(p_terms, const, -1))


def test_a_polynomial_minus_itself_is_zero():
    assert not Poly.zero(3) and not Poly.constant(3, 0)
    assert Poly.variable(3, 1) and Poly.constant(3, Fraction(1, 2))
    for name in ("heisenberg:2:H", "heisenberg:1:O", "table:2.2:9"):
        pf = pf_polynomial(from_name(name))
        assert pf - pf == Poly.zero(pf.nvars)
        assert not pf - pf
        assert pf - (-pf) == pf * 2


def test_pfaffian_refuses_a_matrix_that_is_not_skew():
    t = Poly.variable(1, 0)
    for bad in ([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]],
                [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]],
                [[Poly.zero(1), t], [t, Poly.zero(1)]]):
        with pytest.raises(ValueError, match="not antisymmetric"):
            pfaffian(bad)


@pytest.mark.parametrize("poly", [False, True], ids=["numbers", "polys"])
def test_pfaffian_refuses_a_non_square_matrix(poly):
    # a wide first row, and a long last row: both used to answer 1
    t = Poly.variable(1, 0) if poly else 1
    zero = Poly.zero(1) if poly else 0
    for bad in ([[zero, t, 2 * t], [-t, zero, 3 * t]],
                [[zero, t], [-t, zero, 5 * t]]):
        with pytest.raises(ValueError, match="^pfaffian needs a square "
                           "matrix$"):
            pfaffian(bad)


def int_skew(rng, n, density=1.0, lo=-9, hi=9):
    """A random skew n x n of ints, each upper entry nonzero at chance
    density."""
    M = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                M[i][j] = rng.randint(lo, hi)
                M[j][i] = -M[i][j]
    return M


def permuted_blocks(rng, sizes):
    """A skew matrix that is block diagonal with random dense int blocks
    of the given sizes, its indices then shuffled, so that the blocks
    interleave."""
    n = sum(sizes)
    order = list(range(n))
    rng.shuffle(order)
    M, start = [[0] * n for _ in range(n)], 0
    for size in sizes:
        block = int_skew(rng, size)
        idx = order[start:start + size]
        for i in range(size):
            for j in range(size):
                M[idx[i]][idx[j]] = block[i][j]
        start += size
    return M


def test_the_pivot_pair_pfaffian_matches_the_expansion():
    # dense forms up to n = 20, odd n included, sparse ones whose
    # pattern falls apart, and permuted block diagonals, whose Pf
    # carries the sign of the permutation
    rng = random.Random(72)
    signs = set()
    cases = [int_skew(rng, n) for n in range(21) for _ in range(2)]
    cases += [int_skew(rng, n, density=0.2) for n in range(4, 15)
              for _ in range(3)]
    cases += [permuted_blocks(rng, sizes) for sizes in
              ([2, 2], [2, 4], [4, 2, 2], [3, 3], [2, 6, 4], [4, 4, 2, 2],
               [1, 3, 2], [6, 2, 2, 2]) for _ in range(4)]
    for M in cases:
        want = expansion_pfaffian(M)
        got = pfaffian(M)
        assert type(got) is Fraction and got == want, M
        signs.add((want > 0) - (want < 0))
    assert signs == {-1, 0, 1}


def test_a_dense_40_x_40_pfaffian_is_fast():
    rng = random.Random(73)
    M = [[Fraction(x, 7) for x in row] for row in int_skew(rng, 40)]
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        pf = pfaffian(M)
        best = min(best, time.perf_counter() - start)
    assert pf ** 2 == linalg.det(M) != 0
    assert best < 0.05


def test_pf_at_matches_the_expansion_on_the_catalog():
    # every constructible row, free2step:n:R/C for n <= 7 and octdouble,
    # on v and on the l1 split, at the first witness candidates and at
    # rational points
    rng = random.Random(74)
    names = ([f"table:{e.table_id}:{e.row}"
              for e in list_entries(constructible=True)]
             + [f"free2step:{n}:{F}" for n in range(2, 8) for F in "RC"]
             + ["octdouble"])
    for name in names:
        alg = from_name(name)
        v1 = l1_complement_indices(alg)
        candidates = _witness_candidates(len(alg.center_indices))
        points = [next(candidates) for _ in range(3)] + [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
             for _ in alg.center_indices] for _ in range(2)]
        for v in [None] + ([v1] if v1 is not None else []):
            for lam in points:
                form = b_matrix(alg, LinearFunctional(alg, lam), v_indices=v)
                want = expansion_pfaffian(form.matrix, Fraction(0),
                                          Fraction(1))
                got = pf_at(alg, lam, v_indices=v)
                assert type(got) is Fraction and got == want, (name, v, lam)


def test_pf_at_signs_the_permuted_blocks():
    result = pf_at_matches_the_expansion()
    assert result["passed"], result["detail"]
    assert result["detail"] == "12 nonzero values"
    # the interleaved blocks {x1, x3}, {x2, x4, x5, x6}: Pf(b_lambda) =
    # -t1 * (2 t1 (t1 + t2) - t2^2), so at (1, 1) it is -3
    assert pf_at(interleaved_blocks(), [1, 1]) == -3
