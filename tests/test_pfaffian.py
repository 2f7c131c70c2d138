"""Symbolic Pfaffians, square integrability, and the exact recursion."""

import importlib
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from nilharm import linalg
from nilharm.algebra import LieAlgebraData
from nilharm.catalog import (abelian, free_two_step, from_name, heisenberg,
                             lambda_a, list_entries, octonion_double)
from nilharm.orbits import l1_complement_indices
from nilharm.pfaffian import (LinearFunctional, _pfaffian_expansion,
                              b_matrix, b_matrix_poly,
                              is_square_integrable, pf_at, pf_polynomial,
                              pfaffian)
from nilharm.polynomials import Poly
from nilharm.quadrature import TensorGrid


def rand_skew(rng, n, lo=-9, hi=9):
    M = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            M[i][j] = Fraction(rng.randint(lo, hi), rng.randint(1, 5))
            M[j][i] = -M[i][j]
    return M


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


def test_complex_expansion_squares_to_the_determinant():
    rng = np.random.default_rng(46)
    for n in (2, 4, 6):
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        M = A - A.T
        pf = _pfaffian_expansion(M, 0j, 1 + 0j)
        det = np.linalg.det(M)
        assert abs(pf * pf - det) <= 1e-12 * max(1.0, abs(det))
        # only the strict upper triangle is read: noise on the diagonal,
        # as a float congruence leaves it, changes no bit
        noisy = M + np.diag(rng.normal(size=n) * 1e-9)
        assert _pfaffian_expansion(noisy, 0j, 1 + 0j) == pf


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
            assert pf_at(alg, lam, v_indices=v) == pf.evaluate(lam)


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


def test_witness_search_matches_the_full_candidate_list(monkeypatch):
    # t1 - t2 vanishes at all-ones, so the witness comes from the stream
    alg = heisenberg(1, "H")
    pf = Poly.variable(3, 0) - Poly.variable(3, 1)
    rng = random.Random(0)
    candidates = [[Fraction(1)] * 3] + [
        [Fraction(rng.randint(-9, 9)) for _ in range(3)] for _ in range(500)]
    want = next(p for p in candidates if pf.evaluate(p) != 0)
    module = importlib.import_module("nilharm.pfaffian")
    monkeypatch.setattr(module, "pf_polynomial",
                        lambda alg, v_indices=None: pf)
    res = is_square_integrable(alg)
    assert res and res.witness == want


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


def test_evaluate_grid_is_bit_identical_to_evaluate_float():
    rng = np.random.default_rng(13)
    octdouble = octonion_double()
    polys = [pf_polynomial(heisenberg(1, "O")),
             pf_polynomial(heisenberg(2, "H")),
             pf_polynomial(octdouble,
                           v_indices=l1_complement_indices(octdouble)),
             Poly.constant(3, Fraction(-7, 3)), Poly.zero(3)]
    for poly in polys:
        # unequal axis lengths, so a transposed layout cannot pass
        grid = TensorGrid(rng.normal(size=2 + k % 3) * 2
                          for k in range(poly.nvars))
        got = poly.evaluate_grid(grid.axes)
        assert got.shape == grid.shape
        want = poly.evaluate_float(grid.points())
        assert got.reshape(-1).tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="axis count"):
        polys[0].evaluate_grid(grid.axes)


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
        assert pf.evaluate([val]) == direct


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
            assert got == pf.evaluate(lam)
            form = b_matrix(alg, LinearFunctional(alg, lam), v_indices=v)
            assert got ** 2 == linalg.det(form.matrix)


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
