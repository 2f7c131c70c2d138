"""Skew spectra, Darboux bases, and orbit normal forms."""

import importlib
import json
import math
import random
import subprocess
import sys
import warnings
from fractions import Fraction
from math import prod

import numpy as np
import pytest

from nilharm import composition, stepwise
from nilharm.algebra import LieAlgebraData
from nilharm.catalog import (OCTDOUBLE_LAMBDA_SUPPORT, free_two_step, from_name,
                             lambda_a, list_entries, octonion_double)
from nilharm.linalg import det
from nilharm.orbits import (darboux_basis, l1_complement_indices,
                            orbit_representative, pf_nonsingular,
                            skew_spectrum)
from nilharm.pfaffian import (LinearFunctional, b_matrix,
                              is_square_integrable, pf_at)
from nilharm.stepwise import StepwiseDecomposition, find_codim_split, verify
from orbit_oracle import kernel_dims_match_the_exact_radical


def rand_skew_float(rng, n):
    A = rng.normal(size=(n, n))
    return A - A.T


def test_skew_spectrum_matches_eigenvalues():
    rng = np.random.default_rng(20)
    for n in (2, 3, 4, 6):
        for _ in range(10):
            M = rand_skew_float(rng, n)
            positive, kernel = skew_spectrum(M)
            assert 2 * len(positive) + kernel == n
            eigs = sorted(abs(np.imag(e))
                          for e in np.linalg.eigvals(M) if np.imag(e) > 1e-9)
            assert np.allclose(positive, eigs, atol=1e-9)


def test_skew_spectrum_orthogonal_invariance():
    rng = np.random.default_rng(21)
    for _ in range(10):
        M = rand_skew_float(rng, 5)
        Q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        a1, k1 = skew_spectrum(M)
        a2, k2 = skew_spectrum(Q.T @ M @ Q)
        assert k1 == k2
        assert np.allclose(a1, a2, atol=1e-8)


def test_skew_spectrum_rejects_nonskew():
    with pytest.raises(ValueError):
        skew_spectrum(np.eye(3))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_skew_spectrum_refuses_a_non_finite_entry(bad):
    # refused before numpy runs: no RuntimeWarning, and not "Eigenvalues
    # did not converge"
    M = np.array([[0.0, bad, 0.0], [-bad, 0.0, 1.0], [0.0, -1.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match="^skew_spectrum needs finite entries$"):
            skew_spectrum(M)


def test_skew_spectrum_of_the_empty_matrix():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert skew_spectrum(np.zeros((0, 0))) == ([], 0)


def test_orbit_representative_refuses_a_non_finite_coefficient():
    alg = free_two_step(3, "C")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match="^skew_spectrum needs finite entries$"):
            orbit_representative(alg, [math.nan, 1, 0, 0, 0, 0])
        with pytest.raises(ValueError, match="too large for a float"):
            orbit_representative(alg, [1, math.inf, 0, 0, 0, 0])


def test_orbit_sigmas_are_refused_under_the_float_resolution():
    # lambda = (u1^u2)* + (u2^u3)* + t (u1^u4)* has Pf = t on u1..u4 and
    # sigma_1^2 + sigma_2^2 = 2 + t^2, so sigma_2 ~ t / sqrt(2); eigvalsh
    # reads it with an error near 1e-16, and read 3.4e-17 at t = 1e-20
    alg = free_two_step(5, "R")

    def lam(t):
        return [1, 0, t, 0, 1, 0, 0, 0, 0, 0]

    rep = orbit_representative(alg, lam(1e-14))
    assert rep.kernel_dim == 1
    assert rep.invariants == [pytest.approx(1e-14 / math.sqrt(2), rel=0.25),
                              pytest.approx(math.sqrt(2))]
    for t in (1e-16, 1e-20, Fraction(1, 10 ** 30)):
        with pytest.raises(ValueError, match="below the resolution of the "
                                             "float skew spectrum"):
            orbit_representative(alg, lam(t))


def test_darboux_basis_block_diagonalizes():
    M = [[0, 2, 0, 1], [-2, 0, 3, 0], [0, -3, 0, 0], [-1, 0, 0, 0]]
    basis = darboux_basis(M)
    assert basis.radical_dim == 0
    assert len(basis.block_values) == 2
    Mf = [[Fraction(x) for x in row] for row in M]

    def form(x, y):
        return sum(x[i] * Mf[i][j] * y[j]
                   for i in range(4) for j in range(4))

    vecs = basis.vectors
    for a in range(4):
        for b in range(4):
            val = form(vecs[a], vecs[b])
            same_pair = a // 2 == b // 2
            if same_pair and a < b:
                assert val == basis.block_values[a // 2]
            elif same_pair and a > b:
                assert val == -basis.block_values[b // 2]
            elif not same_pair:
                assert val == 0


def test_darboux_radical_detected():
    M = [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]
    basis = darboux_basis(M)
    assert basis.radical_dim == 1
    assert basis.block_values == [Fraction(1)]


@pytest.mark.parametrize("M", [[[0, 1], [-1, 0, 7]], [[0, 1], [-1]],
                               [[0, 1, 5], [-1, 0]]],
                         ids=["long_row", "short_row", "wide_first_row"])
def test_darboux_basis_refuses_a_non_square_matrix(M):
    with pytest.raises(ValueError, match="square matrix"):
        darboux_basis(M)


def darboux_oracle(M):
    """darboux_basis evaluating every form value from M, O(n^5)."""
    M = [[Fraction(x) for x in row] for row in M]
    n = len(M)

    def form(x, y):
        return sum((x[i] * M[i][j] * y[j]
                    for i in range(n) for j in range(n) if M[i][j] != 0),
                   Fraction(0))

    remaining = [[Fraction(1) if j == i else Fraction(0) for j in range(n)]
                 for i in range(n)]
    pairs = []
    values = []
    while True:
        found = None
        for a in range(len(remaining)):
            for b in range(a + 1, len(remaining)):
                if form(remaining[a], remaining[b]) != 0:
                    found = (a, b)
                    break
            if found:
                break
        if not found:
            break
        a, b = found
        u, v = remaining[a], remaining[b]
        s = form(u, v)
        pairs.extend([u, v])
        values.append(s)
        reduced = []
        for k, w in enumerate(remaining):
            if k in (a, b):
                continue
            cu = form(w, v) / s
            cv = form(w, u) / s
            reduced.append([w[t] - cu * u[t] + cv * v[t] for t in range(n)])
        remaining = reduced
    return pairs + remaining, values, len(remaining)


def rand_rational_skew(rng, n, density, rank):
    """A random skew n x n with `density` of nonzero entries, or, for
    rank < n, one of rank at most `rank`: A K A^T with A n x rank and K
    skew rank x rank, both that sparse."""
    def entry():
        if rng.random() >= density:
            return Fraction(0)
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    A = [[entry() for _ in range(rank)] for _ in range(n)]
    K = [[Fraction(0)] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            K[i][j] = entry()
            K[j][i] = -K[i][j]
    if rank == n:
        return K
    AK = [[sum((A[i][k] * K[k][l] for k in range(rank)), Fraction(0))
           for l in range(rank)] for i in range(n)]
    return [[sum((AK[i][l] * A[j][l] for l in range(rank)), Fraction(0))
             for j in range(n)] for i in range(n)]


def coprime_skew(n):
    """A dense skew n x n whose upper entries have pairwise coprime
    denominators, the first n(n-1)/2 primes: the common denominator L
    is their product."""
    primes = [p for p in range(2, 400) if all(p % q for q in range(2, p))]
    M = [[Fraction(0)] * n for _ in range(n)]
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for (i, j), p in zip(upper, primes):
        M[i][j] = Fraction(1 + (i * n + j) % 5, p)
        M[j][i] = -M[i][j]
    return M


def assert_matches_darboux_oracle(M):
    got = darboux_basis(M)
    vectors, values, radical_dim = darboux_oracle(M)
    assert got.vectors == vectors
    assert got.block_values == values
    assert got.radical_dim == radical_dim
    assert all(type(s) is Fraction for s in values)
    assert all(type(c) is Fraction for vec in got.vectors for c in vec)
    return radical_dim


def test_darboux_basis_matches_the_from_scratch_oracle():
    rng = random.Random(53)
    radicals = {True: 0, False: 0}
    cases = 0
    for n in range(10):
        for density in (0.3, 1.0):
            # full rank where n allows it, and rank n - 2 or n - 3 below
            for rank in sorted({n, max(n - 3, 0), max(n - 2, 0)}):
                for _ in range(4):
                    M = rand_rational_skew(rng, n, density, rank)
                    radical_dim = assert_matches_darboux_oracle(M)
                    radicals[radical_dim > 0] += 1
                    cases += 1
    assert cases >= 200
    # nondegenerate forms come from the full-rank draws at even n only
    assert radicals[True] >= 100 and radicals[False] >= 25
    # dense forms large enough for the integers of the fraction-free
    # elimination to grow past a machine word, one of them with a
    # common denominator of 66 primes
    for n in (12, 14):
        for rank in (n, n - 3):
            M = rand_rational_skew(rng, n, 1.0, rank)
            assert_matches_darboux_oracle(M)
    assert assert_matches_darboux_oracle(coprime_skew(12)) == 0


def test_darboux_basis_builds_a_fraction_only_for_what_it_returns(
        count_fractions):
    # one per nonzero vector entry and one per block value: no Fraction
    # inside the elimination, and at most 2n^2 + n in all
    rng = random.Random(57)
    cases = [(rand_rational_skew(rng, n, 1.0, rank), want) for n, rank, want
             in ((6, 6, 21), (6, 3, 15), (10, 10, 55), (14, 11, 99))]
    for M, want in cases + [(coprime_skew(12), 78)]:
        got, built = count_fractions(lambda: darboux_basis(M))
        nonzero = sum(1 for vec in got.vectors for c in vec if c)
        n = len(M)
        assert built == nonzero + len(got.block_values) == want
        assert built <= 2 * n * n + n


def darboux_pfaffian(M):
    """Pf(M) = prod s_j / det B, B with the Darboux basis as columns.

    B^T M B is block diagonal with blocks (0, s_j; -s_j, 0), whose
    Pfaffian is prod s_j, and Pf(B^T M B) = det(B) Pf(M).  A nonzero
    radical makes M singular, so then Pf(M) = 0.  No Pfaffian
    expansion runs.
    """
    basis = darboux_basis(M)
    if basis.radical_dim:
        return Fraction(0)
    # the determinant of B's rows is that of its columns
    return prod(basis.block_values) / det(basis.vectors)


# (algebra, on its l1 form, Pf nonzero at a generic lambda)
DARBOUX_CASES = [
    ("heisenberg:2:H", False, True), ("heisenberg:1:O", False, True),
    ("heisenberg:3:C", False, True), ("free2step:4:R", False, True),
    ("free2step:5:C", False, False), ("free2step:5:C", True, True),
    ("table:2.2:23", False, True), ("octdouble", True, True),
]


@pytest.mark.parametrize("name, on_l1, generic", DARBOUX_CASES)
def test_pfaffian_matches_the_darboux_product(name, on_l1, generic):
    alg = from_name(name)
    v = l1_complement_indices(alg) if on_l1 else None
    rng = random.Random(49)
    values = []
    for _ in range(3):
        lam = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
               for _ in alg.center_indices]
        M = b_matrix(alg, LinearFunctional(alg, lam), v_indices=v).matrix
        want = darboux_pfaffian(M)
        assert pf_at(alg, lam, v_indices=v) == want
        values.append(want)
    # a generic form gives a nonzero value at some sampled lambda, so
    # the check compares values and not only the radical branch
    assert any(values) if generic else not any(values)


def float_form(alg, coeffs):
    """b_lambda on v as a float matrix: the form case 1 reads."""
    return np.array(b_matrix(alg, LinearFunctional(alg, coeffs)).matrix,
                    dtype=float)


def test_case1_form_real_layout():
    alg = free_two_step(3, "R")
    pairs = alg.meta["wedge_pairs"]
    coeffs = [Fraction(0)] * 3
    coeffs[pairs.index((0, 1))] = Fraction(4)
    M = float_form(alg, coeffs)
    assert M[0, 1] == 4 and M[1, 0] == -4
    assert np.count_nonzero(M) == 2
    rep = orbit_representative(alg, coeffs)
    assert (rep.invariants, rep.kernel_dim) == ([4.0], 1)


def doubled_first_bracket(name):
    """A copy of free2step:n:F whose [u1, u2] is doubled, or of octdouble
    with every bracket doubled, with only the meta keys the orbit layer
    may read."""
    alg = from_name(name)
    F = alg.meta.get("F")
    if F is None:
        first = set(alg.brackets())
    elif F == "R":
        first = {tuple(alg.complement_indices[:2])}
    else:   # the real and imaginary coordinates of u1 and of u2
        u1, u2 = alg.complement_indices[0:4:2]
        first = {(i, j) for i in (u1, u1 + 1) for j in (u2, u2 + 1)}
    return edited_copy(alg, first)


def edited_copy(alg, doubled):
    """A copy of alg with the brackets [e_i, e_j], (i, j) in doubled,
    doubled, and the meta keys family and F."""
    entries = [(i, j, k, 2 * c if (i, j) in doubled else c)
               for (i, j), row in alg.brackets().items() for k, c in row]
    return LieAlgebraData(alg.dim, alg.basis_labels, entries,
                          center_indices=alg.center_indices,
                          complement_indices=alg.complement_indices,
                          meta={k: alg.meta[k] for k in ("family", "F")
                                if k in alg.meta})


@pytest.mark.parametrize("name", ["free2step:3:R", "free2step:3:C",
                                  "octdouble"])
def test_orbits_read_the_brackets_of_the_algebra_given(name):
    # the orbit of lambda = c (u1 ^ u2)* (on octdouble c z1*) is read
    # from b_lambda, so a doubled bracket doubles the invariant: 2|c|,
    # not |c|
    alg = doubled_first_bracket(name)
    for c, want in ((1, 2.0), (Fraction(-3, 2), 3.0)):
        coeffs = [0] * len(alg.center_indices)
        coeffs[0] = c
        rep = orbit_representative(alg, coeffs)
        assert rep.invariants[-1] == want
        assert rep.kernel_dim == 1


def test_case6_refuses_a_bracket_that_is_not_complex_bilinear():
    # only [u1, u2] and [iu1, u2] doubled, not [u1, iu2] and [iu1, iu2]:
    # the real spectrum at (u1 ^ u2)* is [1, 2], which pairs no sigma
    alg = from_name("free2step:3:C")
    u1, u2 = alg.complement_indices[0:4:2]
    copy = edited_copy(alg, {(u1, u2), (u1 + 1, u2)})
    with pytest.raises(ValueError, match=r"spectrum \[1\.0, 2\.0\] does "
                       "not come in equal pairs"):
        orbit_representative(copy, [1, 0, 0, 0, 0, 0])


def test_case3_refuses_a_bracket_that_is_not_the_cross_product():
    # one bracket of the octonion double doubled: at a lambda that reads
    # it, the real spectrum comes in no equal triples
    alg = octonion_double()
    first = next(iter(alg.brackets()))
    copy = edited_copy(alg, {first})
    lam = [0] * len(alg.center_indices)
    lam[alg.center_indices.index(alg.bracket_row(*first)[0][0])] = 1
    with pytest.raises(ValueError, match="does not come in equal triples"):
        orbit_representative(copy, lam)


def assert_scales(alg, lam, t):
    """t * lambda has lambda's orbit type and t times its sigmas."""
    want = orbit_representative(alg, lam)
    got = orbit_representative(alg, [t * float(c) for c in lam])
    assert (got.case_tag, got.kernel_dim) == (want.case_tag, want.kernel_dim)
    assert len(got.invariants) == len(want.invariants)
    for a, b in zip(got.invariants, want.invariants):
        assert abs(a - t * b) <= 1e-9 * t * b


@pytest.mark.parametrize("t", [1e-300, 1e-12, 1e-6, 1e6, 1e150, 1e300])
def test_orbit_type_is_invariant_under_scaling(t):
    # the rank floors are relative, so no functional is too small or
    # too large for its orbit, from 1e-300 to 1e300
    rng = random.Random(50)
    for n in range(2, 7):
        for F in "RC":
            alg = free_two_step(n, F)
            for _ in range(3):
                lam = [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                       for _ in alg.center_indices]
                assert_scales(alg, lam, t)
                if F == "C":
                    a = [(lam[2 * k], lam[2 * k + 1]) for k in range(n // 2)]
                    assert_scales(alg, lambda_a(alg, a), t)
    alg = octonion_double()
    for _ in range(3):
        lam = [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
               for _ in alg.center_indices]
        assert_scales(alg, lam, t)
        assert_scales(alg, lambda_a(alg, lam[:3]), t)


def test_case1_representative_reads_off_lambda_a():
    alg = free_two_step(5, "R")
    rep = orbit_representative(alg, lambda_a(alg, [2, 3]))
    assert rep.case_tag == "case1"
    assert rep.kernel_dim == 1
    assert np.allclose(rep.invariants, [2.0, 3.0])


def test_case1_rotation_invariance():
    alg = free_two_step(4, "R")
    pairs = alg.meta["wedge_pairs"]
    rng = np.random.default_rng(14)
    coeffs = [Fraction(int(c)) for c in rng.integers(-5, 6, size=len(pairs))]
    M = float_form(alg, coeffs)
    rep0 = orbit_representative(alg, coeffs)
    Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    rotated = Q.T @ M @ Q
    new_coeffs = [rotated[p, q] for (p, q) in pairs]
    rep1 = orbit_representative(
        alg, [Fraction(float(c)).limit_denominator(10 ** 9)
              for c in new_coeffs])
    assert rep0.kernel_dim == rep1.kernel_dim
    assert np.allclose(rep0.invariants, rep1.invariants, atol=1e-6)


def test_case6_representative_sigma():
    alg = free_two_step(3, "C")
    rep = orbit_representative(alg, lambda_a(alg, [(3, 4)]))
    assert rep.case_tag == "case6"
    assert rep.kernel_dim == 1
    # pinned bits of |3 + 4i| read off the realified 6 x 6 form
    assert rep.invariants == [4.999999999999999]


def test_case6_sigmas_are_pinned_on_seeded_functionals():
    alg = free_two_step(5, "C")
    rng = random.Random(48)
    want = [[3.7575423815369673, 13.874648653243565],
            [4.6489905552859545, 9.872349046997419]]
    for invariants in want:
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                  for _ in alg.center_indices]
        rep = orbit_representative(alg, coeffs)
        assert rep.invariants == invariants
        assert rep.kernel_dim == 1


def wedge_form(alg, coeffs):
    """The n x n skew M of a free 2-step functional, built from the
    wedge pairs: M[p, q] is the coefficient of u_p ^ u_q, complex over
    C (its re/im pair)."""
    n, pairs = alg.meta["n"], alg.meta["wedge_pairs"]
    c = [float(x) for x in coeffs]
    if alg.meta["F"] == "C":
        c = [complex(c[2 * t], c[2 * t + 1]) for t in range(len(pairs))]
    M = np.zeros((n, n), dtype=type(c[0]))
    for t, (p, q) in enumerate(pairs):
        M[p, q], M[q, p] = c[t], -c[t]
    return M


def wedge_coeffs(alg, M):
    """The functional whose wedge_form is M."""
    pairs = alg.meta["wedge_pairs"]
    if alg.meta["F"] == "R":
        return [float(M[p, q]) for p, q in pairs]
    return [float(x) for p, q in pairs for x in (M[p, q].real, M[p, q].imag)]


def random_special(rng, n, F):
    """A random element of SO(n) (F = R) or SU(n) (F = C)."""
    Z = rng.normal(size=(n, n))
    if F == "C":
        Z = Z + 1j * rng.normal(size=(n, n))
    Q, _ = np.linalg.qr(Z)
    if F == "R":
        Q[:, 0] *= np.linalg.det(Q)
        return Q
    return Q / np.linalg.det(Q) ** (1 / n)


def octonion_products():
    """T[a, b] = e_a e_b as a vector, from composition.TABLE."""
    T = np.zeros((8, 8, 8))
    for a, row in enumerate(composition.TABLE):
        for b, (sign, m) in enumerate(row):
            T[a, b, m] = sign
    return T


def octonion_derivations():
    """A basis of der(O): the kernel of D(xy) = D(x)y + xD(y) on the
    basis products, D[p, k] the e_p coordinate of D(e_k)."""
    T = octonion_products()
    columns = []
    for p in range(8):
        for k in range(8):      # the unknown D[p, k]
            residual = np.zeros((8, 8, 8))
            residual[:, :, p] += T[:, :, k]
            residual[k] -= T[p]
            residual[:, k] -= T[:, p]
            columns.append(residual.ravel())
    _, s, vt = np.linalg.svd(np.array(columns).T)
    return [x.reshape(8, 8) for x in vt[np.sum(s > 1e-9):]]


def random_g2(rng):
    """exp(D) on Im O for a random D in der(O), checked to be an
    automorphism of O: G2, which acts on Im O + Im O diagonally and so
    on a functional of the center by the same rotation."""
    basis = octonion_derivations()
    assert len(basis) == 14
    D = sum(c * X for c, X in zip(rng.normal(size=14), basis))
    w, V = np.linalg.eigh(1j * D)       # D is skew, i D hermitian
    R = (V @ np.diag(np.exp(-1j * w)) @ V.conj().T).real
    T = octonion_products()
    assert np.allclose(np.einsum("abm,ai,bj->ijm", T, R, R),
                       np.einsum("ijn,mn->ijm", T, R), atol=1e-12)
    assert np.allclose(R[0], np.eye(8)[0], atol=1e-12)
    return R[1:, 1:]


@pytest.mark.parametrize("F, n", [(F, n) for F in "RC" for n in (3, 5, 7)]
                         + [("O", 7)])
def test_orbit_invariants_are_K_invariant(F, n):
    # K = SO(n) on case 1 and SU(n) on case 6, acting by M -> U M U^T;
    # for odd n a kernel vector of M absorbs the determinant phase, so
    # the SU(n) orbit is the U(n) orbit and has no phase invariant.
    # On case 3 (F = O, n = dim Im O) K = G2 acts by exp(D)
    alg = octonion_double() if F == "O" else free_two_step(n, F)
    rng = np.random.default_rng(60 + n)
    for _ in range(5):
        lam = [int(c) for c in rng.integers(-9, 10, len(alg.center_indices))]
        if F == "O":
            moved_lam = (random_g2(rng) @ lam).tolist()
        else:
            U = random_special(rng, n, F)
            assert abs(np.linalg.det(U) - 1) <= 1e-12
            moved_lam = wedge_coeffs(alg, U @ wedge_form(alg, lam) @ U.T)
        rep = orbit_representative(alg, lam)
        moved = orbit_representative(alg, moved_lam)
        assert moved.kernel_dim == rep.kernel_dim == 1
        assert len(moved.invariants) == len(rep.invariants)
        for a, b in zip(moved.invariants, rep.invariants):
            assert abs(a - b) <= 1e-9 * b


def test_case6_sigmas_are_the_singular_values_of_M():
    # the oracle: numpy's SVD of the complex M, whose singular values
    # come in equal pairs, plus a 0 for odd n
    rng = random.Random(61)
    for n in range(2, 8):
        alg = free_two_step(n, "C")
        for m in range(n // 2 + 1):
            a = [(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m)]
            generic = [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                       for _ in alg.center_indices]
            for lam in (lambda_a(alg, a), generic):
                rep = orbit_representative(alg, lam)
                s = sorted(np.linalg.svd(wedge_form(alg, lam),
                                         compute_uv=False))
                want = [x for x in s[n % 2::2] if x > 1e-10 * s[-1]]
                assert rep.kernel_dim == n - 2 * len(want)
                assert len(rep.invariants) == len(want)
                for got, x in zip(rep.invariants, want):
                    assert abs(got - x) <= 1e-12 * s[-1]


def test_case3_representative_support_rule():
    # no support rule: G2 is transitive on the spheres of Im O, so every
    # lambda != 0 answers its norm, with the one kernel line
    alg = octonion_double()
    for lam, norm in ((lambda_a(alg, [1, 2, 3]), math.sqrt(14)),
                      ([Fraction(1)] * 7, math.sqrt(7)),
                      ([0, 0, 0, Fraction(-3, 4), 0, 0, 0], 0.75)):
        rep = orbit_representative(alg, lam)
        assert rep.case_tag == "case3"
        assert rep.kernel_dim == 1
        assert len(rep.invariants) == 1
        assert abs(rep.invariants[0] - norm) <= 1e-14 * norm


def test_kernel_dim_is_the_exact_radical():
    result = kernel_dims_match_the_exact_radical()
    assert result["passed"], result["detail"]
    # the seeded functionals reach radicals from 0 to 6, kernel 3 on
    # case 6 included
    assert result["detail"] == "radicals [0, 1, 2, 4, 5, 6]"


def test_case3_normal_form_is_nonsingular():
    # the normal-form split is a valid N1 x| R split, and lambda_a is
    # generic on it exactly when a1 != 0
    alg = octonion_double()
    v = l1_complement_indices(alg)
    l1 = list(alg.center_indices) + v
    l2 = [i for i in alg.complement_indices if i not in v]
    assert all(verify(StepwiseDecomposition(alg, l1, l2)).values())
    for a in ([1, 2, 3], [5, -1, 7], [1, 0, 0]):
        assert pf_nonsingular(alg, lambda_a(alg, a))
    assert not pf_nonsingular(alg, lambda_a(alg, [0, 2, 3]))


def test_pf_nonsingular_uses_the_right_pfaffian():
    sq = free_two_step(3, "R")
    # full Pf vanishes identically, so the l1 restriction decides
    assert pf_nonsingular(sq, lambda_a(sq, [1]))
    zero = [Fraction(0)] * len(sq.center_indices)
    assert not pf_nonsingular(sq, zero)

    from nilharm.catalog import heisenberg
    h = heisenberg(1, "H")
    assert pf_nonsingular(h, [1, 0, 0])
    assert not pf_nonsingular(h, [0, 0, 0])


# every constructible row, free2step:n:R/C for n <= 7, and octdouble
L1_ALGEBRAS = ([f"table:{e.table_id}:{e.row}"
                for e in list_entries(constructible=True)]
               + [f"free2step:{n}:{F}" for n in range(2, 8) for F in "RC"]
               + ["octdouble"])


def test_l1_complement_indices_families():
    assert l1_complement_indices(free_two_step(3, "R")) is not None
    assert l1_complement_indices(free_two_step(4, "R")) is None
    oct_v1 = l1_complement_indices(octonion_double())
    assert len(oct_v1) == 6
    # the v1 of the split search, and None on a square-integrable algebra
    for name in L1_ALGEBRAS:
        alg = from_name(name)
        comp = list(alg.complement_indices)
        got = l1_complement_indices(alg)
        if is_square_integrable(alg):
            assert got is None, name
            continue
        dec = find_codim_split(alg)
        if alg.meta["family"] != "octdouble":
            assert got == (None if dec is None else
                           [i for i in comp if i in dec.l1_indices]), name
            continue
        # the one declared exception: v3 = (0, e3), not the search's
        # (0, e7)
        drop = comp.pop(OCTDOUBLE_LAMBDA_SUPPORT[0])
        assert alg.basis_labels[drop] == "v3"
        assert dec.l2_indices != (drop,)
        assert got == comp, name


@pytest.mark.parametrize("name", ["free2step:3:R", "octdouble",
                                  "free2step:5:C", "heisenberg:2:H",
                                  "table:2.2:23"])
def test_pf_nonsingular_decides_once_per_algebra(monkeypatch, name):
    module = importlib.import_module("nilharm.pfaffian")
    witness, first_split = module._witness, stepwise._first_split
    searches, splits = [], []

    def searching(alg, v_indices):
        searches.append(v_indices)
        return witness(alg, v_indices)

    def splitting(alg):
        splits.append(alg)
        return first_split(alg)

    monkeypatch.setattr(module, "_witness", searching)
    monkeypatch.setattr(stepwise, "_first_split", splitting)
    alg = from_name(name)
    rng = random.Random(50)
    for _ in range(20):
        pf_nonsingular(alg, [Fraction(rng.randint(-3, 3))
                             for _ in alg.center_indices])
    # one search on n/z, and one per v1 the split search tried
    assert searches.count(None) == 1
    assert len(searches) == len(set(searches))
    assert len(splits) <= 1


def test_orbits_imported_after_the_package_reads_the_pfaffian_layer():
    # the package rebinds nilharm.pfaffian to the function pfaffian(), so
    # `from . import pfaffian` in a module imported later gets the function
    script = (
        "import json, nilharm\n"
        "import nilharm.orbits as orbits\n"
        "alg = nilharm.octonion_double()\n"
        "rep = orbits.orbit_representative(\n"
        "    alg, nilharm.lambda_a(alg, [1, 2, 3]))\n"
        "print(json.dumps([rep.kernel_dim,\n"
        "    orbits.pf_nonsingular(alg, nilharm.lambda_a(alg, [1, 2, 3])),\n"
        "    orbits.pf_nonsingular(alg, nilharm.lambda_a(alg, [0, 2, 3])),\n"
        "    type(nilharm.pfaffian).__name__]))\n")
    out = subprocess.run([sys.executable, "-c", script],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == [1, True, False, "function"]
