"""Skew forms b_lambda, exact Pfaffians, and square integrability.

b_lambda(x, y) = lambda([x, y]) on the complement v of the designated
center.  The Pfaffian runs in two modes: fraction elimination for a
concrete lambda, and memoized cofactor expansion for the symbolic
matrix over the polynomial ring in the center coordinates.  Sign
convention: Pf([[0, a], [-a, 0]]) = a, so Pf(M)^2 = det(M).
"""

import random
from fractions import Fraction

from . import linalg
from .algebra import nilpotency_class
from .polynomials import Poly


class LinearFunctional:
    """Element of z* with rational coefficients on the center basis."""

    __slots__ = ("coeffs",)

    def __init__(self, alg, coeffs):
        zdim = len(alg.center_indices)
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != zdim:
            raise ValueError(f"need {zdim} coefficients, got {len(coeffs)}")
        self.coeffs = coeffs


class SkewForm:
    """Matrix of b_lambda over an ordered complement basis."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        self.matrix = matrix

    @property
    def dim(self):
        return len(self.matrix)


def b_matrix(alg, lam, v_indices=None):
    """Skew form of lambda on the complement basis (or a given ordering).

    Brackets of complement vectors must land in the designated center;
    anything else means the algebra is not 2-step with that split.
    """
    return _skew_form(alg, lam.coeffs, Fraction(0), v_indices)


def b_matrix_poly(alg, coeff_polys, v_indices=None):
    """Skew form of a lambda whose center coefficients are polynomials.

    Used to substitute a parametrized functional (e.g. the normal-form
    family lambda_a) into the Pfaffian symbolically: entry (i, j) is
    sum over t of coeff_polys[t] * [e_i, e_j]_t.
    """
    if len(coeff_polys) != len(alg.center_indices):
        raise ValueError(f"need {len(alg.center_indices)} coefficient "
                         "polynomials")
    return _skew_form(alg, coeff_polys, Poly.zero(coeff_polys[0].nvars),
                      v_indices)


def _skew_form(alg, coeffs, zero, v_indices):
    # entry (a, b) = sum over t of coeffs[t] * [b_a, b_b]_t, summed in
    # increasing t: a Poly's term order, which evaluate_float sums in,
    # then does not depend on how the sparse rows are laid out
    if nilpotency_class(alg) > 2:
        raise ValueError("b_matrix needs a 2-step (or abelian) algebra")
    if v_indices is None:
        v_indices = list(alg.complement_indices)
    pos = {idx: t for t, idx in enumerate(alg.center_indices)}
    n = len(v_indices)
    matrix = [[zero for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            row = alg.bracket_row(v_indices[a], v_indices[b])
            if any(k not in pos for k, _ in row):
                raise ValueError(
                    f"[{alg.basis_labels[v_indices[a]]},"
                    f"{alg.basis_labels[v_indices[b]]}] has a component "
                    "outside the designated center")
            val = zero
            for t, c in sorted((pos[k], c) for k, c in row):
                val = val + coeffs[t] * c
            matrix[a][b] = val
            matrix[b][a] = -val
    return SkewForm(matrix)


def _is_zero_entry(x):
    return x.is_zero() if isinstance(x, Poly) else x == 0


def _check_skew(matrix):
    n = len(matrix)
    for i in range(n):
        if not _is_zero_entry(matrix[i][i]):
            raise ValueError("matrix is not antisymmetric (diagonal)")
        for j in range(i + 1, n):
            lhs, rhs = matrix[i][j], matrix[j][i]
            if isinstance(lhs, Poly) or isinstance(rhs, Poly):
                if not (lhs + rhs).is_zero():
                    raise ValueError("matrix is not antisymmetric")
            elif lhs != -rhs:
                raise ValueError("matrix is not antisymmetric")


def pfaffian(form):
    """Pfaffian of a SkewForm or plain skew matrix, exact.

    Odd dimension gives 0 (degenerate form); the empty matrix gives 1.
    Rational entries use skew elimination; polynomial entries use
    cofactor expansion memoized on index subsets.
    """
    matrix = form.matrix if isinstance(form, SkewForm) else form
    _check_skew(matrix)
    n = len(matrix)
    symbolic = any(isinstance(x, Poly) for row in matrix for x in row)
    if symbolic:
        nvars = next(x.nvars for row in matrix for x in row
                     if isinstance(x, Poly))
        lifted = [[x if isinstance(x, Poly) else Poly.constant(nvars, x)
                   for x in row] for row in matrix]
        if n % 2 == 1:
            return Poly.zero(nvars)
        if n == 0:
            return Poly.constant(nvars, 1)
        return _pfaffian_symbolic(lifted)
    if n % 2 == 1:
        return Fraction(0)
    if n == 0:
        return Fraction(1)
    return _pfaffian_numeric([[Fraction(x) for x in row] for row in matrix])


def _pfaffian_numeric(mat):
    # skew Schur-complement elimination with column/row pivot swaps
    n = len(mat)
    sign = 1
    result = Fraction(1)
    while n > 0:
        pivot = None
        for j in range(1, n):
            if mat[0][j] != 0:
                pivot = j
                break
        if pivot is None:
            return Fraction(0)
        if pivot != 1:
            # swap row/col pivot <-> 1; a transposition congruence flips Pf
            mat[1], mat[pivot] = mat[pivot], mat[1]
            for row in mat:
                row[1], row[pivot] = row[pivot], row[1]
            sign = -sign
        a = mat[0][1]
        result *= a
        nxt = []
        for i in range(2, n):
            row = []
            for j in range(2, n):
                row.append(mat[i][j]
                           - (mat[0][i] * mat[1][j] - mat[0][j] * mat[1][i]) / a)
            nxt.append(row)
        mat = nxt
        n -= 2
    return sign * result


def _pfaffian_symbolic(mat):
    n = len(mat)
    nvars = mat[0][0].nvars
    memo = {}

    def pf(indices):
        if not indices:
            return Poly.constant(nvars, 1)
        key = indices
        cached = memo.get(key)
        if cached is not None:
            return cached
        i0 = indices[0]
        rest = indices[1:]
        total = Poly.zero(nvars)
        for t, j in enumerate(rest):
            entry = mat[i0][j]
            if entry.is_zero():
                continue
            sub = rest[:t] + rest[t + 1:]
            term = entry * pf(sub)
            total = total + (term if t % 2 == 0 else -term)
        memo[key] = total
        return total

    return pf(tuple(range(n)))


def pf_polynomial(alg, v_indices=None):
    """Symbolic Pfaffian over all of z*, in the center coordinates.

    Cached on the algebra per v_indices ordering.
    """
    key = None if v_indices is None else tuple(v_indices)
    return alg.cached(("pf_polynomial", key),
                      lambda a: _pf_polynomial(a, v_indices))


def _pf_polynomial(alg, v_indices):
    zdim = len(alg.center_indices)
    coeffs = [Poly.variable(zdim, t) for t in range(zdim)]
    pf = pfaffian(_skew_form(alg, coeffs, Poly.zero(zdim), v_indices))
    if isinstance(pf, Fraction):
        # 0x0 matrix carries no symbolic entries to infer variables from
        pf = Poly.constant(zdim, pf)
    return pf


def pf_at(alg, coeffs, v_indices=None):
    """Exact Pfaffian value at a concrete functional."""
    lam = LinearFunctional(alg, coeffs=coeffs)
    return pfaffian(b_matrix(alg, lam, v_indices=v_indices))


class SquareIntegrability:
    """Outcome of the Pf != 0 test, with a witness point when true."""

    __slots__ = ("square_integrable", "witness", "pf")

    def __init__(self, square_integrable, witness, pf):
        self.square_integrable = square_integrable
        self.witness = witness
        self.pf = pf

    def __bool__(self):
        return self.square_integrable


def is_square_integrable(alg, v_indices=None):
    """Pf != 0 as a polynomial, plus a rational witness when nonzero.

    Witness search is deterministic: all-ones first, then a fixed-seed
    stream of small integer points, stopping at the first nonzero value.
    A nonzero polynomial of this size cannot dodge 500 such samples; if
    that ever trips, it is a bug.
    """
    pf = pf_polynomial(alg, v_indices=v_indices)
    if pf.is_zero():
        return SquareIntegrability(False, None, pf)
    for point in _witness_candidates(len(alg.center_indices)):
        if pf.evaluate(point) != 0:
            return SquareIntegrability(True, point, pf)
    raise RuntimeError("nonzero Pfaffian but witness search failed")


def _witness_candidates(zdim):
    # lazy, so a hit at all-ones draws no random point
    yield [Fraction(1)] * zdim
    rng = random.Random(0)
    for _ in range(500):
        yield [Fraction(rng.randint(-9, 9)) for _ in range(zdim)]
