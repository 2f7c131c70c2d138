"""Skew forms b_lambda, exact Pfaffians, and square integrability.

b_lambda(x, y) = lambda([x, y]) on the complement v of the designated
center.  Every form is filled from its pattern, the nonzero brackets
[v_a, v_b] in center coordinates, cached once per algebra and v
ordering once _two_step_guard, run once per algebra, has found b_lambda
a form modulo the center.  pf_at fills the form of L * lambda (L the
lcm of the denominators) in integers and divides once, by L^(n/2).
One Pfaffian serves every ring: cofactor expansion along the first index,
memoized on index tuples, reading only the strict upper triangle.
Entries need only *, +, - and truth as a nonzero test, so the same
expansion runs on ints or Fractions (a concrete lambda) and on Poly
entries (the symbolic matrix over the center coordinates, with int
coefficients when the brackets are integral, as in every catalog
algebra).  Its cost is the number of index tuples it reaches: linear
in n on the catalog's block-sparse forms, up to 2^n on a dense n x n.
Sign convention: Pf([[0, a], [-a, 0]]) = a, so Pf(M)^2 = det(M).

pf_at is the one exact evaluator at a point, and decides square
integrability (Pf not identically 0 on z*, Moore & Wolf): one nonzero
value proves it, so the symbolic Pfaffian is expanded only to print
it or to prove it zero.
"""

import math
import random
from fractions import Fraction

from .algebra import center, derived_inside_center
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
    key = None if v_indices is None else tuple(v_indices)
    v = alg.complement_indices if key is None else key
    pattern = alg.cached(("skew_pattern", key), lambda a: a.cached(
        "two_step", _two_step_guard) and _skew_pattern(a, v))
    n = len(v)
    matrix = [[zero] * n for _ in range(n)]
    for a, b, terms in pattern:
        val = zero
        for t, c in terms:
            val = val + coeffs[t] * c
        matrix[a][b], matrix[b][a] = val, -val
    return SkewForm(matrix)


def _two_step_guard(alg):
    """True when b_lambda is a form modulo the center, cached per
    algebra.  Refuses, in this order, a designated center vector with a
    nonzero bracket, a bracket outside the designated center, and a
    computed center of another dimension; passing the first two means
    class <= 2, and the third that the designated center is the center.
    """
    refusal = "the designated center is not the computed center"
    if any(alg._rows[z] for z in alg.center_indices):
        raise ValueError(f"{refusal} of the algebra")
    if not derived_inside_center(alg):
        zset = set(alg.center_indices)
        i, j = next(ij for ij, row in alg.brackets().items()
                    if any(k not in zset for k, _ in row))
        raise ValueError(f"[{alg.basis_labels[i]},{alg.basis_labels[j]}] "
                         "has a component outside the designated center")
    if len(center(alg)) != len(alg.center_indices):
        raise ValueError(f"{refusal} of the algebra")
    return True


def _skew_pattern(alg, v_indices):
    """((a, b, ((t, c), ...)), ...): the nonzero brackets [v_a, v_b],
    a < b, as center coordinates t in increasing order."""
    pos = {idx: t for t, idx in enumerate(alg.center_indices)}
    n = len(v_indices)
    return tuple((a, b, tuple(sorted((pos[k], c) for k, c in row)))
                 for a in range(n) for b in range(a + 1, n)
                 if (row := alg.bracket_row(v_indices[a], v_indices[b])))


def pfaffian(form):
    """Pfaffian of a SkewForm or plain skew matrix, exact.

    A Fraction for rational entries, a Poly if any entry is a Poly;
    odd dimension gives 0 (degenerate form), the empty matrix 1.
    """
    matrix = form.matrix if isinstance(form, SkewForm) else form
    n = len(matrix)
    if any(matrix[i][j] + matrix[j][i] for i in range(n) for j in range(i, n)):
        raise ValueError("matrix is not antisymmetric")
    poly = next((x for row in matrix for x in row if isinstance(x, Poly)),
                None)
    if poly is None:
        zero, one = Fraction(0), Fraction(1)
    else:
        zero, one = Poly.zero(poly.nvars), Poly.constant(poly.nvars, 1)
    return _pfaffian_expansion(matrix, zero, one)


def _pfaffian_expansion(matrix, zero, one):
    """Pf of a skew matrix by expansion along its first index.

    Pf(i0, rest) = sum over t of (-1)^t m[i0][rest[t]] Pf(rest minus
    rest[t]), memoized on index tuples; only the strict upper triangle
    is read and zero entries are skipped.  zero and one are the ring's
    identities: each sum starts from zero, not from a diagonal entry,
    and the empty tuple's Pfaffian is one.  No skew check is made.
    """
    if len(matrix) % 2:
        return zero     # the expansion would take 2^n steps to find it
    memo = {}

    def pf(indices):
        if not indices:
            return one
        cached = memo.get(indices)
        if cached is not None:
            return cached
        row = matrix[indices[0]]
        rest = indices[1:]
        total = zero
        for t, j in enumerate(rest):
            entry = row[j]
            if not entry:
                continue
            term = entry * pf(rest[:t] + rest[t + 1:])
            total = total + term if t % 2 == 0 else total - term
        memo[indices] = total
        return total

    total = pf(tuple(range(len(matrix))))
    del pf      # pf refers to itself: free memo and matrix now, not at gc
    return total


def pf_polynomial(alg, v_indices=None):
    """Symbolic Pfaffian over all of z*, in the center coordinates.

    Cached on the algebra per v_indices ordering.
    """
    key = None if v_indices is None else tuple(v_indices)
    return alg.cached(("pf_polynomial", key),
                      lambda a: _pf_polynomial(a, v_indices))


def _pf_polynomial(alg, v_indices):
    # the form is skew by construction, so the expansion runs unchecked
    zdim = len(alg.center_indices)
    coeffs = [Poly.variable(zdim, t) for t in range(zdim)]
    zero = Poly.zero(zdim)
    matrix = _skew_form(alg, coeffs, zero, v_indices).matrix
    return _pfaffian_expansion(matrix, zero, Poly.constant(zdim, 1))


def pf_at(alg, coeffs, v_indices=None):
    """Exact Pfaffian value at a concrete functional, as a Fraction:
    Pf(b_{L lambda}) / L^(n/2), the expansion run in integers."""
    lam = LinearFunctional(alg, coeffs=coeffs).coeffs
    scale = math.lcm(*(c.denominator for c in lam))
    ints = [c.numerator * (scale // c.denominator) for c in lam]
    matrix = _skew_form(alg, ints, 0, v_indices).matrix
    return Fraction(_pfaffian_expansion(matrix, 0, 1),
                    scale ** (len(matrix) // 2))


class SquareIntegrability:
    """Outcome of the Pf != 0 test, with a witness point when true."""

    __slots__ = ("square_integrable", "witness", "_alg", "_v_indices")

    def __init__(self, witness, alg, v_indices):
        self.square_integrable = witness is not None
        self.witness = None if witness is None else list(witness)
        self._alg, self._v_indices = alg, v_indices

    @property
    def pf(self):
        """The symbolic Pfaffian, expanded (and cached) when read."""
        return pf_polynomial(self._alg, v_indices=self._v_indices)

    def __bool__(self):
        return self.square_integrable


def is_square_integrable(alg, v_indices=None):
    """Pf != 0 as a polynomial, plus a rational witness when nonzero.

    The witness is the first point of a deterministic stream (all-ones,
    then 500 fixed-seed small integer points) where pf_at is nonzero.
    A zero value proves nothing, so it reads the cached symbolic Pf,
    and zero means False.  A nonzero Pf of this size cannot dodge 500
    such samples; if that ever trips, it is a bug.  The witness (or
    None) is cached per algebra and v_indices ordering.
    """
    key = None if v_indices is None else tuple(v_indices)
    witness = alg.cached(("witness", key), lambda a: _witness(a, key))
    return SquareIntegrability(witness, alg, v_indices)


def _witness(alg, v_indices):
    for point in _witness_candidates(len(alg.center_indices)):
        if pf_at(alg, point, v_indices=v_indices) != 0:
            return tuple(point)
        if not pf_polynomial(alg, v_indices=v_indices):
            return None
    raise RuntimeError("nonzero Pfaffian but witness search failed")


def _witness_candidates(zdim):
    # lazy, so a hit at all-ones draws no random point
    yield [Fraction(1)] * zdim
    rng = random.Random(0)
    for _ in range(500):
        yield [Fraction(rng.randint(-9, 9)) for _ in range(zdim)]
