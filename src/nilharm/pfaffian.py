"""Skew forms b_lambda, exact Pfaffians, and square integrability.

b_lambda(x, y) = lambda([x, y]) on the complement v of the designated
center.  Every form is filled from its pattern, the nonzero brackets
[v_a, v_b] in center coordinates, cached once per algebra and v
ordering once _two_step_guard, run once per algebra, has found b_lambda
a form modulo the center.  A numeric Pfaffian is the pivot-pair
elimination linalg._pivot_pairs in integers, O(n^3); pf_at runs it on
each block of the pattern at L * lambda (L the lcm of the denominators)
and divides once.  A symbolic one expands along the first index,
memoized on index tuples, on Poly entries or straight off the pattern
(pf_polynomial), its monomials packed into ints: linear in n on the
catalog's block-sparse forms, up to 2^n on a dense n x n.
Sign convention: Pf([[0, a], [-a, 0]]) = a, so Pf(M)^2 = det(M).

pf_at is the one exact evaluator at a point, and decides square
integrability (Pf not identically 0 on z*, Moore & Wolf): one nonzero
value proves it, so the symbolic Pfaffian is expanded only to print
it or to prove it zero.
"""

import random
from fractions import Fraction
from math import lcm

from . import linalg
from .algebra import center, derived_inside_center
from .config import shown
from .polynomials import Poly, _add_terms


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
    ints, scale = linalg._scaled(lam.coeffs)
    return SkewForm([linalg._unscaled(row, scale) for row in _skew_form(
        *_cached_pattern(alg, v_indices), ints, 0)])


def b_matrix_poly(alg, coeff_polys, v_indices=None):
    """Skew form of a lambda whose center coefficients are polynomials.

    Used to substitute a parametrized functional (e.g. the normal-form
    family lambda_a) into the Pfaffian symbolically: entry (i, j) is
    sum over t of coeff_polys[t] * [e_i, e_j]_t.
    """
    if len(coeff_polys) != len(alg.center_indices):
        raise ValueError(f"need {len(alg.center_indices)} coefficient "
                         "polynomials")
    return SkewForm(_skew_form(*_cached_pattern(alg, v_indices), coeff_polys,
                               Poly.zero(coeff_polys[0].nvars)))


def _skew_form(n, entries, coeffs, zero):
    # the n x n matrix with entries (a, b, ((t, c), ...)), a < b: entry
    # (a, b) = sum over t of coeffs[t] * c, summed in increasing t: a
    # Poly's term order, which evaluate_float sums in, then does not
    # depend on how the sparse rows are laid out
    matrix = [[zero] * n for _ in range(n)]
    for a, b, terms in entries:
        val = zero
        for t, c in terms:
            val = val + coeffs[t] * c
        matrix[a][b], matrix[b][a] = val, -val
    return matrix


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


def _v_key(alg, v_indices):
    """tuple(v_indices), its caches' key, or None; refused before it is
    hashed unless it holds distinct complement indices."""
    key = None if v_indices is None else tuple(v_indices)
    if key and len({i for i in key if isinstance(i, int)
                    and i in alg.complement_indices}) < len(key):
        raise ValueError(f"v_indices {shown(list(v_indices))} are not "
                         "distinct indices of the complement basis")
    return key


def _cached_pattern(alg, v_indices):
    key = _v_key(alg, v_indices)
    v = alg.complement_indices if key is None else key
    return alg.cached(("skew_pattern", key), lambda a: a.cached(
        "two_step", _two_step_guard) and _skew_pattern(a, v))


def _skew_pattern(alg, v_indices):
    """(n, ((a, b, ((t, c), ...)), ...)): the n complement indices and
    their nonzero brackets, center coordinates t increasing."""
    n = len(v_indices)
    pos = {idx: t for t, idx in enumerate(alg.center_indices)}
    return n, tuple((a, b, tuple(sorted((pos[k], c) for k, c in row)))
                    for a in range(n) for b in range(a + 1, n)
                    if (row := alg.bracket_row(v_indices[a], v_indices[b])))


def pfaffian(form):
    """Pfaffian of a SkewForm or plain skew matrix, exact.

    A Fraction for rational entries, a Poly if any entry is a Poly;
    odd dimension gives 0 (degenerate form), the empty matrix 1.
    """
    matrix = form.matrix if isinstance(form, SkewForm) else form
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("pfaffian needs a square matrix")
    if any(matrix[i][j] + matrix[j][i] for i in range(n) for j in range(i, n)):
        raise ValueError("matrix is not antisymmetric")
    polys = [x for row in matrix for x in row if isinstance(x, Poly)]
    if not polys:
        gram, scale = linalg._int_rows(matrix)
        return Fraction(_int_pfaffian(gram), scale ** (n // 2))
    if len({p.nvars for p in polys}) > 1:
        raise ValueError("variable count mismatch")
    # no exponent of Pf passes n/2 times the largest exponent of an entry
    width = (n // 2 * max((e for p in polys for mono in p.terms
                           for e in mono), default=0)).bit_length()
    return _symbolic_pfaffian(n, polys[0].nvars, width, (
        (i, j, [(sum(e << width * k for k, e in enumerate(mono)), c)
                for mono, c in x.terms.items()]
         if isinstance(x, Poly) else [(0, x)])
        for i in range(n) for j in range(i + 1, n) if (x := matrix[i][j])))


def _int_pfaffian(gram):
    """Pf of an int skew matrix by linalg._pivot_pairs, which consumes
    it: 0 unless every pair leads at the first row left; 0 at odd n,
    and at n = 4 its closed form."""
    if len(gram) % 2:
        return 0
    if len(gram) == 4:
        (_, a, b, c), (_, _, d, e), (*_, f) = gram[:3]
        return a * f - b * e + c * d
    sign = 1
    for a, b, s, _ in linalg._pivot_pairs(gram):
        if a:
            return 0
        sign = sign if b % 2 else -sign
        if len(gram) == 2:
            return sign * s
    return int(not gram)


def pf_polynomial(alg, v_indices=None):
    """Symbolic Pfaffian over all of z*, in the center coordinates.

    Cached on the algebra per v_indices ordering.
    """
    key = _v_key(alg, v_indices)
    return alg.cached(("pf_polynomial", key),
                      lambda a: _pf_polynomial(a, key))


def _pf_polynomial(alg, v_indices):
    # entry (a, b) is sum over t of c * t_t: an exponent of Pf is <= n/2
    n, pattern = _cached_pattern(alg, v_indices)
    width = (n // 2).bit_length()
    return _symbolic_pfaffian(n, len(alg.center_indices), width, (
        (a, b, [(1 << width * t, c) for t, c in terms])
        for a, b, terms in pattern))


def _symbolic_pfaffian(n, nvars, width, entries):
    """Pf in nvars variables, from the nonzero (i, j, [(monomial, c), ...])
    with i < j, t_k^e packed as e << width * k: expansion along the first
    index in Poly arithmetic's term order, each term built in full, then
    merged."""
    if n % 2:
        return Poly.zero(nvars)
    rows = [{} for _ in range(n)]
    for i, j, terms in entries:
        rows[i][j] = terms
    memo = {(): {0: 1}}

    def pf(indices):
        if indices in memo:
            return memo[indices]
        row, rest, total = rows[indices[0]], indices[1:], {}
        for t, j in enumerate(rest):
            if j not in row:
                continue
            sub = pf(rest[:t] + rest[t + 1:]).items()
            term = _add_terms({}, ((m1 + m2, c1 * c2)
                                   for m1, c1 in row[j] for m2, c2 in sub))
            _add_terms(total, ((m, -c) for m, c in term.items())
                       if t % 2 else term.items())
        memo[indices] = total
        return total

    total = pf(tuple(range(n)))
    del pf      # pf refers to itself: free memo and rows now, not at gc
    mask = (1 << width) - 1
    return Poly._of(nvars, {tuple(m >> width * k & mask for k in range(nvars)):
                            c for m, c in total.items()})


def pf_at(alg, coeffs, v_indices=None):
    """Exact Pfaffian value at a concrete functional, as a Fraction:
    Pf(b_{L lambda}) / L^(n/2), in integers the sign of _pf_blocks
    times the Pfaffians of its blocks, a 2 x 2 block's its entry."""
    ints, scale = linalg._scaled(LinearFunctional(alg, coeffs=coeffs).coeffs)
    n, pattern = _cached_pattern(alg, v_indices)
    if n % 2:
        return Fraction(0)
    pf, den, blocks = alg.cached(
        ("pf_blocks", None if v_indices is None else tuple(v_indices)),
        lambda _: _pf_blocks(n, pattern))
    m = _skew_form(n, pattern, [x * den for x in ints], 0)
    for b in blocks:
        if not pf:
            break
        pf *= m[b[0]][b[1]] if len(b) == 2 else _int_pfaffian(
            [[m[i][j] for j in b] for i in b])
    return Fraction(pf, (scale * den) ** (n // 2))


def _pf_blocks(n, pattern):
    """(sign, den, blocks): the blocks of a pattern, by
    linalg._components; den is the lcm of its denominators and sign
    that of the permutation that lists the blocks in order."""
    blocks = linalg._components(n, ((a, b) for a, b, _ in pattern))
    order, sign = [k for b in blocks for k in b], 1
    for i in range(n):      # sort order by swaps, each flipping the sign
        while (j := order[i]) != i:
            order[i], order[j], sign = order[j], j, -sign
    den = lcm(*{c.denominator for _, _, terms in pattern for _, c in terms})
    return sign, den, blocks


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
    key = _v_key(alg, v_indices)
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
