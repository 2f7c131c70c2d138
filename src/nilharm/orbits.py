"""Coadjoint orbit representatives via skew normal forms.

b_lambda(x, y) = lambda([x, y]) on v is read in integers from the
cached skew pattern of the Pfaffians.  Case 1 (free 2-step over R):
real skew M under K = SO(n).  Case 6 (over C): complex skew M under K
= SU(n), whose orbits for odd n are the U(n) orbits (a unit u in ker M
gives D = I + (c - 1) conj(u) u^T, unitary, D M D^T = M, det D = c),
classified by the paired singular values of M (Youla 1961); even n
gives the U(n) invariants, not the phase of Pf.  Case 3 (octonion
double, K = G2): det(x - b_lambda^2) = x (x + |lambda|^2)^6 and G2 is
transitive on S^6, so the invariant is |lambda|.  Three exact rules
decide an answer's shape: the exact rank gives the number of invariants
and kernel_dim; case 6 pairs by a cached check that the bracket is
complex-bilinear; case 3 is refused unless its rank and Cauchy-Schwarz
tests pass.  One range rule: an invariant outside 5e-324 to 1.8e308 is
refused, a coefficient of any size is not.  Only two or more
invariants, on case 1 or 6, read the float spectrum.
"""

import math
import sys
from fractions import Fraction
from operator import mul

from . import linalg
from .pfaffian import (_cached_pattern, _counted, _skew_form,
                       is_square_integrable, pf_at)
from .stepwise import find_codim_split

SKEW_INPUT_TOL = 1e-12
RANK_TOL = 1e-10

# (family, F) -> (case tag, group, unit): each sigma of the orbit
# appears `group` times in the real spectrum of b_lambda on v, and each
# kernel direction of the orbit counts `unit` times in its kernel
_CASES = {("free2step", "R"): ("case1", 1, 1),
          ("free2step", "C"): ("case6", 2, 2),
          ("octdouble", None): ("case3", 3, 1)}


def skew_spectrum(M):
    """Invariants (a_1 <= ... <= a_m, kernel_dim) of a real skew matrix,
    the a_j above RANK_TOL times its largest entry."""
    import numpy as np
    try:
        M = np.asarray(M, dtype=float)
    except ValueError:      # ragged rows, as darboux_basis refuses them
        M = np.empty(0)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("skew_spectrum needs a square matrix")
    scale = np.abs(M).max(initial=0.0)      # initial: M may be 0 x 0
    if not math.isfinite(scale):            # a NaN entry gives NaN
        raise ValueError("skew_spectrum needs finite entries")
    if np.abs(M + M.T).max(initial=0.0) > SKEW_INPUT_TOL * scale:
        raise ValueError("matrix is not antisymmetric within 1e-12")
    positive = [e for e in _skew_eigenvalues(M) if e > RANK_TOL * scale]
    return positive, len(M) - 2 * len(positive)


def _skew_eigenvalues(M):
    """The eigenvalues of i M ascending, as floats, for a finite real
    skew M: {+-a_j} plus zeros, from the hermitian i M."""
    import numpy as np
    return np.linalg.eigvalsh(1j * np.asarray(M, dtype=float)).tolist()


class DarbouxBasis:
    """Exact congruence data: B^T M B = diag{(0,s_j; -s_j,0), ..., 0}.

    vectors holds the new basis (pairs first, then the radical); the
    block values s_j are exact rationals, not normalized to be
    positive, since square roots leave Q.
    """

    __slots__ = ("vectors", "block_values", "radical_dim")

    def __init__(self, vectors, block_values, radical_dim):
        self.vectors = vectors
        self.block_values = block_values
        self.radical_dim = radical_dim


def darboux_basis(M):
    """Symplectic Gram-Schmidt over Q for an exact skew matrix M: the
    pairs of linalg._pivot_pairs on L M, L the lcm of its denominators,
    each (W_a, W_b) / prev of value s / (prev L), then the radical."""
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("darboux_basis needs a square matrix")
    gram, scale = linalg._int_rows(M)
    if any(gram[i][j] != -gram[j][i] for i in range(n) for j in range(i, n)):
        raise ValueError("darboux_basis needs an exact skew matrix")
    vectors = [[int(j == i) for j in range(n)] for i in range(n)]
    pairs, values, last = [], [], 1
    for a, b, last, prev in linalg._pivot_pairs(gram, vectors):
        pairs += [linalg._unscaled(vectors[a], prev),
                  linalg._unscaled(vectors[b], prev)]
        values.append(Fraction(last, prev * scale))
    return DarbouxBasis(pairs + [linalg._unscaled(w, last) for w in vectors],
                        values, len(vectors))


class OrbitRepresentative:
    """K-orbit invariants as plain floats, the sigmas ascending; on case
    6 kernel_dim is complex, and case 3 has the one sigma |lambda|."""

    __slots__ = ("case_tag", "invariants", "kernel_dim")

    def __init__(self, case_tag, invariants, kernel_dim):
        self.case_tag = case_tag
        self.invariants = list(invariants)
        self.kernel_dim = kernel_dim

    def __repr__(self):
        return (f"OrbitRepresentative({self.case_tag}, a={self.invariants}, "
                f"kernel={self.kernel_dim})")


def orbit_representative(alg, coeffs):
    """K-orbit invariants of a concrete functional (module docstring).

    Refuses coeffs of the wrong length or with a NaN.  The rank r of
    b_lambda is exact, a float read as the dyadic it is: kernel_dim is
    (n - r) / unit, each sigma `group` times among the r / 2 positive
    eigenvalues of i b_lambda (_CASES); on case 3, r / 2 <= 3 = group."""
    _counted(alg, coeffs)
    case = _CASES.get((alg.meta.get("family"), alg.meta.get("F")))
    if case is None:
        raise ValueError(f"no orbit normal form implemented for {alg.name}")
    if any(c != c for c in coeffs):
        raise ValueError("skew_spectrum needs finite entries")
    tag, group, unit = case
    if tag == "case6" and not alg.cached("bilinear", _complex_bilinear):
        raise ValueError("the bracket is not complex-bilinear, so K does "
                         "not act on it")
    try:    # an infinite coefficient overflows, so does a sigma past 1.8e308
        ints, scale = linalg._scaled(coeffs)
        gram, den = linalg._int_rows(_skew_form(*_cached_pattern(alg, None),
                                                ints, 0))
        pairs = sum(1 for _ in linalg._pivot_pairs([row[:] for row in gram]))
        sigmas = (_one_invariant if pairs <= group else _float_invariants)(
            gram, pairs, scale * den, group)
    except OverflowError:
        sigmas = [math.inf]
    if not all(0 < s < math.inf for s in sigmas):
        raise ValueError("an orbit invariant is outside the float range, "
                         "5e-324 to 1.8e308")
    return OrbitRepresentative(tag, sigmas, (len(gram) - 2 * pairs) // unit)


def _one_invariant(gram, pairs, scale, group):
    """[sigma], the positive spectrum of i G / scale, G = gram of rank 2
    pairs, or []; refused unless group | pairs and 2 pairs |G G^T|_F^2 =
    tr(G^2)^2 (Cauchy-Schwarz: equal sigmas).  sigma^2 = tr(-G^2) / (2
    pairs scale^2), an isqrt on 110+ bits rounded to odd: correctly rounded."""
    if not pairs:
        return []
    num, den = sum(x * x for row in gram for x in row), 2 * pairs * scale ** 2
    if pairs % group or pairs > 1 and 2 * pairs * sum(
            sum(map(mul, a, b)) ** 2 << (i != j)
            for i, a in enumerate(gram)
            for j, b in enumerate(gram[i:], i)) != num * num:
        raise ValueError("the real skew spectrum does not come in equal "
                         f"{('pairs', 'triples')[group - 2]}, so K does not "
                         "act on the bracket")
    k = max(0, 56 - (num.bit_length() - den.bit_length()) // 2)
    q, rem = divmod(num << 2 * k, den)
    root = math.isqrt(q)
    return [(root | (rem > 0 or root * root < q)) / (1 << k)]


def _float_invariants(gram, pairs, scale, group):
    """Every group-th of the largest `pairs` eigenvalues of i G / scale,
    read on G / (scale 2^k) near unit size and refused at or below n eps
    times the largest, eigvalsh's error bound, then scaled back by 2^k."""
    n = len(gram)
    k = (max(abs(x) for row in gram for x in row).bit_length()
         - scale.bit_length())
    num, div = (1, scale << k) if k >= 0 else (1 << -k, scale)
    spectrum = _skew_eigenvalues([[x * num / div for x in row]
                                  for row in gram])[n - pairs:]
    if spectrum[0] <= n * sys.float_info.epsilon * spectrum[-1]:
        raise ValueError("an orbit invariant is below the resolution of "
                         f"the float skew spectrum, {n} * 2.2e-16 times "
                         "the largest")
    return [math.ldexp(s, k) for s in spectrum[::group]]


def _complex_bilinear(alg):
    """[J e_a, e_b] = [e_a, J e_b] on v: then J anticommutes with every
    b_lambda, so each eigenspace of -b_lambda^2 carries two anticommuting
    complex structures, J and b_lambda / sigma, and the sigmas pair."""
    J = _complex_structure(alg.complement_indices)
    return all(tuple((k, s * c) for k, c in alg.bracket_row(Ja, b))
               == tuple((k, t * c) for k, c in alg.bracket_row(a, Jb))
               for a, (Ja, s) in J.items() for b, (Jb, t) in J.items())


def _complex_structure(v):
    """{a: (b, s)} with J e_a = s e_b: i on the (re, im) pairs of v."""
    return {a: (b, s) for re, im in zip(v[::2], v[1::2])
            for a, b, s in ((re, im, 1), (im, re, -1))}


def pf_nonsingular(alg, coeffs):
    """Pf(lambda) != 0 on l1_complement_indices(alg), or on n/z when
    that is None (with no split, Pf = 0 there): the v1 of the split
    search, [u1, u2] = z1, [u1, u3] = z2 giving v1 = (u1, u2)."""
    return pf_at(alg, coeffs, v_indices=l1_complement_indices(alg)) != 0


def l1_complement_indices(alg):
    """v1 = l1 ∩ v of find_codim_split's split, decided once per
    algebra; None when it is square integrable or has no split."""
    v1 = alg.cached("l1_complement", _l1_complement)
    return None if v1 is None else list(v1)


def _l1_complement(alg):
    if is_square_integrable(alg):
        return None
    dec = find_codim_split(alg)
    return None if dec is None else tuple(
        i for i in alg.complement_indices if i in dec.l1_indices)
