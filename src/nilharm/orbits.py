"""Coadjoint orbit representatives via skew normal forms.

Every case reads b_lambda(x, y) = lambda([x, y]) on v from the bracket
table, through the cached skew pattern that every Pfaffian reads,
filled once in integers: its exact rank from linalg._pivot_pairs, one
sigma from tr(-b_lambda^2), more from the float spectrum.  Case 1 (free
2-step over R): real skew M under K = SO(n) congruence.  Case 6 (over
C, n odd): complex skew M under K = SU(n).  A unit u in ker M gives D
= I + (c - 1) conj(u) u^T, unitary with D M D^T = M and det D = c for
|c| = 1, so the SU(n) orbits are the U(n) orbits, classified by the
paired singular values of M (Youla 1961).  Even n gives the O(n) or
U(n) invariants, not the sign or phase of Pf.  Case 3 (octonion
double, K = G2): b_lambda is lambda paired with the octonion cross
product, det(x - b_lambda^2) = x (x + |lambda|^2)^6, so the orbit of
lambda != 0 is the sphere of radius |lambda| (G2 is transitive on
S^6).  The one float floor, the spectrum's resolution, is relative,
so t * lambda has lambda's orbit type for every t > 0.  Only
skew_spectrum and _skew_eigenvalues, which a one-sigma orbit skips,
import numpy.
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
PAIR_TOL = 1e-9

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
    M = np.asarray(M, dtype=float)
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

    Refuses coeffs of the wrong length or past the float range, and an
    invariant past it.  The rank r of b_lambda is exact, a float
    coefficient read as the dyadic it is: kernel_dim is (n - r) / unit.
    Over F with d = DIM[F], b_lambda realifies M in (u_p e_a)
    coordinates, so d is the case's group and unit in _CASES: each
    sigma appears `group` times among the r / 2 positive eigenvalues of
    i b_lambda, |lambda| three times on case 3.  When r / 2 is 0 or
    group, and _one_invariant's exact test finds those equal, the one
    sigma is read in integers.  Otherwise the sigmas are the largest
    r / 2 eigenvalues of i B, B the exact form rounded to floats; one at
    or below n eps times the largest, the error bound of eigvalsh, is
    noise, and is refused, as is a spectrum that does not come in runs
    of equal values (within PAIR_TOL of the largest).
    """
    _counted(alg, coeffs)
    case = _CASES.get((alg.meta.get("family"), alg.meta.get("F")))
    if case is None:
        raise ValueError(f"no orbit normal form implemented for {alg.name}")
    try:
        floats = [float(c) for c in coeffs]
    except OverflowError:       # an int or Fraction past 1.8e308
        floats = [math.inf]
    if any(math.isinf(f) or f == 0 != c for f, c in zip(floats, coeffs)):
        raise ValueError("a coefficient is too small or too large for a "
                         "float, whose range is 5e-324 to 1.8e308")
    if any(map(math.isnan, floats)):
        raise ValueError("skew_spectrum needs finite entries")
    tag, group, unit = case
    ints, scale = linalg._scaled(coeffs)
    gram, den = linalg._int_rows(_skew_form(*_cached_pattern(alg, None),
                                            ints, 0))
    n = len(gram)
    pairs = sum(1 for _ in linalg._pivot_pairs([row[:] for row in gram]))
    try:    # an entry past 1.8e308 overflows, so does the largest sigma
        positive = _one_invariant(gram, pairs, scale * den, group)
        if positive is None:
            positive = _skew_eigenvalues([[x / (scale * den) for x in row]
                                          for row in gram])[n - pairs:]
        if not all(map(math.isfinite, positive)):
            raise OverflowError
    except OverflowError:
        raise ValueError("an orbit invariant is too large for a float, "
                         "whose range is 5e-324 to 1.8e308") from None
    if positive and positive[0] <= n * sys.float_info.epsilon * positive[-1]:
        raise ValueError("an orbit invariant is below the resolution of "
                         f"the float skew spectrum, {n} * 2.2e-16 times "
                         "the largest")
    # positive ascends, so a run of `group` values is equal when its ends are
    if len(positive) % group or any(
            b - a > PAIR_TOL * positive[-1]
            for a, b in zip(positive[::group], positive[group - 1::group])):
        raise ValueError(f"the real skew spectrum {positive} does not come "
                         f"in equal {('pairs', 'triples')[group - 2]}, so "
                         "K does not act on the bracket")
    return OrbitRepresentative(tag, positive[::group],
                               (n - 2 * len(positive)) // unit)


def _one_invariant(gram, pairs, scale, group):
    """The positive spectrum of i G / scale, G = gram of rank 2 pairs,
    when it is empty or one sigma `group` times, else None.  Then
    tr(-G^2) = 2 pairs sigma^2 scale^2; the sigmas are equal iff 2 pairs
    tr(G^4) = tr(G^2)^2 (Cauchy-Schwarz), tr(G^4) = |G G^T|_F^2.  sigma
    is an isqrt on 110 bits or more, rounded to odd: correctly rounded."""
    if pairs != group:
        return None if pairs else []
    num, den = sum(x * x for row in gram for x in row), 2 * pairs * scale ** 2
    if pairs > 1 and 2 * pairs * sum(
            sum(map(mul, a, b)) ** 2 << (i != j)
            for i, a in enumerate(gram)
            for j, b in enumerate(gram[i:], i)) != num * num:
        return None
    k = max(0, 56 - (num.bit_length() - den.bit_length()) // 2)
    q, rem = divmod(num << 2 * k, den)
    root = math.isqrt(q)
    return [(root | (rem > 0 or root * root < q)) / (1 << k)] * pairs


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
