"""Coadjoint orbit representatives via skew normal forms.

Every case reads b_lambda(x, y) = lambda([x, y]) on v from the bracket
table, through the cached skew pattern that every Pfaffian reads, and
classifies it by one skew spectrum.  Case 1 (free 2-step over R): real
skew M under K = SO(n) congruence.  Case 6 (over C, n odd): complex skew
M under K = SU(n).  A unit u in ker M gives D = I + (c - 1) conj(u)
u^T, unitary with D M D^T = M and det D = c for |c| = 1, so the SU(n)
orbits are the U(n) orbits, classified by the paired singular values
of M (Youla 1961).  Even n gives the O(n) or U(n) invariants, not the
sign or phase of Pf.  Case 3 (octonion double, K = G2): b_lambda is
lambda paired with the octonion cross product, det(x - b_lambda^2) =
x (x + |lambda|^2)^6, so the orbit of lambda != 0 is the sphere of
radius |lambda| (G2 is transitive on S^6).  The rank floor is
relative, so t * lambda has lambda's orbit type for every t > 0.
Only skew_spectrum imports numpy.  darboux_basis keeps its vectors as
W / d, integers over one denominator, after Bareiss.
"""

import math
from fractions import Fraction

from . import linalg
from .catalog import OCTDOUBLE_LAMBDA_SUPPORT
from .pfaffian import _skew_form, is_square_integrable, pf_at
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
    """Invariants (a_1 <= ... <= a_m, kernel_dim) of a real skew matrix.

    The eigenvalues of M are {+-i a_j} plus zeros; i*M is hermitian,
    which is what actually gets diagonalized.
    """
    import numpy as np
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("skew_spectrum needs a square matrix")
    scale = np.abs(M).max(initial=0.0)      # initial: M may be 0 x 0
    if not math.isfinite(scale):            # a NaN entry gives NaN
        raise ValueError("skew_spectrum needs finite entries")
    if np.abs(M + M.T).max(initial=0.0) > SKEW_INPUT_TOL * scale:
        raise ValueError("matrix is not antisymmetric within 1e-12")
    eigs = np.linalg.eigvalsh(1j * M)
    positive = sorted(float(e) for e in eigs if e > RANK_TOL * scale)
    kernel_dim = M.shape[0] - 2 * len(positive)
    return positive, kernel_dim


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
    """Symplectic Gram-Schmidt over Q for an exact skew matrix M, run in
    integers on L M, L the lcm of its denominators: the remaining vectors
    are W / d and G = W^T (L M) W.  The first pair (a, b) with s = G[a][b]
    != 0 leaves as (W_a, W_b) / d, value s / (d^2 L); every other W_k
    becomes s W_k - G_kb W_a + G_ka W_b, d becomes d s, and G takes the
    rank-2 update s (s G_pq + G_pb G_qa - G_pa G_qb), so O(n^3) in all.
    One gcd per step strips d's and W's common factor, its square from G.
    """
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("darboux_basis needs a square matrix")
    ints, scale = linalg._scaled([x for row in M for x in row])
    gram = [ints[i * n:(i + 1) * n] for i in range(n)]
    for i in range(n):
        if gram[i][i] or any(gram[i][j] != -gram[j][i] for j in range(n)):
            raise ValueError("darboux_basis needs an exact skew matrix")
    remaining = [[int(j == i) for j in range(n)] for i in range(n)]
    d, pairs, values = 1, [], []
    while True:
        m = len(remaining)
        found = next(((a, b) for a in range(m) for b in range(a + 1, m)
                      if gram[a][b]), None)
        if found is None:
            break
        a, b = found
        u, v, s = remaining[a], remaining[b], gram[a][b]
        pairs += [linalg._unscaled(u, d), linalg._unscaled(v, d)]
        values.append(Fraction(s, d * d * scale))
        keep = [k for k in range(m) if k not in found]
        remaining = [[s * w - gram[k][b] * x + gram[k][a] * y
                      for w, x, y in zip(remaining[k], u, v)] for k in keep]
        g = math.gcd(d * s, *[w for vec in remaining for w in vec])
        d = d * s // g
        remaining = [[w // g for w in vec] for vec in remaining]
        gram = [[s * (s * gram[p][q] + gram[p][b] * gram[q][a]
                      - gram[p][a] * gram[q][b]) // (g * g)
                 for q in keep] for p in keep]
    return DarbouxBasis(pairs + [linalg._unscaled(w, d) for w in remaining],
                        values, len(remaining))


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

    Refuses coeffs of the wrong length or past the float range.  Every
    case reads skew_spectrum of the float form B that pf_at fills with
    ints: over F with d = DIM[F], B realifies M in (u_p e_a)
    coordinates, so d is the case's group and unit in _CASES; on case 3
    |lambda| appears three times.  A spectrum that does not come in runs
    of equal values (within PAIR_TOL of the largest) is refused.
    """
    zdim = len(alg.center_indices)
    if len(coeffs) != zdim:
        raise ValueError(f"need {zdim} coefficients, got {len(coeffs)}")
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
    tag, group, unit = case
    positive, kernel_dim = skew_spectrum(
        _skew_form(alg, floats, 0.0, None).matrix)
    top = max(positive, default=0.0)
    # positive ascends, so a run of `group` values is equal when its ends are
    if len(positive) % group or any(
            b - a > PAIR_TOL * top
            for a, b in zip(positive[::group], positive[group - 1::group])):
        raise ValueError(f"the real skew spectrum {positive} does not come "
                         f"in equal {('pairs', 'triples')[group - 2]}, so "
                         "K does not act on the bracket")
    return OrbitRepresentative(tag, positive[::group], kernel_dim // unit)


def pf_nonsingular(alg, coeffs):
    """Pf(lambda) != 0 on l1_complement_indices(alg), or on n/z when
    that is None (with no split, Pf = 0 there).  Read on the split the
    search finds: [u1, u2] = z1, [u1, u3] = z2 gives v1 = (u1, u2)."""
    return pf_at(alg, coeffs, v_indices=l1_complement_indices(alg)) != 0


def l1_complement_indices(alg):
    """v1 = l1 ∩ v of find_codim_split's split, decided once per
    algebra; None when it is square integrable or has no split.  The
    octonion double drops (0, e3) instead, complement position
    OCTDOUBLE_LAMBDA_SUPPORT[0], the unit of a1 in lambda_a: (0, e_k)
    gives Pf = +-t_k*|t|^2, so the search's (0, e7) vanishes on the
    whole (e3, e6, e2)* family, where t7 = 0.  That exception serves
    only criterion 3's Pfaffian pins and pf_nonsingular; no orbit
    reads it."""
    v1 = alg.cached("l1_complement", _l1_complement)
    return None if v1 is None else list(v1)


def _l1_complement(alg):
    if is_square_integrable(alg):
        return None
    comp, a1 = alg.complement_indices, OCTDOUBLE_LAMBDA_SUPPORT[0]
    if alg.meta.get("family") == "octdouble":
        return comp[:a1] + comp[a1 + 1:]
    dec = find_codim_split(alg)
    return None if dec is None else tuple(i for i in comp if i in dec.l1_indices)
