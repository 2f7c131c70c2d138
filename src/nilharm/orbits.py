"""Coadjoint orbit representatives via skew normal forms.

Every case reads b_lambda(x, y) = lambda([x, y]) on v from the bracket
table, through the cached skew pattern that every Pfaffian reads.
Case 1 (free 2-step over R): a functional on Lambda^2 R^n is a real
skew matrix; its K = SO(n) orbit is classified by the skew spectrum.
Case 6 (over C): complex skew matrix under unitary congruence; the
invariants are the paired singular values with the residual
determinant phase folded into the last entry.  Both rank floors are
relative to the largest entry, so t * lambda has lambda's orbit type
for every t > 0.  Case 3 (octonion double): only functionals
supported on the (e3, e6, e2) coordinates are in implemented
normal-form reach; their l1 split drops (0, e3), on which
Pf(lambda_a) = +-a1*(a1^2 + a2^2 + a3^2).  Every other split is the
one find_codim_split finds.  Only the float routes (skew_spectrum,
cases 1 and 6) import numpy.
"""

import cmath
import math
from fractions import Fraction

from .catalog import OCTDOUBLE_LAMBDA_SUPPORT
from .pfaffian import (LinearFunctional, _pfaffian_expansion, _skew_form,
                       b_matrix, is_square_integrable, pf_at)
from .stepwise import find_codim_split

SKEW_INPUT_TOL = 1e-12
RANK_TOL = 1e-10


def skew_spectrum(M):
    """Invariants (a_1 <= ... <= a_m, kernel_dim) of a real skew matrix.

    The eigenvalues of M are {+-i a_j} plus zeros; i*M is hermitian,
    which is what actually gets diagonalized.
    """
    import numpy as np
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("skew_spectrum needs a square matrix")
    scale = np.abs(M).max()
    if np.abs(M + M.T).max() > SKEW_INPUT_TOL * scale:
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
    """Symplectic Gram-Schmidt over Q for an exact skew matrix.

    The first pair (a, b) of remaining vectors with s = G[a][b] != 0
    leaves the basis as (u, v); every other w becomes
    w - G[w][b]/s * u + G[w][a]/s * v.  G, the Gram matrix of the
    remaining vectors under M, takes the matching rank-2 update
    G[p][q] + (G[p][b] G[q][a] - G[p][a] G[q][b]) / s instead of being
    re-evaluated, so the cost is O(n^3), not O(n^5).
    """
    M = [[Fraction(x) for x in row] for row in M]
    n = len(M)
    for i in range(n):
        if M[i][i] != 0 or any(M[i][j] != -M[j][i] for j in range(n)):
            raise ValueError("darboux_basis needs an exact skew matrix")
    remaining = [[Fraction(1) if j == i else Fraction(0) for j in range(n)]
                 for i in range(n)]
    gram, pairs, values = M, [], []
    while True:
        m = len(remaining)
        found = next(((a, b) for a in range(m) for b in range(a + 1, m)
                      if gram[a][b] != 0), None)
        if found is None:
            break
        a, b = found
        u, v = remaining[a], remaining[b]
        s = gram[a][b]
        pairs.extend([u, v])
        values.append(s)
        keep = [k for k in range(m) if k not in found]
        cu = {k: gram[k][b] / s for k in keep}
        cv = {k: gram[k][a] / s for k in keep}
        support = [j for j in range(n) if u[j] or v[j]]
        for k in keep:      # in place: only u and v leave remaining
            w = remaining[k]
            for j in support:
                w[j] = w[j] - cu[k] * u[j] + cv[k] * v[j]
        remaining = [remaining[k] for k in keep]
        gram = [[gram[p][q] + s * (cu[p] * cv[q] - cv[p] * cu[q])
                 for q in keep] for p in keep]
    return DarbouxBasis(pairs + remaining, values, len(remaining))


class OrbitRepresentative:
    """Orbit invariants for one of the three exceptional cases."""

    __slots__ = ("case_tag", "invariants", "kernel_dim")

    def __init__(self, case_tag, invariants, kernel_dim):
        self.case_tag = case_tag
        self.invariants = list(invariants)
        self.kernel_dim = kernel_dim

    def __repr__(self):
        return (f"OrbitRepresentative({self.case_tag}, a={self.invariants}, "
                f"kernel={self.kernel_dim})")


def orbit_representative(alg, coeffs):
    """Canonical orbit invariants of a concrete functional.

    Refuses coeffs whose length is not dim z, then dispatches on the
    algebra family.  Cases 1 and 6 read b_lambda as the float form B
    that pf_at fills with ints; over C, v = C^n in (u_p, iu_p)
    coordinates, so the complex form is B[::2, ::2] + i B[::2, 1::2].
    Case 6's phase is computed in a fixed eigenbasis gauge (eigenvectors
    of M M^H, first nonzero component made real positive); it is
    authoritative on the normal-form family lambda_a and reproducible
    across runs.
    """
    zdim = len(alg.center_indices)
    if len(coeffs) != zdim:
        raise ValueError(f"need {zdim} coefficients, got {len(coeffs)}")
    family = alg.meta.get("family")
    if family == "octdouble":
        return _case3_representative(alg, coeffs)
    if family != "free2step":
        raise ValueError(f"no orbit normal form implemented for {alg.name}")
    import numpy as np
    B = np.array(_skew_form(alg, [float(c) for c in coeffs], 0.0,
                            None).matrix)
    if alg.meta["F"] == "R":
        positive, kernel_dim = skew_spectrum(B)
        return OrbitRepresentative("case1", positive, kernel_dim)
    M = np.empty((len(B) // 2,) * 2, dtype=complex)
    M.real, M.imag = B[::2, ::2], B[::2, 1::2]
    return _case6_representative(M)


def _case6_representative(M):
    """Case 6 on M scaled by 2^-e, e the binary exponent of its largest
    part.  A power of two is exact, so M M^H cannot overflow, and the
    answer is bit for bit the unscaled one wherever that does not."""
    import numpy as np
    n = M.shape[0]
    parts = M.view(float)       # real and imaginary parts, interleaved
    e = math.frexp(np.abs(parts).max())[1]
    M = np.ldexp(parts, -e).view(complex)
    eigvals, eigvecs = np.linalg.eigh(M @ M.conj().T)
    floor = RANK_TOL * np.abs(M).max() ** 2
    support = [k for k in range(n) if eigvals[k] > floor]
    kernel_dim = n - len(support)
    if not support:
        return OrbitRepresentative("case6", [], n)
    # paired singular values: sqrt of the doubled eigenvalues of M M^H
    sigmas_all = sorted(math.ldexp(math.sqrt(float(eigvals[k])), e)
                        for k in support)
    if len(sigmas_all) % 2:
        raise ValueError("odd support for a skew form; input is not skew")
    sigmas = sigmas_all[::2]
    W = eigvecs[:, support]
    for col in range(W.shape[1]):
        vec = W[:, col]
        idx = int(np.argmax(np.abs(vec) > 1e-8))
        phase = vec[idx] / abs(vec[idx])
        W[:, col] = vec / phase
    # the float congruence leaves rounding noise on the diagonal, which
    # the expansion never reads; no exact skew check applies here
    pf_val = _pfaffian_expansion(W.T @ M @ W, 0.0 + 0j, 1.0 + 0j)
    phase = cmath.phase(pf_val)
    invariants = list(sigmas[:-1]) + [(sigmas[-1], phase)]
    return OrbitRepresentative("case6", invariants, kernel_dim)


def _case3_representative(alg, coeffs):
    coeffs = [Fraction(c) for c in coeffs]
    support = {k for k, c in enumerate(coeffs) if c != 0}
    if not support <= set(OCTDOUBLE_LAMBDA_SUPPORT):
        raise ValueError(
            "functional is not in implemented normal-form reach: case 3 "
            "representatives are computed only on the (e3, e6, e2)* span")
    invariants = [float(coeffs[k]) for k in OCTDOUBLE_LAMBDA_SUPPORT]
    form = b_matrix(alg, LinearFunctional(alg, coeffs),
                    v_indices=l1_complement_indices(alg))
    kernel_dim = darboux_basis(form.matrix).radical_dim
    return OrbitRepresentative("case3", invariants, kernel_dim)


def pf_nonsingular(alg, coeffs):
    """Pf(lambda) != 0 on l1_complement_indices(alg), or on n/z when
    that is None (with no split, Pf = 0 there).  Read on the split the
    search finds: [u1, u2] = z1, [u1, u3] = z2 gives v1 = (u1, u2)."""
    return pf_at(alg, coeffs, v_indices=l1_complement_indices(alg)) != 0


def l1_complement_indices(alg):
    """v1 = l1 ∩ v of find_codim_split's split, decided once per
    algebra; None when it is square integrable or has no split.  The
    octonion double's normal form drops (0, e3) instead, complement
    position OCTDOUBLE_LAMBDA_SUPPORT[0], the unit of a1 in lambda_a:
    (0, e_k) gives Pf = +-t_k*|t|^2, so the search's (0, e7) vanishes
    on the whole (e3, e6, e2)* family, where t7 = 0."""
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
