"""Coadjoint orbit representatives via skew normal forms.

Case 1 (free 2-step over R): a functional on Lambda^2 R^n is a real
skew matrix; its K = SO(n) orbit is classified by the skew spectrum.
Case 6 (over C): complex skew matrix under unitary congruence; the
invariants are the paired singular values with the residual
determinant phase folded into the last entry.  Case 3 (octonion
double): only functionals supported on the (e3, e6, e2) coordinates
are in implemented normal-form reach; their l1 split drops (0, e3),
on which Pf(lambda_a) = +-a1*(a1^2 + a2^2 + a3^2).  Only the float
routes (skew_spectrum, wedge_matrix and case 6) import numpy.
"""

import cmath
import math
from fractions import Fraction

from .linalg import frac_matrix, rank
from .pfaffian import (LinearFunctional, _pfaffian_expansion, b_matrix,
                       pf_at, pf_polynomial)

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
    scale = max(1.0, np.abs(M).max())
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
    M = frac_matrix(M)
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


def wedge_matrix(alg, coeffs):
    """Functional on Lambda^2 F^n as an n x n skew matrix over R or C."""
    import numpy as np
    family = alg.meta.get("family")
    if family != "free2step":
        raise ValueError("wedge_matrix needs a free 2-step algebra")
    n = alg.meta["n"]
    pairs = [tuple(pq) for pq in alg.meta["wedge_pairs"]]
    if alg.meta["F"] == "R":
        M = np.zeros((n, n))
        for t, (p, q) in enumerate(pairs):
            M[p, q] = float(coeffs[t])
            M[q, p] = -float(coeffs[t])
    else:
        M = np.zeros((n, n), dtype=complex)
        for t, (p, q) in enumerate(pairs):
            val = float(coeffs[2 * t]) + 1j * float(coeffs[2 * t + 1])
            M[p, q] = val
            M[q, p] = -val
    return M


def orbit_representative(alg, coeffs):
    """Canonical orbit invariants of a concrete functional.

    Dispatches on the algebra family.  Case 6's phase is computed in a
    fixed eigenbasis gauge (eigenvectors of M M^H, first nonzero
    component made real positive); it is authoritative on the
    normal-form family lambda_a and reproducible across runs.
    """
    family = alg.meta.get("family")
    if family == "free2step" and alg.meta["F"] == "R":
        M = wedge_matrix(alg, coeffs)
        positive, kernel_dim = skew_spectrum(M)
        return OrbitRepresentative("case1", positive, kernel_dim)
    if family == "free2step" and alg.meta["F"] == "C":
        return _case6_representative(alg, coeffs)
    if family == "octdouble":
        return _case3_representative(alg, coeffs)
    raise ValueError(f"no orbit normal form implemented for {alg.name}")


def _case6_representative(alg, coeffs):
    import numpy as np
    M = wedge_matrix(alg, coeffs)
    n = M.shape[0]
    H = M @ M.conj().T
    scale = max(1.0, np.abs(M).max() ** 2)
    eigvals, eigvecs = np.linalg.eigh(H)
    support = [k for k in range(n) if eigvals[k] > RANK_TOL * scale]
    kernel_dim = n - len(support)
    if not support:
        return OrbitRepresentative("case6", [], n)
    # paired singular values: sqrt of the doubled eigenvalues of M M^H
    sigmas_all = sorted(math.sqrt(float(eigvals[k])) for k in support)
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


_CASE3_SUPPORT = (2, 5, 1)   # center coords of (e3,0)*, (e6,0)*, (e2,0)*


def _case3_representative(alg, coeffs):
    coeffs = [Fraction(c) for c in coeffs]
    support = {k for k, c in enumerate(coeffs) if c != 0}
    if not support <= set(_CASE3_SUPPORT):
        raise ValueError(
            "functional is not in implemented normal-form reach: case 3 "
            "representatives are computed only on the (e3, e6, e2)* span")
    invariants = [float(coeffs[k]) for k in _CASE3_SUPPORT]
    form = b_matrix(alg, LinearFunctional(alg, coeffs),
                    v_indices=l1_complement_indices(alg))
    kernel_dim = len(form.matrix) - rank(form.matrix)
    return OrbitRepresentative("case3", invariants, kernel_dim)


def pf_nonsingular(alg, coeffs):
    """Pf(lambda) != 0, on the relevant Pfaffian for the algebra.

    Square integrable algebras use the full Pfaffian on n/z; the three
    exceptional families use the restriction to their l1 split.
    """
    full = pf_polynomial(alg)
    if full:
        return full.evaluate(coeffs) != 0
    v_indices = l1_complement_indices(alg)
    if v_indices is None:
        return False
    value = pf_at(alg, coeffs, v_indices=v_indices)
    return value != 0


def l1_complement_indices(alg):
    """The v_1 part of the normal form's l1 split, when the family has one."""
    family = alg.meta.get("family")
    comp = list(alg.complement_indices)
    if family == "free2step":
        if alg.meta["n"] % 2 == 0:
            return None
        drop = 1 if alg.meta["F"] == "R" else 2  # one u, or its re/im pair
        return comp[:-drop]
    if family == "octdouble":
        # drop (0, e3), the unit of a1 in lambda_a.  Dropping (0, e_k)
        # gives Pf = +-t_k*|t|^2, so decompose("case3")'s (0, e7) would
        # vanish on the whole (e3, e6, e2)* family, where t7 = 0.
        return comp[:2] + comp[3:]
    return None
