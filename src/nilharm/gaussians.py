"""Closed-form calculus for Gaussians with complex phase.

Everything the inversion pipeline does to a test function (affine
pullback, Fourier transform, marginalization, partial Fourier along a
coordinate block) keeps it inside one family:

    g(Y) = exp(-1/2 Y^T A Y + u^T Y + v)

with A real symmetric positive definite and u, v complex.  A stays
real through the whole pipeline; phases live in u and v.

The Gaussians on one A array share one private form cache, filled on
first use: A's inverse, its log-determinant from its Cholesky factor
(which refuses a form that is not positive definite), the transform's
form (its own cache starting with A as its inverse), A's nested lists
and uncoupled blocks, the envelope's sigma, and per index tuple the
slice form with its own cache.  So the points that slice one test
function factor it once.  u and v never enter the cache, and A is
never mutated in place.
"""

import cmath
import math
from math import prod

import numpy as np

from . import linalg

_SYM_TOL = 1e-10


def _logdet(A):
    """log det A = 2 sum log diag L, L the Cholesky factor of A; a
    ValueError unless A is positive definite."""
    try:
        return 2.0 * float(np.log(np.linalg.cholesky(A).diagonal()).sum())
    except np.linalg.LinAlgError:
        raise ValueError("form is not positive definite") from None


class ComplexGaussian:
    """g(Y) = exp(-1/2 Y^T A Y + u^T Y + v), with _form the cache of
    its A array (module docstring); A is never reassigned or written
    to, while u and v may be."""

    __slots__ = ("A", "u", "v", "_form")

    def __init__(self, A, u, v):
        A = np.asarray(A, dtype=float)
        u = np.asarray(u, dtype=complex)
        n = A.shape[0]
        if A.shape != (n, n) or u.shape != (n,):
            raise ValueError("shape mismatch")
        if n and np.abs(A - A.T).max() > _SYM_TOL * max(1.0, np.abs(A).max()):
            raise ValueError("A must be symmetric")
        self.A = (A + A.T) / 2.0
        self.u = u
        self.v = complex(v)
        self._form = {}

    @classmethod
    def _of(cls, form, u, v):
        # trusted: form an (A, cache) pair, u complex of A's size
        g = object.__new__(cls)
        (g.A, g._form), g.u, g.v = form, u, complex(v)
        return g

    def _cached(self, key, compute):
        """compute(A), evaluated once per key for this form."""
        if key not in self._form:
            self._form[key] = compute(self.A)
        return self._form[key]

    @property
    def dim(self):
        return self.A.shape[0]

    def evaluate(self, point):
        """g at one point of dim coordinates, a complex."""
        y = np.asarray(point, dtype=float)
        if y.shape != (self.dim,):
            raise ValueError("evaluate takes one point of dim coordinates")
        return cmath.exp(-0.5 * (y @ self.A @ y) + self.u @ y + self.v)

    def grid_integrand(self):
        """g as a quadrature integrand: a TensorGrid to the factors of
        g's values on it, in quadrature's integrand contract.

        There is one factor per uncoupled block of A, over that block's
        axes, then the constant factor over no axes; the blocks and
        their coefficients are read here, once for every level.  A
        block's real exponent is summed by broadcasting, one axis at a
        time: axis k adds x_k (Re u_k - 1/2 A_kk x_k - sum A_lk x_l
        over the block's earlier axes l) on the subgrid of the block's
        axes up to k, so only its last axis's pass runs over the
        block's full grid, and one real exp follows.  Each block
        completes its own square: its exponent starts from minus its
        maximum c_B = 1/2 Re u_B . m_B at the envelope mean m, so no
        factor exceeds 1 by more than rounding, and the constant factor
        is exp(v + sum of c_B), the peak value.  A factor thus
        overflows only where g does.  As A is real, the phase
        Im(u)^T x + Im v factors into per-axis unit phases.  No term is
        exponentiated apart from its block's sum, so a cross term that
        cancels against the others cannot overflow.
        """
        mean = self.envelope()[0].tolist()
        A, ur = self._cached("list", np.ndarray.tolist), self.u.real.tolist()
        phase = (1j * self.u.imag).tolist()
        plan, peak = [], self.v
        for block in self._cached("blocks", lambda _: linalg._components(
                len(A), zip(*np.nonzero(self.A)))):
            c = 0.5 * sum(ur[k] * mean[k] for k in block)
            peak += c
            # axis j of the block: its sparse shape, Re u_k, 1/2 A_kk,
            # its couplings A_lk to the earlier axes and its phase
            plan.append((block, -c, [
                ([-1 if i == j else 1 for i in range(len(block))], ur[k],
                 0.5 * A[k][k], [A[l][k] for l in block[:j]], phase[k])
                for j, k in enumerate(block)]))
        peak = cmath.exp(peak)

        def integrand(grid):
            factors = []
            for block, expo, terms in plan:
                xs, phases = [], []
                for k, (shape, re_u, half_a, couplings, im_u) in zip(
                        block, terms):
                    x = grid.axes[k].reshape(shape)
                    term = re_u - half_a * x
                    for a, y in zip(couplings, xs):
                        term = term - a * y
                    term *= x
                    term += expo
                    expo = term
                    xs.append(x)
                    phases.append(np.exp(im_u * x))
                # the phases multiply up from the block's first axis,
                # on subgrids until the block's last axis joins
                factors.append((block, np.exp(expo, out=expo)
                                * prod(phases[1:], start=phases[0])))
            factors.append(((), peak))
            return factors

        return integrand

    def pullback(self, M, m0):
        """g(M Y + m0) as a Gaussian in Y.  M may be rectangular."""
        M = np.asarray(M, dtype=float)
        m0 = np.asarray(m0, dtype=float)
        A2 = M.T @ self.A @ M
        u2 = M.T @ (self.u - self.A @ m0)
        v2 = self.v + self.u @ m0 - 0.5 * m0 @ self.A @ m0
        return ComplexGaussian(A2, u2, v2)

    def slice(self, indices, at):
        """g(at + sum_k Z_k e_{indices[k]}) as a Gaussian in Z: the
        pullback by the columns indices of the identity, read off by
        index instead of multiplied; the sub-form is read once per
        index tuple."""
        at = np.asarray(at, dtype=float)
        idx = list(indices)
        return ComplexGaussian._of(
            self._cached(tuple(idx), lambda A: (A[idx][:, idx], {})),
            (self.u - self.A @ at)[idx],
            self.v + self.u @ at - 0.5 * at @ self.A @ at)

    def _dual(self):
        """(A^{-1}, v of the transform), refused unless A is positive
        definite: a refused Cholesky is not cached, so every call
        refuses."""
        logdet = self._cached("logdet", _logdet)
        Ainv = self._cached("inv", np.linalg.inv)
        return Ainv, (self.v + 0.5 * self.u @ Ainv @ self.u
                      + 0.5 * (self.dim * math.log(2 * math.pi) - logdet))

    def fourier(self):
        """g^(xi) = integral g(Y) exp(-i<xi,Y>) dY, plain Lebesgue.  The
        transform's form is built once per form, with A as its inverse."""
        Ainv, v2 = self._dual()
        return ComplexGaussian._of(
            self._cached("dual", lambda A: ((Ainv + Ainv.T) / 2.0,
                                            {"inv": A})),
            -1j * (Ainv @ self.u), v2)

    def marginalize(self, out_indices):
        """Integrate out the listed coordinates, plain Lebesgue."""
        out = list(out_indices)
        keep = [i for i in range(self.dim) if i not in set(out)]
        A_kk = self.A[np.ix_(keep, keep)]
        A_ko = self.A[np.ix_(keep, out)]
        A_oo = self.A[np.ix_(out, out)]
        logdet = _logdet(A_oo)
        Aoo_inv = np.linalg.inv(A_oo)
        u_k = self.u[keep]
        u_o = self.u[out]
        A2 = A_kk - A_ko @ Aoo_inv @ A_ko.T
        u2 = u_k - A_ko @ Aoo_inv @ u_o
        v2 = (self.v + 0.5 * u_o @ Aoo_inv @ u_o
              + 0.5 * (len(out) * math.log(2 * math.pi) - logdet))
        return ComplexGaussian(A2, u2, v2)

    def partial_fourier(self, t_indices, xi):
        """Transform in a coordinate block only, at frequency xi.

        Returns the Gaussian in the remaining coordinates:
        integral g(Y_keep, T) exp(-i<xi,T>) dT.
        """
        xi = np.asarray(xi, dtype=float)
        shifted = ComplexGaussian(self.A, self.u.copy(), self.v)
        shifted.u[list(t_indices)] -= 1j * xi
        return shifted.marginalize(t_indices)

    def total_integral(self):
        """integral over R^dim, closed form: g^(0) = exp(v of g^)."""
        return cmath.exp(self._dual()[1])

    def envelope(self):
        """(mean, per-axis sigma) of the |g| envelope, for quadrature."""
        Ainv = self._cached("inv", np.linalg.inv)
        return Ainv @ self.u.real, self._cached(
            "sigma", lambda _: np.sqrt(Ainv.diagonal()))


class GaussianTestFunction(ComplexGaussian):
    """f1(Y) = amp * exp(-1/2 (Y-b)^T Q (Y-b)), the Schwartz test data:
    A = Q, u = Q b and v = log amp - 1/2 b^T Q b.  Q must pass a
    Cholesky factorization, and amp must be positive."""

    __slots__ = ()

    def __init__(self, Q, b, amp=1.0):
        Q = np.asarray(Q, dtype=float)
        b = np.asarray(b, dtype=float)
        if Q.shape != (b.size, b.size):
            raise ValueError("Q/b shape mismatch")
        np.linalg.cholesky(Q)   # raises unless positive definite
        if amp <= 0:
            raise ValueError("amplitude must be positive")
        Q = (Q + Q.T) / 2.0
        super().__init__(Q, Q @ b, math.log(amp) - 0.5 * b @ Q @ b)

    @classmethod
    def standard(cls, dim):
        return cls(np.eye(dim), np.zeros(dim))
