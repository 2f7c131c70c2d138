"""Closed-form calculus for Gaussians with complex phase.

Everything the inversion pipeline does to a test function (affine
pullback, Fourier transform, marginalization, partial Fourier along a
coordinate block) keeps it inside one family:

    g(Y) = exp(-1/2 Y^T A Y + u^T Y + v)

with A real symmetric positive definite and u, v complex.  A stays
real through the whole pipeline; phases live in u and v.
"""

import cmath
import math
from math import prod

import numpy as np

_SYM_TOL = 1e-10


class ComplexGaussian:

    __slots__ = ("A", "u", "v")

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

    @property
    def dim(self):
        return self.A.shape[0]

    def evaluate(self, points):
        """Vectorized evaluation; points is (npts, dim) or (dim,)."""
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        if single:
            pts = pts[None, :]
        # real and imaginary parts of the exponent from real products,
        # so the grid is never copied to complex
        out = np.empty(len(pts), dtype=complex)
        out.real = np.einsum("ni,ni->n", pts @ self.A, pts)
        out.real *= -0.5
        out.real += pts @ self.u.real
        out.real += self.v.real
        out.imag = pts @ self.u.imag
        out.imag += self.v.imag
        np.exp(out, out=out)
        return out[0] if single else out

    def evaluate_grid(self, axes):
        """Values on the tensor grid of the 1-D node arrays in axes.

        Returns an array of shape (len(axes[0]), ..., len(axes[-1])), C
        order.  The real exponent is summed by broadcasting, one axis at
        a time: axis k adds x_k (Re u_k - 1/2 A_kk x_k - sum_{l<k} A_lk
        x_l) on the subgrid of axes 0..k, so only the last axis's pass
        runs over the full grid, and one real exp follows.  As A is
        real, the phase Im(u)^T x + Im v factors into per-axis unit
        phases.  No term is exponentiated apart from the sum, so a cross
        term that cancels against the others cannot overflow.
        """
        xs = np.meshgrid(*axes, indexing="ij", sparse=True)
        expo = np.array(self.v.real)
        for k, x in enumerate(xs):
            term = (self.u[k].real - 0.5 * self.A[k, k] * x
                    - sum(self.A[l, k] * xs[l] for l in range(k)))
            term *= x
            term += expo
            expo = term
        # the leading axes' phases multiply on their subgrid; the last
        # axis's phase then multiplies the full grid in place
        lead = prod((np.exp(1j * self.u[k].imag * x)
                     for k, x in enumerate(xs[:-1])),
                    start=cmath.exp(1j * self.v.imag))
        out = np.exp(expo, out=expo) * lead
        if xs:
            out *= np.exp(1j * self.u[-1].imag * xs[-1])
        return out

    def pullback(self, M, m0):
        """g(M Y + m0) as a Gaussian in Y.  M may be rectangular."""
        M = np.asarray(M, dtype=float)
        m0 = np.asarray(m0, dtype=float)
        A2 = M.T @ self.A @ M
        u2 = M.T @ (self.u - self.A @ m0)
        v2 = self.v + self.u @ m0 - 0.5 * m0 @ self.A @ m0
        return ComplexGaussian(A2, u2, v2)

    def fourier(self):
        """g^(xi) = integral g(Y) exp(-i<xi,Y>) dY, plain Lebesgue."""
        n = self.dim
        Ainv = np.linalg.inv(self.A)
        sign, logdet = np.linalg.slogdet(self.A)
        if sign <= 0:
            raise ValueError("form is not positive definite")
        A2 = Ainv
        u2 = -1j * (Ainv @ self.u)
        v2 = (self.v + 0.5 * self.u @ Ainv @ self.u
              + 0.5 * (n * math.log(2 * math.pi) - logdet))
        return ComplexGaussian(A2, u2, v2)

    def marginalize(self, out_indices):
        """Integrate out the listed coordinates, plain Lebesgue."""
        out = list(out_indices)
        keep = [i for i in range(self.dim) if i not in set(out)]
        A_kk = self.A[np.ix_(keep, keep)]
        A_ko = self.A[np.ix_(keep, out)]
        A_oo = self.A[np.ix_(out, out)]
        sign, logdet = np.linalg.slogdet(A_oo)
        if sign <= 0:
            raise ValueError("marginalized block is not positive definite")
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
        return cmath.exp(self.fourier().v)

    def envelope(self):
        """(mean, per-axis sigma) of the |g| envelope, for quadrature."""
        Ainv = np.linalg.inv(self.A)
        mean = Ainv @ np.real(self.u)
        sigma = np.sqrt(np.diag(Ainv))
        return mean, sigma


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
