"""Every node of a quadrature.TensorGrid, an integrand's value at each
and a Gaussian's values at many points: the scattered-point view of a
tensor grid, which the package's integrands no longer form and the
tests compare against."""

import numpy as np


def points(grid):
    """The (len(grid), dim) array of the grid's points, C order."""
    dim = len(grid.axes)
    pts = np.empty(grid.shape + (dim,))
    for k, x in enumerate(np.meshgrid(*grid.axes, indexing="ij",
                                      sparse=True)):
        pts[..., k] = x
    return pts.reshape(len(grid), dim)


def gaussian_values(g, pts):
    """A ComplexGaussian's values at the rows of the (npts, dim) array
    pts, the exponent's real and imaginary parts from real products so
    the points are never copied to complex."""
    pts = np.asarray(pts, dtype=float)
    out = np.empty(len(pts), dtype=complex)
    out.real = np.einsum("ni,ni->n", pts @ g.A, pts)
    out.real *= -0.5
    out.real += pts @ g.u.real
    out.real += g.v.real
    out.imag = pts @ g.u.imag
    out.imag += g.v.imag
    np.exp(out, out=out)
    return out


def expand(values, shape):
    """An integrand's return on a grid of that shape as the array of
    its values at every node: a bare array reshaped, or the product of
    (block, values) factors, each laid along its own axes."""
    if not isinstance(values, list):
        return np.reshape(values, shape)
    out = np.ones(shape, dtype=complex)
    for block, part in values:
        laid = [1] * len(shape)
        for k in block:
            laid[k] = shape[k]
        out = out * np.reshape(part, laid)
    return out
