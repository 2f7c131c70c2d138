"""One adaptive quadrature loop over tensor grids, doubling per axis.

The integral runs over the whole space, and each axis gets the
envelope-matched Gauss-Hermite rule: nodes mean + sqrt(2) sigma t_i and
weights sqrt(2) sigma w_i e^{t_i^2}, from the n-point rule (t_i, w_i)
for the weight e^{-t^2}.  A Gaussian integrand near its envelope is
then a slowly varying function times the rule's weight, so a few nodes
per axis reach float precision.  The per-axis count doubles from
`start_nodes` until two successive levels agree to rtol, up to max_evals
nodes and MAX_HERMITE_NODES per axis.
Any positive starting count works: no integrand divides by a
Pfaffian, so an odd rule's node on the envelope centre is harmless.
The default tolerance, budget and starting count are the ones in
config.DEFAULTS.

Integrand contract: func is called once per level with a TensorGrid,
the per-axis node arrays of that level's n^dim tensor grid, and returns
the n^dim values in C order (axis 0 slowest, the last axis fastest),
either flat or shaped (n,) * dim.  An integrand with tensor structure
evaluates from the axes by broadcasting (ComplexGaussian.evaluate_grid)
and never forms the points; one that needs scattered points calls
grid.points() for the (n^dim, dim) array.
len(grid) is the node count n^dim, so a wrapper that counts len() of
the integrand's argument counts evaluated nodes.  The weights are
contracted against the values one axis at a time, last axis first, so
no n^dim weight array is built either.
"""

import math
from math import prod

import numpy as np

from .config import DEFAULTS

# hermgauss weights w_i e^{t_i^2} overflow from about 362 nodes on
MAX_HERMITE_NODES = 256

_rule_cache = {}


def gauss_hermite(n):
    """Nodes t_i and weights W_i = w_i e^{t_i^2}: sum_i W_i g(t_i) is
    the n-point Gauss-Hermite value of the integral of g over the line."""
    if n > MAX_HERMITE_NODES:
        raise RuntimeError("quadrature budget exhausted before convergence "
                           f"({n} nodes/axis, cap {MAX_HERMITE_NODES})")
    if n not in _rule_cache:
        t, w = np.polynomial.hermite.hermgauss(n)
        _rule_cache[n] = t, w * np.exp(t * t)
    return _rule_cache[n]


def hermite_axis_rule(n, mean, sigma):
    """Gauss-Hermite nodes/weights for the line, matched to the
    envelope exp(-(x - mean)^2 / (2 sigma^2))."""
    t, w = gauss_hermite(n)
    scale = math.sqrt(2.0) * sigma
    return mean + scale * t, scale * w


class TensorGrid:
    """The tensor product of per-axis node arrays, in C order."""

    __slots__ = ("axes",)

    def __init__(self, axes):
        self.axes = tuple(axes)

    def __len__(self):
        return prod(len(x) for x in self.axes)

    @property
    def shape(self):
        return tuple(len(x) for x in self.axes)

    def points(self):
        """The (len(self), dim) array of the grid's points, C order."""
        dim = len(self.axes)
        pts = np.empty(self.shape + (dim,))
        for k, x in enumerate(np.meshgrid(*self.axes, indexing="ij",
                                          sparse=True)):
            pts[..., k] = x
        return pts.reshape(len(self), dim)


def tensor_integrate(func, means, sigmas, rtol=DEFAULTS["quad_rtol"],
                     max_evals=DEFAULTS["max_evals"],
                     start_nodes=DEFAULTS["start_nodes"]):
    """integral of func over the whole space, with per-axis doubling.

    Each axis gets Gauss-Hermite matched to the envelope of mean and
    sigma.  func maps a TensorGrid to its n^dim values (see the module
    docstring).  Returns (value, info); info records node counts and
    the last relative change.  Raises if a level's value is not finite
    or the budget is exhausted before convergence.
    """
    means = np.asarray(means, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    dim = means.size
    if dim == 0:
        value = np.ravel(func(TensorGrid(())))[0]
        return value, {"nodes": 0, "converged": True, "last_change": 0.0}

    n = start_nodes
    prev = None
    while True:
        total = n ** dim
        if total > max_evals:
            raise RuntimeError(
                "quadrature budget exhausted before convergence "
                f"({n} nodes/axis, dim {dim})")
        level = [hermite_axis_rule(n, m, s) for m, s in zip(means, sigmas)]
        value = np.reshape(func(TensorGrid(x for x, _ in level)), (n,) * dim)
        for _, w in reversed(level):
            value = value @ w
        if not np.isfinite(value):
            raise RuntimeError(f"integrand is not finite ({n} nodes/axis)")
        if prev is not None:
            scale = max(abs(value), abs(prev), 1e-300)
            change = abs(value - prev) / scale
            if change < rtol:
                return value, {"nodes": total, "nodes_per_axis": n,
                               "converged": True, "last_change": change}
        prev = value
        n *= 2
