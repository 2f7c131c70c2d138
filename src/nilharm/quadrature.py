"""One adaptive quadrature loop over tensor grids, doubling per axis.

Over the whole space (the default) each axis gets the envelope-matched
Gauss-Hermite rule: nodes mean + sqrt(2) sigma t_i and weights
sqrt(2) sigma w_i e^{t_i^2}, from the n-point rule (t_i, w_i) for the
weight e^{-t^2}.  A Gaussian integrand near its envelope is then a
slowly varying function times the rule's weight, so a few nodes per
axis reach float precision.  Given sigmas_out, the integral runs over
the finite box mean +- sigmas_out * sigma with Gauss-Legendre instead.
The per-axis count doubles from `start` until two successive levels
agree to rtol, up to max_evals nodes and the rule's per-axis cap.
Node counts stay even: any odd symmetric rule puts a node on the
envelope centre, where Pfaffian factors can vanish.  The default
tolerance, budget and starting count are the ones in config.DEFAULTS.

Integrand contract: func is called once per level with a TensorGrid,
the per-axis node arrays of that level's n^dim tensor grid, and returns
the n^dim values in C order (axis 0 slowest, the last axis fastest),
either flat or shaped (n,) * dim.  An integrand with tensor structure
evaluates from the axes by broadcasting (ComplexGaussian.evaluate_grid,
Poly.evaluate_grid) and never forms the points; one that needs
scattered points calls grid.points() for the (n^dim, dim) array.
len(grid) is the node count n^dim, so a wrapper that counts len() of
the integrand's argument counts evaluated nodes.  The weights are
contracted against the values one axis at a time, last axis first, so
no n^dim weight array is built either.
"""

import math
from math import prod

import numpy as np

from .config import DEFAULTS

# leggauss solves an n x n eigenproblem, O(n^2) memory and O(n^3) time;
# past this many nodes per axis an integral counts as not converging
MAX_NODES_PER_AXIS = 1024
# hermgauss weights w_i e^{t_i^2} overflow from about 362 nodes on
MAX_HERMITE_NODES = 256

_rule_cache = {}


def _budget_exhausted(n, cap):
    return RuntimeError("quadrature budget exhausted before convergence "
                        f"({n} nodes/axis, cap {cap})")


def gauss_legendre(n):
    if n > MAX_NODES_PER_AXIS:
        raise _budget_exhausted(n, MAX_NODES_PER_AXIS)
    if ("legendre", n) not in _rule_cache:
        _rule_cache["legendre", n] = np.polynomial.legendre.leggauss(n)
    return _rule_cache["legendre", n]


def gauss_hermite(n):
    """Nodes t_i and weights W_i = w_i e^{t_i^2}: sum_i W_i g(t_i) is
    the n-point Gauss-Hermite value of the integral of g over the line."""
    if n > MAX_HERMITE_NODES:
        raise _budget_exhausted(n, MAX_HERMITE_NODES)
    if ("hermite", n) not in _rule_cache:
        t, w = np.polynomial.hermite.hermgauss(n)
        _rule_cache["hermite", n] = t, w * np.exp(t * t)
    return _rule_cache["hermite", n]


def axis_rule(n, lo, hi):
    """Gauss-Legendre nodes/weights for [lo, hi]."""
    x, w = gauss_legendre(n)
    half = (hi - lo) / 2.0
    return lo + half * (x + 1.0), half * w


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
                     max_evals=DEFAULTS["max_evals"], sigmas_out=None,
                     start=DEFAULTS["start_nodes"]):
    """integral of func, with per-axis doubling.

    Over the whole space by envelope-matched Gauss-Hermite, or, given
    sigmas_out, over the box mean +- sigmas_out * sigma by
    Gauss-Legendre.  func maps a TensorGrid to its n^dim values (see
    the module docstring).  Returns (value, info); info records node
    counts and the last relative change.  Raises if the budget is
    exhausted before convergence.
    """
    means = np.asarray(means, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    dim = means.size
    if dim == 0:
        value = np.ravel(func(TensorGrid(())))[0]
        return value, {"nodes": 0, "converged": True, "last_change": 0.0}
    if sigmas_out is None:
        def rules(n):
            return [hermite_axis_rule(n, m, s) for m, s in zip(means, sigmas)]
    else:
        def rules(n):
            return [axis_rule(n, m - sigmas_out * s, m + sigmas_out * s)
                    for m, s in zip(means, sigmas)]

    n = start
    prev = None
    while True:
        total = n ** dim
        if total > max_evals:
            raise RuntimeError(
                "quadrature budget exhausted before convergence "
                f"({n} nodes/axis, dim {dim})")
        level = rules(n)
        value = np.reshape(func(TensorGrid(x for x, _ in level)), (n,) * dim)
        for _, w in reversed(level):
            value = value @ w
        if prev is not None:
            scale = max(abs(value), abs(prev), 1e-300)
            change = abs(value - prev) / scale
            if change < rtol:
                return value, {"nodes": total, "nodes_per_axis": n,
                               "converged": True, "last_change": change}
        prev = value
        n *= 2
