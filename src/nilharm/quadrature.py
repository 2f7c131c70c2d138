"""One adaptive quadrature loop: tensor Gauss-Legendre on a truncated box.

Gauss-Legendre nodes per axis on [mean - k*sigma, mean + k*sigma],
doubling the per-axis count until the value stabilizes, up to
MAX_NODES_PER_AXIS.  Node counts stay even so grids never land on a
hyperplane through the envelope center (where Pfaffian factors can
vanish).  The default tolerance, budget, box width and starting count
are the ones in config.DEFAULTS.

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

from math import prod

import numpy as np

from .config import DEFAULTS

# leggauss solves an n x n eigenproblem, O(n^2) memory and O(n^3) time;
# past this many nodes per axis an integral counts as not converging
MAX_NODES_PER_AXIS = 1024

_rule_cache = {}


def gauss_legendre(n):
    if n > MAX_NODES_PER_AXIS:
        raise RuntimeError(
            "quadrature budget exhausted before convergence "
            f"({n} nodes/axis, cap {MAX_NODES_PER_AXIS})")
    if n not in _rule_cache:
        _rule_cache[n] = np.polynomial.legendre.leggauss(n)
    return _rule_cache[n]


def axis_rule(n, lo, hi):
    """Nodes/weights for [lo, hi]."""
    x, w = gauss_legendre(n)
    half = (hi - lo) / 2.0
    return lo + half * (x + 1.0), half * w


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
                     sigmas_out=DEFAULTS["truncation_sigmas"],
                     start=DEFAULTS["start_nodes"]):
    """integral of func over the truncated box, with per-axis doubling.

    func maps a TensorGrid to its n^dim values (see the module
    docstring).  Returns (value, info); info records node counts and
    the last relative change.  Raises if the budget is exhausted before
    convergence.
    """
    means = np.asarray(means, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    dim = means.size
    if dim == 0:
        value = np.ravel(func(TensorGrid(())))[0]
        return value, {"nodes": 0, "converged": True, "last_change": 0.0}
    los = means - sigmas_out * sigmas
    his = means + sigmas_out * sigmas

    n = start
    prev = None
    while True:
        total = n ** dim
        if total > max_evals:
            raise RuntimeError(
                "quadrature budget exhausted before convergence "
                f"({n} nodes/axis, dim {dim})")
        rules = [axis_rule(n, los[k], his[k]) for k in range(dim)]
        value = np.reshape(func(TensorGrid(x for x, _ in rules)), (n,) * dim)
        for _, w in reversed(rules):
            value = value @ w
        if prev is not None:
            scale = max(abs(value), abs(prev), 1e-300)
            change = abs(value - prev) / scale
            if change < rtol:
                return value, {"nodes": total, "nodes_per_axis": n,
                               "converged": True, "last_change": change}
        prev = value
        n *= 2

