"""One adaptive quadrature loop: tensor Gauss-Legendre on a truncated box.

Gauss-Legendre nodes per axis on [mean - k*sigma, mean + k*sigma],
doubling the per-axis count until the value stabilizes, up to
MAX_NODES_PER_AXIS.  Node counts stay even so grids never land on a
hyperplane through the envelope center (where Pfaffian factors can
vanish).  The default tolerance, budget, box width and starting count
are the ones in config.DEFAULTS.

Grid layout: a level with n nodes per axis is the n^dim tensor grid in
C order, axis 0 slowest and the last axis fastest.  The points are
filled in place from the axis nodes; the weights are the outer product
of the axis weights, multiplied from axis 0 up.  func is called once
per level on all of that level's points as one (n^dim, dim) array.
"""

from functools import reduce

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


def tensor_integrate(func, means, sigmas, rtol=DEFAULTS["quad_rtol"],
                     max_evals=DEFAULTS["max_evals"],
                     sigmas_out=DEFAULTS["truncation_sigmas"],
                     start=DEFAULTS["start_nodes"]):
    """integral of func over the truncated box, with per-axis doubling.

    func maps an (npts, dim) array to complex values.  Returns
    (value, info); info records node counts and the last relative
    change.  Raises if the budget is exhausted before convergence.
    """
    means = np.asarray(means, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    dim = means.size
    if dim == 0:
        return func(np.zeros((1, 0)))[0], {"nodes": 0, "converged": True,
                                           "last_change": 0.0}
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
        axes = [axis_rule(n, los[k], his[k]) for k in range(dim)]
        pts = np.empty((n,) * dim + (dim,))
        for k, (x, _) in enumerate(axes):
            # shape (n, 1, ..., 1) broadcasts x along grid axis k
            pts[..., k] = x.reshape((n,) + (1,) * (dim - 1 - k))
        wts = reduce(np.multiply.outer, [w for _, w in axes])
        value = np.sum(func(pts.reshape(total, dim)) * wts.reshape(total))
        if prev is not None:
            scale = max(abs(value), abs(prev), 1e-300)
            change = abs(value - prev) / scale
            if change < rtol:
                return value, {"nodes": total, "nodes_per_axis": n,
                               "converged": True, "last_change": change}
        prev = value
        n *= 2

