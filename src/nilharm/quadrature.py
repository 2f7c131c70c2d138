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
the per-axis node arrays of that level's n^dim tensor grid.  It returns
the integrand's values on the grid as a product of factors, a list of
(block, values) pairs: the blocks are tuples of increasing axes, each
axis in exactly one of them, and a factor's values lie on the tensor
grid of its block's axes, shaped (n,) * len(block) in C order (axis 0
slowest, the last axis fastest); a block over no axes is a constant.
A bare array of the n^dim values, flat or shaped (n,) * dim, is the
one factor over every axis.  Each factor is contracted against its own
axes' weights, one axis at a time, last axis first, and the results
multiplied, so no n^dim weight array is built, nor, for an integrand
whose axes split into uncoupled blocks, the n^dim values: a Gaussian
with a diagonal form costs dim n values a level, not n^dim
(ComplexGaussian.grid_integrand).  The node count is still the rule's:
len(grid), info["nodes"], max_evals and MAX_HERMITE_NODES count the
n^dim nodes of the tensor rule, however few values its factors hold.
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


def _contract(values, weights):
    """The rule's sum: the integrand's factors (or bare array, see the
    module docstring) contracted against the per-axis weights."""
    factors = (values if isinstance(values, list) else
               [(range(len(weights)),
                 np.reshape(values, [len(w) for w in weights]))])
    total = 1.0
    for block, part in factors:
        for k in reversed(block):
            part = part @ weights[k]
        total = total * part
    return total


def tensor_integrate(func, means, sigmas, rtol=DEFAULTS["quad_rtol"],
                     max_evals=DEFAULTS["max_evals"],
                     start_nodes=DEFAULTS["start_nodes"]):
    """integral of func over the whole space, with per-axis doubling.

    Each axis gets Gauss-Hermite matched to the envelope of mean and
    sigma.  func maps a TensorGrid to its n^dim values or to factors
    of them (see the module docstring).  Returns (value, info); info
    records node counts and the last relative change.  Raises if a
    level's value is not finite or the budget is exhausted before
    convergence.
    """
    means = np.asarray(means, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    dim = means.size
    if dim == 0:
        value = _contract(func(TensorGrid(())), [])
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
        value = _contract(func(TensorGrid(x for x, _ in level)),
                          [w for _, w in level])
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
