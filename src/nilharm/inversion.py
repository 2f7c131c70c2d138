"""Numerical verification of the Fourier inversion formulas.

Flat case: f(x) = c * integral over the dual center of
Theta(r_x f)(lam) |Pf(lam)| dlam, with c = d! 2^d, 2d = dim(n/z).
The character is Theta_lam(g) = c^{-1}|Pf(lam)|^{-1} F_z[g|_z](lam)
(Moore-Wolf), by two identities: the integral of g^(lam, xi) over xi
in v* is (2pi)^{dim v} F_z[g|_z](lam), and A_x fixes the central
columns, so (r_x f)(Z) = f(Z + X) for central Z.  So Theta(r_x f)
needs f only on the slice x + z, and c and |Pf| cancel, here and in
the stepwise inner layer: criteria 6-8 cannot see a wrong c or Pf
(ROADMAP item 3, still open).

Stepwise case: factor x = x1 * x2 with x1 in L1 and x2 in L2, take the
partial Fourier transform along l2, invert flatly on L1 per frequency
xi, then integrate against chi_xi(x2).  The same two identities on L1
cancel c1|Pf1| and integrate the transform on z1 + l2 over z1*, which
leaves (2pi)^{dim z1} F_T[g](xi) with g(T) = f(x1 * T), the data on
the l2 slice through x1.  So f(x) = (2pi)^{-dim l2} times the integral
of g^(xi) chi_xi(x2) dxi: c1, |Pf1| and z1 never enter, and criterion
7 sees the group law only through x1 and chi_xi(x2) (item 3 stays
open here too).

So both formulas are Euclidean Fourier inversion of f on a slice, x + z
or the l2 slice through x1, and both run through one routine: the
transformed slice Gaussian integrated over its dual by Gauss-Hermite
quadrature with the configured quad_rtol, max_evals and start_nodes.
The rule is contracted per uncoupled block of the transform's form, so
a diagonal form (the standard test function's on h(1;H)) costs dim n
values a level instead of n^dim, while the reported node counts stay
the rule's n^dim.  Each form is factored once, so once per test
function and slice across points: the slice form is read off f by
index and kept with f, and its transform's form keeps it as its
inverse, so neither the envelope nor the next point inverts again.

Measure convention used throughout: the Fourier kernel e^{-i<xi,Y>}
integrates against plain Lebesgue dY, and every k-dimensional dual
integration carries (2pi)^{-k} * Lebesgue.

Points are plain coordinate sequences in exponential coordinates; a
sequence of the wrong length is refused with ValueError where it enters.
"""

import functools
import math
import time

import numpy as np

from . import linalg
from .algebra import _scaled_bracket, bracket
from .pfaffian import is_square_integrable, pf_polynomial
from .quadrature import tensor_integrate
from .stepwise import decompose


class GroupPoint:
    """group_multiply's result: the product's exponential coordinates."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        self.coords = tuple(coords)


def _float_coords(alg, x):
    """x as a float array; refused unless it has alg.dim coordinates."""
    xs = np.array(x, dtype=float)
    if xs.shape != (alg.dim,):
        raise ValueError("coordinate length mismatch")
    return xs


def group_multiply(alg, X, Y):
    """BCH product X + Y + [X,Y]/2.  Exact coordinates give Fractions:
    with X = xs / dx and Y = ys / dy, one integer vector over 2 dx dy."""
    X, Y = list(X), list(Y)
    exact = _scaled_bracket(alg, X, Y)
    if exact is None:
        br = bracket(alg, X, Y)
        return GroupPoint(x + y + b / 2 for x, y, b in zip(X, Y, br))
    (xs, dx), (ys, dy), br = exact
    return GroupPoint(linalg._unscaled([2 * (dy * x + dx * y) + b for x, y, b
                                       in zip(xs, ys, br)], 2 * dx * dy))


def translation_matrix(alg, x):
    """A_x with (r_x f)_1(Y) = f_1(A_x Y + X); unipotent, det 1.

    Column j is e_j + [e_j, X]/2, read off the sparse bracket rows of
    b_j in float coordinates.
    """
    xs = _float_coords(alg, x)
    B = np.zeros((alg.dim, alg.dim))
    for j, row_j in enumerate(alg._rows):
        for i, row in row_j.items():
            for k, c in row:
                B[k, j] += float(c) * xs[i]
    return np.eye(alg.dim) + 0.5 * B


def right_translate(alg, f, x):
    """(r_x f)(y) = f(y x) as a closed-form Gaussian with phase."""
    return f.pullback(translation_matrix(alg, x), x)


def flat_constant(alg):
    """c = d! 2^d with 2d = dim n/z, read off the algebra."""
    vdim = len(alg.complement_indices)
    if vdim % 2:
        raise ValueError("dim n/z is odd; no flat Plancherel constant")
    d = vdim // 2
    return math.factorial(d) * 2 ** d


def _character_core(alg, g, at=None):
    """F_z[g|_{at + z}], the transform over z* of Z -> g(at + Z).

    It is (2pi)^{-dim v} times the marginal of g^ over v*, and at X it
    is the core of Theta(r_x f), as (r_x f)(Z) = f(Z + X) on z.
    """
    at = np.zeros(alg.dim) if at is None else at
    return g.slice(list(alg.center_indices), at).fourier()


def orbital_character(alg, lam, g):
    """Theta_{pi_lam}(g) = F_z[g|_z](lam) / (c |Pf(lam)|) for Gaussian g.

    F_z[g|_z] is (2pi)^{-dim v} times the integral of g^ over v*; for
    g = r_x f it is F_z[f|_{x+z}], as (r_x f)(Z) = f(Z + X) on z.
    Raises on singular lam.
    """
    lam = np.asarray(lam, dtype=float)
    pf = pf_polynomial(alg)
    pf_val = pf.evaluate_float(lam[None, :])[0]
    if pf_val == 0.0:
        raise ValueError("singular lam: Pf(lam) = 0")
    core = _character_core(alg, g)
    c = flat_constant(alg)
    return complex(core.evaluate(lam)) / (c * abs(pf_val))


class InversionReport:
    """One point's reconstruction record and the time it took."""

    def __init__(self, entry, wall_time):
        self.entries = [entry]
        self.wall_time = wall_time


def _invert(f, X, ghat, overrides, node_key, start):
    """f(X) = (2pi)^{-k} times the integral of ghat, the transform of f
    on a k-dim slice (times chi_xi(x2) on the stepwise one), by
    Gauss-Hermite matched to its envelope; overrides name
    tensor_integrate's settings, whose defaults are config's.
    """
    mean, sigma = ghat.envelope()
    value, info = tensor_integrate(ghat.grid_integrand(), mean, sigma,
                                   **(overrides or {}))
    recon = (2 * math.pi) ** (-len(mean)) * value
    f_x = f.evaluate(X).real
    abs_err = abs(recon - f_x)
    entry = {"x": [float(c) for c in X], "f_x": f_x,
             "reconstructed_re": float(np.real(recon)),
             "reconstructed_im": float(np.imag(recon)),
             "abs_error": float(abs_err),
             "rel_error": float(abs_err / max(abs(f_x), 1e-300)),
             node_key: info["nodes"]}
    return InversionReport(entry, time.perf_counter() - start)


def invert_flat(alg, f, x, quad_settings=None):
    """Reconstruct f at x via the flat inversion formula; reports error.

    Theta(r_x f)(lam) = F_z[f|_{x+z}](lam) / (c |Pf(lam)|), so the
    weight c|Pf| cancels and f(x) is (2pi)^{-dim z} times the integral
    of the core over z*: Fourier inversion on the slice x + z.  Neither
    c nor Pf enters, so this check cannot see them (ROADMAP item 3).
    """
    if not is_square_integrable(alg):
        raise ValueError("algebra is not square integrable; "
                         "flat inversion does not apply")
    start = time.perf_counter()
    X = _float_coords(alg, x)
    ghat = _character_core(alg, f, at=X)
    return _invert(f, X, ghat, quad_settings, "z_nodes", start)


def factor_point(alg, dec, x):
    """x = x1 * x2 with x1 in L1, x2 in L2; exact on rationals.

    x2 is the l2 part of x and x1 = (x - x2) - [x - x2, x2]/2, two
    coordinate tuples read from the sparse bracket kernel in x's
    arithmetic.
    """
    l2 = set(dec.l2_indices)
    x2 = tuple(c if i in l2 else 0 for i, c in enumerate(x))
    xl1 = [0 if i in l2 else c for i, c in enumerate(x)]
    x1 = tuple(a - b / 2 for a, b in zip(xl1, bracket(alg, xl1, x2)))
    recomposed = group_multiply(alg, x1, x2).coords
    if not all(abs(float(a - b)) < 1e-12 for a, b in zip(recomposed, x)):
        raise ValueError("factorization failed to recompose")
    return x1, x2


# A case tag names a fixed algebra, so its decomposition is built on
# first use and kept; the cache is private, so no caller holds (and can
# change) a shared decomposition.
_decomposition = functools.cache(decompose)


def invert_stepwise(case_tag, f, x, quad_settings=None):
    """Reconstruct f at x by the two-layer inversion for one case.

    With x = x1 * x2, the inner layer (flat inversion on L1 of the
    partial transform along l2, integrated over z1*) is the transform
    g^ of g(T) = f(x1 * T) on l2, one closed-form Gaussian in xi built
    once.  The outer layer integrates g^(xi) chi_xi(x2) over the dual
    of l2: Fourier inversion on the l2 slice through x1, by the same
    routine and settings as invert_flat.  A case tag's decomposition
    is built once per process.
    """
    dec = (_decomposition(case_tag) if isinstance(case_tag, str)
           else case_tag)
    if not dec.verification or not all(dec.verification.values()):
        raise ValueError("decomposition failed verification")
    start = time.perf_counter()
    alg, l2 = dec.algebra, list(dec.l2_indices)
    x1, x2 = factor_point(alg, dec, x)

    # x1 * T = X1 + T + [X1, T]/2: the l2 columns of A_{-x1}
    M = translation_matrix(alg, [-c for c in x1])[:, l2]
    ghat = f.pullback(M, x1).fourier()
    # chi_xi(x2) = e^{i xi.X2} joins the linear term
    ghat.u = ghat.u + 1j * np.array([float(x2[i]) for i in l2])
    return _invert(f, _float_coords(alg, x), ghat, quad_settings,
                   "outer_nodes", start)


def flatness_identity_gap(alg, f, x):
    """Relative gap between the two closed-form routes to (r_x f)(e).

    Route 1: c * integral Theta(r_x f)|Pf| dlam over z*, where c and
    |Pf| cancel, so it is the total integral of the slice core of
    invert_flat.  Route 2: Euclidean Fourier inversion of (r_x f)_1
    at 0, through the translation matrix and the dim n transform.
    Both reduce to total integrals of explicit Gaussians.
    """
    zdim = len(alg.center_indices)

    # route 1: the lam-integral of the character core is itself a
    # closed-form Gaussian integral
    core = _character_core(alg, f, at=_float_coords(alg, x))
    lhs = core.total_integral() * (2 * math.pi) ** (-zdim)

    # route 2: (2pi)^{-dim n} * integral of g^ over all of n*
    ghat = right_translate(alg, f, x).fourier()
    rhs = ghat.total_integral() * (2 * math.pi) ** (-alg.dim)

    scale = max(abs(lhs), abs(rhs))
    return abs(lhs - rhs) / scale, lhs, rhs


def _rotation_samples(rng):
    """Ten points lam of R^3 and ten rotations q (QR of a Gaussian
    matrix): per sample, three normal draws for lam, then nine for the
    matrix, all drawn at once and factored in one stacked QR."""
    draws = rng.normal(size=(10, 12))
    return draws[:, :3], np.linalg.qr(draws[:, 3:].reshape(10, 3, 3))[0]


def orbit_space_quadrature_check(alg, seed=0):
    """Two independent quadratures of integral h(|lam|)|Pf(lam)| dlam.

    h(r) = exp(-r^2/2), once over z* in Cartesian coordinates and once
    as the radial profile 4 pi r^2 h(r)|Pf(r e1)| over r >= 0, both by
    Gauss-Hermite matched to h.  Requires dim z* = 3; the Pfaffian
    factor is sampled under random rotations and the check refuses if
    it is not radial.  A radial |Pf| makes the profile even in r, so
    its integral over r >= 0 is half the one over the line.
    """
    zdim = len(alg.center_indices)
    if zdim != 3:
        raise ValueError("orbit-space check requires dim z = 3")
    h = lambda r: np.exp(-0.5 * r * r)
    pf = pf_polynomial(alg)

    lam, q = _rotation_samples(np.random.default_rng(seed))
    rotated = (q @ lam[:, :, None])[:, :, 0]
    pf_abs = np.abs(pf.evaluate_float(np.concatenate([lam, rotated])))
    a, b = pf_abs[:len(lam)], pf_abs[len(lam):]
    if np.any(np.abs(a - b) > 1e-9 * np.maximum(1.0, a)):
        raise ValueError("integrand is not rotation-invariant; refusing")

    def cart(grid):
        r = np.sqrt(sum(x * x for x in np.meshgrid(*grid.axes, indexing="ij",
                                                   sparse=True)))
        return h(r) * np.abs(pf.evaluate_grid(grid.axes))

    value_cart, cart_info = tensor_integrate(cart, np.zeros(3), np.ones(3))

    def radial(grid):
        rs = grid.axes[0]
        on_axis = np.zeros((len(rs), 3))
        on_axis[:, 0] = rs
        return 4.0 * math.pi * rs * rs * h(rs) * np.abs(
            pf.evaluate_float(on_axis))

    value_rad, rad_info = tensor_integrate(radial, [0.0], [1.0])
    value_rad = value_rad / 2

    scale = max(abs(value_cart), abs(value_rad), 1e-300)
    return {
        "value_cartesian": float(np.real(value_cart)),
        "value_radial": float(np.real(value_rad)),
        "rel_diff": float(abs(value_cart - value_rad) / scale),
        "cartesian_nodes": cart_info["nodes"],
        "radial_nodes": rad_info["nodes"],
    }
