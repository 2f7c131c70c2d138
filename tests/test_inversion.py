"""Group layer, orbital characters, and both inversion pipelines.

Quadrature-free assertions are exact; everything numeric is compared
against independent quadrature oracles or known closed forms.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from nilharm import catalog, gaussians, inversion
from nilharm.algebra import bracket
from nilharm.catalog import free_two_step, from_name, heisenberg
from nilharm.config import DEFAULTS
from nilharm.gaussians import ComplexGaussian, GaussianTestFunction
from nilharm.inversion import (GroupPoint, factor_point, flat_constant,
                               flatness_identity_gap, group_multiply,
                               invert_flat, invert_stepwise,
                               orbit_space_quadrature_check,
                               orbital_character, right_translate,
                               translation_matrix)
from nilharm.pfaffian import pf_polynomial
from nilharm.polynomials import Poly
from nilharm.quadrature import TensorGrid, tensor_integrate
from nilharm.stepwise import StepwiseDecomposition, decompose, verify
from grid_oracle import expand, gaussian_values, points


# Quadrature oracles for the closed forms; only the tests use them.
def fourier_quadrature(g, xi, rtol=DEFAULTS["quad_rtol"],
                       max_evals=DEFAULTS["max_evals"]):
    """Direct quadrature of the transform at one frequency (oracle)."""
    xi = np.asarray(xi, dtype=float)
    mean, sigma = g.envelope()

    def integrand(grid):
        pts = points(grid)
        return gaussian_values(g, pts) * np.exp(-1j * (pts @ xi))

    value, _ = tensor_integrate(integrand, mean, sigma, rtol=rtol,
                                max_evals=max_evals)
    return value


def restrict(g, fix_indices, values):
    """g with fixed values substituted for a block of its coordinates."""
    fix = list(fix_indices)
    keep = [i for i in range(g.dim) if i not in set(fix)]
    vals = np.asarray(values, dtype=float)
    A_kf = g.A[np.ix_(keep, fix)]
    A_ff = g.A[np.ix_(fix, fix)]
    return ComplexGaussian(g.A[np.ix_(keep, keep)], g.u[keep] - A_kf @ vals,
                           g.v + g.u[fix] @ vals - 0.5 * vals @ A_ff @ vals)


def orbital_character_quadrature(alg, lam, g, rtol=DEFAULTS["quad_rtol"],
                                 max_evals=DEFAULTS["max_evals"]):
    """Quadrature cross-check of the character along the flat orbit."""
    lam = np.asarray(lam, dtype=float)
    pf = pf_polynomial(alg)
    pf_val = pf.evaluate_float(lam[None, :])[0]
    if pf_val == 0.0:
        raise ValueError("singular lam: Pf(lam) = 0")
    comp = list(alg.complement_indices)
    cent = list(alg.center_indices)
    ghat = g.fourier()
    if not comp:
        return complex(ghat.evaluate(lam)) / flat_constant(alg)
    # integrate ghat over the affine slice v* + lam
    fixed = restrict(ghat, cent, lam)
    mean, sigma = fixed.envelope()
    value, _ = tensor_integrate(lambda grid: gaussian_values(fixed,
                                                             points(grid)),
                                mean, sigma, rtol=rtol, max_evals=max_evals)
    value *= (2 * math.pi) ** (-len(comp))
    c = flat_constant(alg)
    return complex(value) / (c * abs(pf_val))


def test_restrict_fixes_coordinates():
    rng = np.random.default_rng(37)
    A = rng.normal(size=(3, 3))
    g = ComplexGaussian(A @ A.T + 3 * np.eye(3), rng.normal(size=3), 0.0)
    fixed = restrict(g, [0, 2], [0.5, -0.3])
    for t in (-1.0, 0.0, 2.0):
        lhs = fixed.evaluate([t])
        rhs = g.evaluate([0.5, t, -0.3])
        assert abs(lhs - rhs) < 1e-13 * max(1.0, abs(rhs))


def rand_coords(rng, dim):
    return [Fraction(rng.integers(-4, 5).item(), rng.integers(1, 4).item())
            for _ in range(dim)]


def test_group_multiply_is_associative_and_inverts():
    alg = free_two_step(3, "R")
    rng = np.random.default_rng(51)
    zero = tuple([Fraction(0)] * alg.dim)
    for _ in range(15):
        x = rand_coords(rng, alg.dim)
        y = rand_coords(rng, alg.dim)
        z = rand_coords(rng, alg.dim)
        lhs = group_multiply(alg, group_multiply(alg, x, y).coords, z)
        rhs = group_multiply(alg, x, group_multiply(alg, y, z).coords)
        assert lhs.coords == rhs.coords
        neg = [-c for c in x]
        assert group_multiply(alg, x, neg).coords == zero


def test_translation_matrix_realizes_right_translation():
    alg = heisenberg(2, "C")
    rng = np.random.default_rng(52)
    x = rand_coords(rng, alg.dim)
    M = translation_matrix(alg, x)
    for _ in range(10):
        y = rand_coords(rng, alg.dim)
        prod = group_multiply(alg, y, x).coords
        lin = [sum(Fraction(M[i][j]) * y[j] for j in range(alg.dim))
               + Fraction(x[i]) for i in range(alg.dim)]
        assert [float(a) for a in prod] == pytest.approx(
            [float(b) for b in lin])


@pytest.mark.parametrize("name", ["heisenberg:1:C", "heisenberg:2:C",
                                  "heisenberg:1:H", "heisenberg:1:O",
                                  "free2step:3:R", "octdouble"])
def test_translation_matrix_is_the_exact_bracket_in_floats(name):
    # every entry of B is one +-1 structure constant times one
    # coordinate, so reading the rows in floats loses nothing
    alg = from_name(name)
    rng = np.random.default_rng(54)
    for x in (rand_coords(rng, alg.dim), list(rng.normal(size=alg.dim))):
        B = np.zeros((alg.dim, alg.dim))
        for j in range(alg.dim):
            unit = [Fraction(int(i == j)) for i in range(alg.dim)]
            B[:, j] = [float(c) for c in bracket(alg, unit, x)]
        assert np.array_equal(translation_matrix(alg, x),
                              np.eye(alg.dim) + 0.5 * B)


def test_right_translate_pointwise():
    alg = heisenberg(1, "C")
    f = GaussianTestFunction.standard(3)
    x = [Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5)]
    g = right_translate(alg, f, x)
    rng = np.random.default_rng(53)
    for _ in range(10):
        y = rng.normal(size=3)
        prod = group_multiply(alg, [Fraction(c).limit_denominator(10 ** 12)
                                    for c in y], x).coords
        expect = f.evaluate([float(c) for c in prod])
        got = np.real(g.evaluate(y))
        assert np.isclose(got, expect, rtol=1e-10)


def test_fourier_against_quadrature():
    f = GaussianTestFunction(np.diag([1.0, 2.0]), np.array([0.3, -0.1]))
    ghat = f.fourier()
    for xi in ([0.0, 0.0], [1.0, -0.5], [0.4, 2.0]):
        oracle = fourier_quadrature(f, np.array(xi), rtol=1e-11)
        closed = ghat.evaluate(xi)
        assert abs(closed - oracle) < 1e-8 * max(1.0, abs(oracle))


def test_flat_constant_values():
    # d! 2^d for d = dim(v)/2
    assert flat_constant(heisenberg(1, "C")) == 2          # d = 1
    assert flat_constant(heisenberg(2, "C")) == 8          # d = 2
    assert flat_constant(heisenberg(1, "H")) == 8          # d = 2
    assert flat_constant(heisenberg(1, "O")) == 384        # d = 4


def test_orbital_character_matches_quadrature():
    alg = heisenberg(1, "C")
    f = GaussianTestFunction(np.diag([1.0, 0.8, 1.1]),
                             np.array([0.1, 0.0, -0.2]))
    for lam in ([1.0], [-0.7], [2.3]):
        closed = orbital_character(alg, lam, f)
        oracle = orbital_character_quadrature(alg, lam, f, rtol=1e-10)
        assert abs(closed - oracle) < 1e-7 * max(1.0, abs(oracle))


def test_orbital_character_rejects_singular_lambda():
    alg = heisenberg(1, "C")
    g = GaussianTestFunction.standard(3)
    with pytest.raises(ValueError):
        orbital_character(alg, [0.0], g)


def test_invert_flat_heisenberg_complex():
    alg = heisenberg(1, "C")
    f = GaussianTestFunction(np.diag([1.0, 0.7, 1.3]),
                             np.array([0.1, -0.2, 0.3]), amp=2.0)
    report = invert_flat(alg, f, [0.0, 0.0, 0.0])
    assert report.entries[0]["rel_error"] < 1e-10
    report = invert_flat(alg, f, [0.2, -0.1, 0.4])
    assert report.entries[0]["rel_error"] < 1e-10


def test_invert_flat_quaternionic():
    alg = heisenberg(1, "H")
    f = GaussianTestFunction.standard(alg.dim)
    report = invert_flat(alg, f, [0.0] * alg.dim)
    assert report.entries[0]["rel_error"] < 1e-8
    # the default rule converges on the 16^3 grid
    assert report.entries[0]["z_nodes"] == 4096


def test_invert_flat_evaluates_one_factor_per_uncoupled_axis(monkeypatch):
    # the z-form of the standard test function on h(1;H) is diagonal:
    # the 8^3 and 16^3 levels count 4096 nodes but evaluate 3 (8 + 16)
    # values, one factor per axis
    values = []
    grid_integrand = ComplexGaussian.grid_integrand

    def counting(g):
        integrand = grid_integrand(g)

        def counted(grid):
            factors = integrand(grid)
            values.append(sum(np.size(part) for block, part in factors
                              if block))
            return factors
        return counted

    monkeypatch.setattr(ComplexGaussian, "grid_integrand", counting)
    alg = heisenberg(1, "H")
    report = invert_flat(alg, GaussianTestFunction.standard(alg.dim),
                         [0.2, -0.1, 0.4, 0.3, 0.0, -0.3, 0.1])
    assert report.entries[0]["rel_error"] < 1e-8
    assert report.entries[0]["z_nodes"] == 4096
    assert values == [3 * 8, 3 * 16]


def test_invert_flat_memory_peak():
    # one h(1;H) reconstruction ends on the 16^3 grid.  Its tracemalloc
    # peak was 8.73 MB when Gauss-Legendre on a truncated box ended on
    # the 64^3 grid, and is 0.27 MB with envelope-matched Gauss-Hermite
    # on the whole space; the bound sits halfway
    alg = heisenberg(1, "H")
    f = GaussianTestFunction.standard(alg.dim)
    x = [0.2, -0.1, 0.4, 0.3, 0.0, -0.3, 0.1]
    invert_flat(alg, f, x)  # the Pfaffian and the rules are cached
    tracemalloc.start()
    try:
        report = invert_flat(alg, f, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.entries[0]["z_nodes"] == 4096
    assert report.entries[0]["rel_error"] < 1e-8
    assert peak < 4.5e6


def test_invert_flat_abelian_is_classical():
    # v = 0: the formula degenerates to plain Fourier inversion
    from nilharm.catalog import abelian
    alg = abelian(2)
    f = GaussianTestFunction(np.diag([1.0, 0.5]), np.array([0.2, 0.1]))
    report = invert_flat(alg, f, [0.3, -0.2])
    assert report.entries[0]["rel_error"] < 1e-9


def character_core_by_full_transform(alg, f, x):
    """The core of Theta(r_x f) as (2pi)^{-dim v} times the marginal
    over v* of the dim n transform of r_x f (oracle)."""
    comp = list(alg.complement_indices)
    ghat = right_translate(alg, f, x).fourier()
    core = ghat.marginalize(comp) if comp else ghat
    return ComplexGaussian(core.A, core.u,
                           core.v - len(comp) * math.log(2 * math.pi))


@pytest.mark.parametrize("name", ["heisenberg:1:C", "heisenberg:2:C",
                                  "heisenberg:1:H", "heisenberg:1:O",
                                  "abelian:2"])
def test_slice_core_matches_the_full_transform_marginal(name):
    alg = from_name(name)
    rng = np.random.default_rng(60)
    for _ in range(10):
        A = rng.normal(size=(alg.dim, alg.dim))
        f = GaussianTestFunction(A @ A.T + alg.dim * np.eye(alg.dim),
                                 rng.normal(size=alg.dim))
        x = rng.normal(size=alg.dim)
        got = inversion._character_core(alg, f, at=x)
        want = character_core_by_full_transform(alg, f, list(x))
        assert np.abs(got.A - want.A).max() <= 1e-12 * np.abs(want.A).max()
        assert np.abs(got.u - want.u).max() <= 1e-12 * np.abs(want.u).max()
        # v is a log: its absolute error is the amplitude's relative one
        assert abs(got.v - want.v) <= 1e-12 * max(1.0, abs(want.v))


def test_invert_flat_transforms_only_the_center(monkeypatch):
    calls, fourier_dims = [], []
    translation, fourier = translation_matrix, ComplexGaussian.fourier
    marginalize = ComplexGaussian.marginalize
    monkeypatch.setattr(inversion, "translation_matrix",
                        lambda *a: calls.append("translation_matrix")
                        or translation(*a))
    monkeypatch.setattr(ComplexGaussian, "marginalize",
                        lambda g, out: calls.append("marginalize")
                        or marginalize(g, out))
    monkeypatch.setattr(ComplexGaussian, "fourier",
                        lambda g: fourier_dims.append(g.dim) or fourier(g))
    for name in ("heisenberg:1:C", "heisenberg:2:C", "heisenberg:1:H"):
        alg = from_name(name)
        fourier_dims.clear()
        x = [0.1 * (k % 3) - 0.1 for k in range(alg.dim)]
        rep = invert_flat(alg, GaussianTestFunction.standard(alg.dim), x)
        assert rep.entries[0]["rel_error"] < 1e-12
        assert fourier_dims == [len(alg.center_indices)]
    assert calls == []


def test_invert_flat_refuses_a_non_square_integrable_algebra():
    alg = free_two_step(3, "R")
    with pytest.raises(ValueError, match="not square integrable"):
        invert_flat(alg, GaussianTestFunction.standard(alg.dim),
                    [0.0] * alg.dim)


def test_flatness_identity_gap_is_tiny():
    alg = heisenberg(1, "C")
    f = GaussianTestFunction(np.diag([1.0, 0.7, 1.3]),
                             np.array([0.1, -0.2, 0.3]))
    gap, lhs, rhs = flatness_identity_gap(alg, f, [0.0, 0.0, 0.0])
    assert gap < 1e-12
    assert abs(lhs) > 0 and abs(rhs) > 0


def counted_factorizations(monkeypatch):
    """Calls of np.linalg.inv and cholesky, patched where gaussians
    reads them, by name."""
    calls = []
    for name in ("inv", "cholesky"):
        original = getattr(gaussians.np.linalg, name)
        monkeypatch.setattr(gaussians.np.linalg, name,
                            lambda A, name=name, original=original:
                            calls.append(name) or original(A))
    return calls


def test_a_test_function_is_factored_once_for_all_its_points(monkeypatch):
    alg = from_name("heisenberg:1:H")
    f = GaussianTestFunction.standard(alg.dim)    # its own Cholesky check
    calls = counted_factorizations(monkeypatch)
    rng = np.random.default_rng(63)
    invert_flat(alg, f, list(0.25 * rng.normal(size=alg.dim)))
    assert sorted(calls) == ["cholesky", "inv"]
    calls.clear()
    for _ in range(10):
        rep = invert_flat(alg, f, list(0.25 * rng.normal(size=alg.dim)))
        assert rep.entries[0]["rel_error"] < 1e-6
    assert calls == []


def coupled_test_function(dim):
    """A Gaussian test function with a coupled form, built afresh, the
    same on every call."""
    rng = np.random.default_rng(65)
    B = rng.normal(size=(dim, dim))
    return GaussianTestFunction(0.1 * B @ B.T + np.eye(dim),
                                0.2 * rng.normal(size=dim), amp=1.5)


@pytest.mark.parametrize("name", ["heisenberg:1:C", "heisenberg:2:C",
                                  "heisenberg:1:H"])
def test_a_warm_test_function_gives_what_a_fresh_one_does(name):
    # bit for bit: the cached forms are the arrays a fresh function
    # computes, so every entry, node counts included, is equal
    alg = from_name(name)
    rng = np.random.default_rng(64)
    warm = coupled_test_function(alg.dim)
    for _ in range(20):
        x = list(0.25 * rng.normal(size=alg.dim))
        assert (invert_flat(alg, warm, x).entries
                == invert_flat(alg, coupled_test_function(alg.dim), x).entries)
        assert (flatness_identity_gap(alg, warm, x)
                == flatness_identity_gap(alg, coupled_test_function(alg.dim),
                                         x))


def test_factor_point_recomposes():
    dec = decompose("case1")
    alg = dec.algebra
    rng = np.random.default_rng(54)
    for _ in range(10):
        x = rand_coords(rng, alg.dim)
        x1, x2 = factor_point(alg, dec, x)
        back = group_multiply(alg, x1, x2)
        assert back.coords == tuple(x)
        assert all(x1[k] == 0 for k in dec.l2_indices)
        assert all(x2[k] == 0 for k in dec.l1_indices)


@pytest.mark.parametrize("case", ["case1", "case3", "case6"])
def test_factor_point_on_floats_matches_the_exact_route(case):
    dec = decompose(case)
    alg = dec.algebra
    rng = np.random.default_rng(61)
    for _ in range(10):
        x = rng.normal(size=alg.dim).tolist()
        got = factor_point(alg, dec, x)
        want = factor_point(alg, dec, [Fraction(c) for c in x])
        for p, q in zip(got, want):
            assert all(type(c) is float for c in p if c)
            assert np.abs(np.array(p, dtype=float)
                          - np.array(q, dtype=float)).max() <= 1e-14


def test_factor_point_on_a_float_point_builds_no_fraction(count_fractions):
    # no bracket row reaches some coordinates; they start as the int 0,
    # so the float arithmetic never falls back through Fraction
    for case, x in (("case1", CASE1_GENERIC), ("case3", [0.05 * k - 0.3
                                                         for k in range(14)]),
                    ("case6", CASE6_GENERIC)):
        dec = decompose(case)
        (x1, x2), built = count_fractions(
            lambda: factor_point(dec.algebra, dec, x))
        assert built == 0
        assert all(type(c) in (int, float) for c in x1 + x2)


def test_factor_point_refuses_a_wrong_recomposition(monkeypatch):
    dec = decompose("case1")
    alg = dec.algebra
    x = [Fraction(k, 3) for k in range(1, alg.dim + 1)]
    wrong = GroupPoint([c + 1 for c in x])
    monkeypatch.setattr(inversion, "group_multiply",
                        lambda alg, p1, p2: wrong)
    with pytest.raises(ValueError, match="recompose"):
        factor_point(alg, dec, x)


# every entry point that takes coordinates, with the algebra or case it
# is called on
COORDINATE_ENTRY_POINTS = {
    "group_multiply_left": ("heisenberg:1:C", lambda alg, f, x:
                            group_multiply(alg, x, [0.2] * alg.dim)),
    "group_multiply_right": ("heisenberg:1:C", lambda alg, f, x:
                             group_multiply(alg, [0.2] * alg.dim, x)),
    "translation_matrix": ("heisenberg:1:C", lambda alg, f, x:
                           translation_matrix(alg, x)),
    "right_translate": ("heisenberg:1:C", right_translate),
    "invert_flat": ("heisenberg:1:C", invert_flat),
    "flatness_identity_gap": ("heisenberg:1:C", flatness_identity_gap),
    "factor_point": ("case1", lambda alg, f, x:
                     factor_point(alg, decompose("case1"), x)),
    "invert_stepwise": ("case1", lambda alg, f, x:
                        invert_stepwise("case1", f, x)),
}


@pytest.mark.parametrize("extra", [-1, 1], ids=["dim-1", "dim+1"])
@pytest.mark.parametrize("entry", sorted(COORDINATE_ENTRY_POINTS))
def test_wrong_length_coordinates_are_refused(entry, extra):
    target, call = COORDINATE_ENTRY_POINTS[entry]
    alg = (decompose(target).algebra if target.startswith("case")
           else from_name(target))
    f = GaussianTestFunction.standard(alg.dim)
    call(alg, f, [0.1] * alg.dim)
    with pytest.raises(ValueError, match="(dimension|length) mismatch"):
        call(alg, f, [0.1] * (alg.dim + extra))


CASE1_GENERIC = [0.1, -0.2, 0.15, 0.05, -0.1, 0.2]


def test_invert_stepwise_case1_origin_and_general():
    f = GaussianTestFunction.standard(6)
    rep = invert_stepwise("case1", f, [0.0] * 6)
    assert rep.entries[0]["rel_error"] < 1e-9
    assert rep.entries[0]["outer_nodes"] == 16
    rep = invert_stepwise("case1", f,
                          [0.1, -0.2, 0.15, 0.3, -0.1, 0.2])
    assert rep.entries[0]["rel_error"] < 1e-9
    assert rep.entries[0]["outer_nodes"] == 16


def test_invert_stepwise_in_a_row_gives_what_fresh_functions_do():
    # the first call reassigns its transform's u; the second, on the
    # same (warm) test function, still equals a fresh function's run
    f = GaussianTestFunction.standard(6)
    for x in ([0.0] * 6, CASE1_GENERIC, [0.2, 0.1, -0.3, 0.0, 0.1, -0.2]):
        assert (invert_stepwise("case1", f, x).entries
                == invert_stepwise("case1", GaussianTestFunction.standard(6),
                                   x).entries)


def test_invert_stepwise_case3_origin():
    rep = invert_stepwise("case3", GaussianTestFunction.standard(14),
                          [0.0] * 14, quad_settings={"rtol": 1e-6})
    assert rep.entries[0]["rel_error"] < 1e-9
    assert rep.entries[0]["outer_nodes"] == 16


# case6 drops a complex generator: l2 is 2-dimensional, so the outer
# quadrature runs on a 16 x 16 grid
CASE6_GENERIC = [0.1, -0.2, 0.15, 0.05, -0.1, 0.2,
                 -0.15, 0.25, 0.1, -0.05, 0.3, -0.25]


@pytest.mark.parametrize("x", [[0.0] * 12, CASE6_GENERIC],
                         ids=["origin", "generic"])
def test_invert_stepwise_case6(x):
    rep = invert_stepwise("case6", GaussianTestFunction.standard(12), x)
    assert rep.entries[0]["rel_error"] < 1e-9
    assert rep.entries[0]["outer_nodes"] == 256


def _outer_level(monkeypatch, *args, **kwargs):
    """invert_stepwise's report, with the nodes and the integrand values
    of the last level of its outer quadrature."""
    level = []

    def recording(func, *a, **kw):
        def integrand(grid):
            values = func(grid)
            level[:] = [points(grid), expand(values, grid.shape).ravel()]
            return values
        return tensor_integrate(integrand, *a, **kw)

    monkeypatch.setattr(inversion, "tensor_integrate", recording)
    rep = invert_stepwise(*args, **kwargs)
    return rep, level[0], level[1]


def joint_gaussian_by_exact_brackets(dec, f, x):
    """(r_x f)_1 on the slice z1 + l2 as a Gaussian g_joint in (Z, T),
    with each l2 column e_t + [X1, e_t]/2 bracketed against a unit
    vector; returns g_joint, dim z1 and X2 (oracle: the joint route,
    whose transform integrated over z1* is the stepwise inner layer)."""
    alg, l2 = dec.algebra, dec.l2_indices
    z1_global = list(alg.center_indices)
    z1 = len(z1_global)
    x1, x2 = factor_point(alg, dec, x)
    M = np.zeros((alg.dim, z1 + len(l2)))
    M[z1_global, range(z1)] = 1.0
    for k, gt in enumerate(l2):
        unit = [Fraction(int(i == gt)) for i in range(alg.dim)]
        col = bracket(alg, list(x1), unit)
        M[:, z1 + k] = [float(c) * 0.5 for c in col]
        M[gt, z1 + k] += 1.0
    X2 = np.array([float(x2[i]) for i in l2])
    return f.pullback(M, np.array(x1, dtype=float)), z1, X2


STEPWISE_POINTS = [
    ("case1", 6, [0.1, -0.2, 0.15, 0.3, -0.1, 0.2], None),
    ("case3", 14, [0.05 * k - 0.3 for k in range(14)], {"rtol": 1e-6}),
    ("case6", 12, CASE6_GENERIC, None),
]


@pytest.mark.parametrize("case, dim, x, qs", STEPWISE_POINTS,
                         ids=["case1", "case3", "case6"])
def test_stepwise_inner_gaussian_against_the_per_frequency_chain(
        monkeypatch, case, dim, x, qs):
    # per outer node xi: partial transform of g_joint along l2, flat
    # inversion on L1 as the closed-form integral of its transform over
    # z1*, and the character chi_xi(x2); x2 != 0 at these points
    f = GaussianTestFunction.standard(dim)
    rep, xis, got = _outer_level(monkeypatch, case, f, x, quad_settings=qs)
    assert rep.entries[0]["rel_error"] < 1e-9
    g_joint, z1, X2 = joint_gaussian_by_exact_brackets(decompose(case), f, x)
    assert np.abs(X2).max() > 0.1
    t_block = list(range(z1, z1 + len(X2)))
    for xi, value in zip(xis, got):
        s_xi = g_joint.partial_fourier(t_block, xi)
        want = (s_xi.fourier().total_integral() * (2 * math.pi) ** (-z1)
                * np.exp(1j * (xi @ X2)))
        assert abs(value - want) <= 1e-12 * abs(want)


def _transformed(monkeypatch):
    """The list that each ComplexGaussian.fourier call appends its
    input to."""
    inputs, fourier = [], ComplexGaussian.fourier
    monkeypatch.setattr(ComplexGaussian, "fourier",
                        lambda g: inputs.append(g) or fourier(g))
    return inputs


@pytest.mark.parametrize("case", ["case1", "case3", "case6"])
def test_joint_gaussian_matches_the_exact_bracket_columns(monkeypatch,
                                                          case):
    # the joint Gaussian of the exact bracket columns, at Z = 0, is the
    # l2 slice g(T) = f(x1 T) that invert_stepwise transforms
    dec = decompose(case)
    dim = dec.algebra.dim
    rng = np.random.default_rng(58)
    A = rng.normal(size=(dim, dim))
    f = GaussianTestFunction(A @ A.T + dim * np.eye(dim),
                             rng.normal(size=dim))
    sliced = _transformed(monkeypatch)
    # only the inner layer is compared: the outer quadrature is skipped,
    # as f(x) is far below f's peak at some of these points
    monkeypatch.setattr(inversion, "tensor_integrate",
                        lambda *a, **kw: (0.0, {"nodes": 0}))
    for k in range(20):
        x = (list(rng.normal(size=dim)) if k % 2
             else rand_coords(rng, dim))
        sliced.clear()
        invert_stepwise(dec, f, x)
        joint, z1, _ = joint_gaussian_by_exact_brackets(dec, f, x)
        want = restrict(joint, range(z1), np.zeros(z1))
        [got] = sliced
        assert np.abs(got.A - want.A).max() <= 1e-12 * np.abs(want.A).max()
        assert np.abs(got.u - want.u).max() <= 1e-12 * np.abs(want.u).max()
        assert abs(got.v - want.v) <= 1e-12 * max(1.0, abs(want.v))


def test_invert_stepwise_transforms_only_the_l2_slice(monkeypatch):
    marginalized = []
    marginalize = ComplexGaussian.marginalize
    monkeypatch.setattr(ComplexGaussian, "marginalize",
                        lambda g, out: marginalized.append(g)
                        or marginalize(g, out))
    transformed = _transformed(monkeypatch)
    for case, dim, x, qs in STEPWISE_POINTS:
        transformed.clear()
        rep = invert_stepwise(case, GaussianTestFunction.standard(dim), x,
                              quad_settings=qs)
        assert rep.entries[0]["rel_error"] < 1e-9
        assert [g.dim for g in transformed] == [
            len(decompose(case).l2_indices)]
    assert marginalized == []


def _integrations(monkeypatch):
    """The list that each inversion.tensor_integrate call appends its
    means, sigmas and keyword arguments to."""
    calls = []

    def recording(func, means, sigmas, **kw):
        calls.append((means, sigmas, kw))
        return tensor_integrate(func, means, sigmas, **kw)

    monkeypatch.setattr(inversion, "tensor_integrate", recording)
    return calls


def test_each_inversion_runs_one_integration_with_the_callers_settings(
        monkeypatch):
    calls = _integrations(monkeypatch)
    qs = {"rtol": 1e-9, "max_evals": 2 ** 18, "start_nodes": 5}
    want = {"rtol": 1e-9, "max_evals": 2 ** 18, "start_nodes": 5}
    for name in ("heisenberg:1:C", "heisenberg:1:H"):
        alg = from_name(name)
        calls.clear()
        invert_flat(alg, GaussianTestFunction.standard(alg.dim),
                    [0.1] * alg.dim, quad_settings=qs)
        assert [kw for _, _, kw in calls] == [want]
    for case, dim, x, _ in STEPWISE_POINTS:
        calls.clear()
        invert_stepwise(case, GaussianTestFunction.standard(dim), x,
                        quad_settings=qs)
        assert [kw for _, _, kw in calls] == [want]


def test_inversion_refuses_a_setting_the_quadrature_does_not_take():
    # quad_rtol is a config key, not a quadrature setting: refused,
    # not dropped with the default rtol left in force
    alg = from_name("heisenberg:1:C")
    f = GaussianTestFunction.standard(alg.dim)
    with pytest.raises(TypeError, match="quad_rtol"):
        invert_flat(alg, f, [0.1] * alg.dim,
                    quad_settings={"quad_rtol": 1e-14})
    with pytest.raises(TypeError, match="quad_rtol"):
        invert_stepwise("case1", GaussianTestFunction.standard(6), [0.0] * 6,
                        quad_settings={"quad_rtol": 1e-14})


@pytest.mark.parametrize("case", ["case1", "case3", "case6"])
def test_stepwise_envelope_is_the_slice_transforms(monkeypatch, case):
    # the envelope of g^ is mean Im(g.u) and sigma sqrt(diag g.A) for
    # the l2 slice g that invert_stepwise transforms
    dec = decompose(case)
    dim = dec.algebra.dim
    rng = np.random.default_rng(62)
    sliced, calls = _transformed(monkeypatch), _integrations(monkeypatch)
    for _ in range(10):
        A = rng.normal(size=(dim, dim))
        f = GaussianTestFunction(A @ A.T / dim + np.eye(dim),
                                 0.3 * rng.normal(size=dim))
        sliced.clear()
        calls.clear()
        invert_stepwise(dec, f, list(0.3 * rng.normal(size=dim)),
                        quad_settings={"rtol": 1e-6})
        [g], [(mean, sigma, _)] = sliced, calls
        assert np.abs(mean - np.imag(g.u)).max() <= 1e-14 * max(
            1.0, np.abs(g.u).max())
        assert np.abs(sigma - np.sqrt(np.diag(g.A))).max() <= 1e-14 * max(
            1.0, np.sqrt(np.diag(g.A)).max())


def test_invert_stepwise_builds_each_case_once(monkeypatch):
    built = []
    octonion_double = catalog.octonion_double
    monkeypatch.setattr(catalog, "octonion_double",
                        lambda: built.append(1) or octonion_double())
    inversion._decomposition.cache_clear()
    f = GaussianTestFunction.standard(14)
    for x in ([0.0] * 14, [0.05 * k - 0.3 for k in range(14)]):
        rep = invert_stepwise("case3", f, x, quad_settings={"rtol": 1e-6})
        assert rep.entries[0]["rel_error"] < 1e-9
    assert len(built) == 1


def test_invert_stepwise_refuses_a_passed_split_that_fails_verification():
    f = GaussianTestFunction.standard(6)
    invert_stepwise("case1", f, [0.0] * 6)   # the case1 split is cached
    alg = decompose("case1").algebra
    # l2 = a center line: l1 is no ideal
    l2 = alg.center_indices[:1]
    bad = StepwiseDecomposition(
        alg, [i for i in range(alg.dim) if i not in l2], l2)
    with pytest.raises(ValueError, match="failed verification"):
        invert_stepwise(bad, f, [0.0] * 6)
    assert not verify(bad)["l1_is_ideal"]
    with pytest.raises(ValueError, match="failed verification"):
        invert_stepwise(bad, f, [0.0] * 6)


def test_invert_stepwise_rejects_unverified_split():
    f = GaussianTestFunction.standard(6)
    with pytest.raises(ValueError):
        invert_stepwise("case2", f, [0.0] * 6)


def test_orbit_space_quadrature_check_quaternionic():
    alg = heisenberg(1, "H")
    out = orbit_space_quadrature_check(alg, seed=0)
    assert out["rel_diff"] < 1e-6
    # |Pf(lam)| = |lam|^2, so each route is 4 pi * 3 sqrt(2 pi) / 2
    exact = 3 * (2 * math.pi) ** 1.5
    assert abs(out["value_cartesian"] - exact) <= 1e-13 * exact
    assert abs(out["value_radial"] - exact) <= 1e-13 * exact
    # Gauss-Hermite matched to h is exact on both: 8 and 16 nodes per
    # axis agree, so each route stops on its second level
    assert (out["cartesian_nodes"], out["radial_nodes"]) == (4096, 16)


def per_sample_rotations(seed):
    """The rotation check's samples drawn one at a time (oracle): per
    sample, lam from three normals, then q from the QR of nine."""
    rng = np.random.default_rng(seed)
    lams, qs = [], []
    for _ in range(10):
        lams.append(rng.normal(size=3))
        qs.append(np.linalg.qr(rng.normal(size=(3, 3)))[0])
    return lams, qs


def test_the_batched_rotation_draw_is_the_per_sample_loop():
    for seed in (0, 1, 7, 61, 2024, 999983):
        lam, q = inversion._rotation_samples(np.random.default_rng(seed))
        lams, qs = per_sample_rotations(seed)
        assert np.array_equal(lam, lams) and np.array_equal(q, qs)


def test_orbit_space_check_refuses_a_non_radial_pfaffian(monkeypatch):
    # t1^2 is not a function of |lam| alone
    alg = heisenberg(1, "H")
    monkeypatch.setattr(inversion, "pf_polynomial",
                        lambda alg: Poly(3, {(2, 0, 0): 1}))
    for seed in range(5):
        with pytest.raises(ValueError, match="not rotation-invariant"):
            orbit_space_quadrature_check(alg, seed=seed)


@pytest.mark.parametrize("name", ["heisenberg:1:H", "heisenberg:2:H",
                                  "table:2.2:23"])
def test_pfaffian_on_a_grid_is_bitwise_the_pointwise_value(name):
    pf = pf_polynomial(from_name(name))
    rng = np.random.default_rng(63)
    # unequal axis lengths, so a transposed layout cannot pass
    grid = TensorGrid(rng.normal(size=2 + k % 3) for k in range(pf.nvars))
    got = pf.evaluate_grid(grid.axes)
    assert got.shape == grid.shape
    assert np.array_equal(got.reshape(-1), pf.evaluate_float(points(grid)))
    # a constant term and Fraction coefficients take the same route
    poly = pf * Fraction(1, 3) + 5
    assert np.array_equal(poly.evaluate_grid(grid.axes).reshape(-1),
                          poly.evaluate_float(points(grid)))


def test_orbit_space_check_needs_three_dim_center():
    with pytest.raises(ValueError):
        orbit_space_quadrature_check(heisenberg(1, "C"))
