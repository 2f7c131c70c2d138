"""Closed-form Gaussian calculus against quadrature oracles."""

import cmath
import math
from itertools import product
from math import prod

import numpy as np
import pytest

from nilharm.gaussians import ComplexGaussian, GaussianTestFunction
from nilharm.quadrature import (MAX_HERMITE_NODES, TensorGrid,
                               gauss_hermite, hermite_axis_rule,
                               tensor_integrate)
from grid_oracle import expand, gaussian_values, points


def rand_spd(rng, n):
    A = rng.normal(size=(n, n))
    return A @ A.T + n * np.eye(n)


def legendre_box(n, means, sigmas, width):
    """Per-axis n-point Gauss-Legendre nodes and weights on the box
    mean +- width * sigma: a rule the package does not use."""
    x, w = np.polynomial.legendre.leggauss(n)
    return [(m + width * s * x, width * s * w) for m, s in zip(means, sigmas)]


def quad_oracle(g, n=64, width=10.0):
    """The integral of g over the box envelope mean +- width sigma."""
    level = legendre_box(n, *g.envelope(), width)
    value = gaussian_values(g, points(TensorGrid(x for x, _ in level)))
    value = value.reshape((n,) * len(level))
    for _, w in reversed(level):
        value = value @ w
    return value


def reference_value(A, u, v, y):
    """exp(-1/2 y^T A y + u^T y + v) at one point, summed term by term."""
    n = len(y)
    quad = sum(y[i] * A[i, j] * y[j] for i in range(n) for j in range(n))
    lin = sum(u[i] * y[i] for i in range(n))
    return cmath.exp(-0.5 * quad + lin + v)


@pytest.mark.parametrize("dim", range(5))
def test_evaluate_matches_a_per_point_reference(dim):
    rng = np.random.default_rng(70 + dim)
    A = rand_spd(rng, dim)
    u = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v = complex(rng.normal(), rng.normal())
    g = ComplexGaussian(A, u, v)
    pts = rng.normal(size=(9, dim))
    batch = gaussian_values(g, pts)
    assert batch.shape == (9,)
    for y, got in zip(pts, batch):
        want = reference_value(g.A, u, v, y)
        assert abs(got - want) <= 1e-13 * abs(want)
        single = g.evaluate(y)
        assert np.ndim(single) == 0
        assert abs(single - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("dim", range(1, 5))
def test_evaluate_grid_matches_evaluate_on_the_grid_points(dim):
    rng = np.random.default_rng(80 + dim)
    A = rand_spd(rng, dim)
    u = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    g = ComplexGaussian(A, u, complex(rng.normal(), rng.normal()))
    # unequal axis lengths, so a transposed layout cannot pass
    grid = TensorGrid(rng.normal(size=3 + k) for k in range(dim))
    got = expand(g.grid_integrand()(grid), grid.shape)
    want = gaussian_values(g, points(grid))
    assert np.all(np.abs(got.reshape(-1) - want) <= 1e-13 * np.abs(want))


def test_evaluate_grid_is_finite_far_out_and_ill_conditioned():
    # envelope mean at +-40 and cond(A) = 1e6: exponentiating each
    # per-axis or pairwise term apart overflows on these grids, the
    # summed exponent does not.  The diagonal copies split into one
    # factor per axis, whose exponents reach 8e5 unless each factor
    # completes its own square
    rng = np.random.default_rng(90)
    for dim, rotated in product((2, 3, 4), (True, False)):
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        if not rotated:
            q = np.eye(dim)
        A = q @ np.diag(np.geomspace(1e-3, 1e3, dim)) @ q.T
        mean = 40.0 * (-1.0) ** np.arange(dim)
        u = A @ mean + 3j * rng.normal(size=dim)
        g = ComplexGaussian(A, u, -0.5 * mean @ A @ mean + 0.3j)
        center, sigma = g.envelope()
        assert np.allclose(center, mean)
        grid = TensorGrid(x for x, _ in legendre_box(16, center, sigma, 8.0))
        factors = g.grid_integrand()(grid)
        assert len(factors) == (2 if rotated else dim + 1)
        assert all(np.all(np.isfinite(part)) for _, part in factors)
        got = expand(factors, grid.shape).reshape(-1)
        assert np.all(np.isfinite(got))
        pts = points(grid)
        want = gaussian_values(g, pts)
        # both round an exponent whose terms reach this size, so they
        # may differ by some ulps of it, and no more
        terms = (0.5 * np.einsum("ni,ij,nj->n", np.abs(pts), np.abs(g.A),
                                 np.abs(pts))
                 + np.abs(pts) @ np.abs(u.real))
        assert np.all(np.abs(got - want)
                      <= 1e-13 * terms * np.abs(want) + 1e-300)


def block_gaussian(rng, blocks):
    """A ComplexGaussian whose form couples exactly the axes within each
    block, with complex u."""
    dim = sum(map(len, blocks))
    A = np.zeros((dim, dim))
    for block in blocks:
        B = rng.normal(size=(len(block), len(block)))
        A[np.ix_(block, block)] = 0.3 * B @ B.T + np.eye(len(block))
    u = rng.normal(size=dim) + 0.5j * rng.normal(size=dim)
    return ComplexGaussian(A, u, complex(rng.normal(), rng.normal()))


# the uncoupled blocks of forms of dim 2-4, some of them interleaved
BLOCKS = [[(0,), (1,)], [(0, 1)], [(0,), (1,), (2,)], [(0, 2), (1,)],
          [(0,), (1,), (2,), (3,)], [(0, 3), (1, 2)], [(1, 3), (0,), (2,)]]


@pytest.mark.parametrize("blocks", BLOCKS, ids=str)
def test_factor_contraction_matches_the_closed_form_and_the_full_grid(
        blocks):
    rng = np.random.default_rng(91)
    for _ in range(5):
        g = block_gaussian(rng, blocks)
        mean, sigma = g.envelope()
        sizes = []

        def factored(grid):
            factors = g.grid_integrand()(grid)
            assert [b for b, _ in factors] == sorted(blocks) + [()]
            sizes.append(sum(np.size(part) for b, part in factors if b))
            return factors

        value, info = tensor_integrate(factored, mean, sigma, rtol=1e-13)
        full, full_info = tensor_integrate(
            lambda grid: expand(g.grid_integrand()(grid), grid.shape),
            mean, sigma, rtol=1e-13)
        want = g.total_integral()
        assert abs(value - want) <= 1e-13 * abs(want)
        assert abs(value - full) <= 1e-14 * abs(full)
        # the node count is the rule's, not the values the factors hold
        n = info["nodes_per_axis"]
        assert (full_info["nodes_per_axis"], full_info["nodes"]) == (
            n, info["nodes"])
        assert info["nodes"] == n ** g.dim
        assert sizes[-1] == sum(n ** len(b) for b in blocks)


def test_total_integral_matches_quadrature():
    rng = np.random.default_rng(31)
    for n in (1, 2, 3):
        A = rand_spd(rng, n)
        u = rng.normal(size=n) + 1j * rng.normal(size=n) * 0.3
        g = ComplexGaussian(A, u, 0.1 + 0.2j)
        assert abs(g.total_integral() - quad_oracle(g)) < 1e-8


def test_fourier_round_trip_value():
    # g^^(x) = (2 pi)^n g(-x) for our transform normalization
    rng = np.random.default_rng(32)
    n = 2
    A = rand_spd(rng, n)
    g = ComplexGaussian(A, rng.normal(size=n), 0.0)
    gg = g.fourier().fourier()
    for _ in range(5):
        x = rng.normal(size=n)
        lhs = gg.evaluate(x)
        rhs = (2 * np.pi) ** n * g.evaluate(-x)
        assert abs(lhs - rhs) < 1e-10 * abs(rhs)


def test_fourier_matches_quadrature_pointwise():
    rng = np.random.default_rng(33)
    n = 2
    A = rand_spd(rng, n)
    g = ComplexGaussian(A, rng.normal(size=n) * 0.5, 0.0)
    ghat = g.fourier()
    means, sig = g.envelope()
    for _ in range(3):
        xi = rng.normal(size=n)

        def integrand(grid):
            pts = points(grid)
            return np.real(gaussian_values(g, pts) * np.exp(-1j * pts @ xi))

        re, _ = tensor_integrate(integrand, means, sig, rtol=1e-10,
                                 max_evals=2 ** 22)

        def integrand_im(grid):
            pts = points(grid)
            return np.imag(gaussian_values(g, pts) * np.exp(-1j * pts @ xi))

        im, _ = tensor_integrate(integrand_im, means, sig, rtol=1e-10,
                                 max_evals=2 ** 22)
        closed = ghat.evaluate(xi)
        assert abs(closed - (re + 1j * im)) < 1e-8 * max(1.0, abs(closed))


def test_pullback_is_composition():
    rng = np.random.default_rng(34)
    n = 3
    g = ComplexGaussian(rand_spd(rng, n), rng.normal(size=n), 0.3)
    M = rng.normal(size=(n, n)) + 2 * np.eye(n)
    m0 = rng.normal(size=n)
    pulled = g.pullback(M, m0)
    for _ in range(5):
        y = rng.normal(size=n)
        lhs = pulled.evaluate(y)
        rhs = g.evaluate(M @ y + m0)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_marginalize_matches_axis_integral():
    rng = np.random.default_rng(35)
    A = rand_spd(rng, 2)
    g = ComplexGaussian(A, rng.normal(size=2), 0.0)
    marg = g.marginalize([1])
    for x0 in (-0.7, 0.0, 0.4):

        def slice_integrand(grid):
            ts = grid.axes[0]
            pts = np.column_stack([np.full(len(ts), x0), ts])
            return np.real(gaussian_values(g, pts))

        means, sig = g.envelope()
        val, _ = tensor_integrate(slice_integrand, [means[1]], [sig[1]],
                                  rtol=1e-11, max_evals=2 ** 20)
        closed = marg.evaluate([x0])
        assert abs(closed - val) < 1e-9 * max(1.0, abs(val))


def test_partial_fourier_equals_fourier_on_slice():
    # transforming every axis must agree with the full transform
    rng = np.random.default_rng(36)
    n = 2
    g = ComplexGaussian(rand_spd(rng, n), rng.normal(size=n), 0.1)
    xi = rng.normal(size=n)
    part = g.partial_fourier(list(range(n)), xi)
    full = g.fourier().evaluate(xi)
    assert part.A.shape == (0, 0)
    assert abs(part.total_integral() - full) < 1e-12 * abs(full)


def test_symmetry_validation():
    A = np.array([[1.0, 0.5], [0.4, 1.0]])
    with pytest.raises(ValueError):
        ComplexGaussian(A, np.zeros(2), 0.0)


@pytest.mark.parametrize("point", [[0.1, 0.2], [[0.1, 0.2, 0.3]],
                                   [[0.1, 0.2, 0.3]] * 2, 0.1])
def test_evaluate_refuses_anything_but_one_point(point):
    g = GaussianTestFunction.standard(3)
    with pytest.raises(ValueError, match="one point"):
        g.evaluate(point)


@pytest.mark.parametrize("A", [np.diag([1.0, -1.0, 2.0]),
                               np.diag([-1.0, -2.0, -3.0]),
                               np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0],
                                         [0.0, 0.0, 1.0]])],
                         ids=["indefinite", "negative", "coupled"])
def test_a_form_that_is_not_positive_definite_is_refused_on_every_call(A):
    # the cached sign is checked again on every call, so a second call
    # on the warm form is refused as the first was
    g = ComplexGaussian(A, np.array([0.1, 0.2j, -0.3]), 0.0)
    for _ in range(3):
        with pytest.raises(ValueError, match="not positive definite"):
            g.fourier()
        with pytest.raises(ValueError, match="not positive definite"):
            g.total_integral()
    # and so is each slice that shares a warm sub-form
    for _ in range(2):
        with pytest.raises(ValueError, match="not positive definite"):
            g.slice([2, 1, 0], [0.3, 0.0, 0.1]).fourier()


def test_an_even_negative_definite_form_is_refused():
    # det(-I) = 1 > 0: a sign check alone would pass it and integrate
    # exp(+|Y|^2 / 2) to 2 pi
    g = ComplexGaussian(-np.eye(2), np.zeros(2), 0.0)
    for _ in range(2):
        with pytest.raises(ValueError, match="not positive definite"):
            g.total_integral()
        with pytest.raises(ValueError, match="not positive definite"):
            g.fourier()
    # the block marginalized out is diag(-1, -1), of determinant 1
    g = ComplexGaussian(np.diag([1.0, -1.0, -1.0]), np.zeros(3), 0.0)
    with pytest.raises(ValueError, match="not positive definite"):
        g.marginalize([1, 2])
    with pytest.raises(ValueError, match="not positive definite"):
        g.partial_fourier([1, 2], [0.3, -0.2])


def test_each_index_tuple_gets_its_own_slice_form():
    rng = np.random.default_rng(39)
    A = rand_spd(rng, 4)
    g = ComplexGaussian(A, rng.normal(size=4), 0.2)
    for idx in ([0, 1], [2, 3], [3, 1], (0, 1)):
        got = [g.slice(idx, rng.normal(size=4)) for _ in range(2)]
        want = A[list(idx)][:, list(idx)]
        assert all(np.array_equal(h.A, (want + want.T) / 2) for h in got)
        # the points share one sub-form and its cache
        assert got[0].A is got[1].A and got[0]._form is got[1]._form
    assert g.slice([0, 1], np.zeros(4)).A is g.slice((0, 1), np.ones(4)).A
    assert g.slice([0, 1], np.zeros(4)).A is not g.slice([1, 0],
                                                        np.zeros(4)).A
    # a slice of the warm form, its transform and their envelopes are a
    # fresh copy's, bit for bit, at every point and for a complex u
    g.u = g.u + 1j * rng.normal(size=4)
    for _ in range(3):
        at = rng.normal(size=4)
        warm = g.slice([3, 1], at)
        fresh = ComplexGaussian(A, g.u, g.v).slice([3, 1], at)
        for a, b in ((warm, fresh), (warm.fourier(), fresh.fourier())):
            assert np.array_equal(a.A, b.A) and np.array_equal(a.u, b.u)
            assert a.v == b.v and a.total_integral() == b.total_integral()
            for p, q in zip(a.envelope(), b.envelope()):
                assert np.array_equal(p, q)


def test_gaussian_test_function_lift():
    rng = np.random.default_rng(38)
    Q = rand_spd(rng, 3)
    b = rng.normal(size=3)
    f = GaussianTestFunction(Q, b, amp=1.7)
    assert isinstance(f, ComplexGaussian)
    pts = rng.normal(size=(20, 3))
    expect = [1.7 * np.exp(-0.5 * (x - b) @ Q @ (x - b)) for x in pts]
    assert np.allclose(gaussian_values(f, pts), expect, rtol=1e-12, atol=0)


def test_standard_test_function():
    f = GaussianTestFunction.standard(4)
    assert np.isclose(f.evaluate(np.zeros(4)), 1.0)


def test_tensor_integrate_budget_error():
    with pytest.raises(RuntimeError):
        tensor_integrate(lambda grid: np.exp(np.sum(np.cos(7 * points(grid)),
                                                    axis=1)),
                         [0.0] * 4, [1.0] * 4, rtol=1e-14, max_evals=100)


def gaussian_moment(p, m, s):
    """integral of x^p exp(-(x - m)^2 / (2 s^2)) over the line."""
    return s * math.sqrt(2 * math.pi) * sum(
        math.comb(p, j) * m ** (p - j) * s ** j * prod(range(j - 1, 0, -2))
        for j in range(0, p + 1, 2))


def test_hermite_rule_is_exact_on_gaussian_moments_to_degree_2n_minus_1():
    # the 8-point envelope-matched rule: exact through degree 15, not 16
    m, s = -0.7, 1.3
    x, w = hermite_axis_rule(8, m, s)
    envelope = np.exp(-(x - m) ** 2 / (2 * s * s))
    for p in range(17):
        exact = gaussian_moment(p, m, s)
        err = abs(w @ (x ** p * envelope) - exact)
        if p < 16:
            assert err <= 1e-13 * abs(exact), p
        else:
            assert err > 1e-6 * abs(exact)


def test_tensor_integrate_is_exact_on_moments_of_an_anisotropic_envelope():
    # polynomial x Gaussian on a shifted, anisotropic 3-axis envelope:
    # with 8 nodes per axis the rule is exact to degree 15 on each axis,
    # so both levels give the exact value; a transposed axis, a weight
    # on the wrong node or a missing e^{t^2} does not
    means, sigmas = [1.0, -0.5, 2.0], [0.5, 1.5, 0.25]

    def term(x, p, m, s):
        return x ** p * np.exp(-(x - m) ** 2 / (2 * s * s))

    for powers in ((15, 0, 0), (0, 15, 0), (0, 0, 15), (15, 14, 13),
                   (3, 8, 11), (0, 1, 2)):
        def func(grid, powers=powers):
            return prod(term(x, p, m, s) for x, p, m, s in zip(
                np.meshgrid(*grid.axes, indexing="ij", sparse=True),
                powers, means, sigmas))

        value, info = tensor_integrate(func, means, sigmas, rtol=1e-12)
        exact = prod(gaussian_moment(p, m, s)
                     for p, m, s in zip(powers, means, sigmas))
        assert abs(value - exact) <= 1e-13 * abs(exact), powers
        assert info["nodes_per_axis"] == 16

    # flat values over points(grid) count the same as values shaped
    # like the grid
    powers, grids = (3, 8, 11), []

    def flat(grid):
        pts = points(grid)
        grids.append(pts)
        return prod(term(pts[:, k], p, m, s)
                    for k, (p, m, s) in enumerate(zip(powers, means, sigmas)))

    value, _ = tensor_integrate(flat, means, sigmas, rtol=1e-12)
    shaped, _ = tensor_integrate(lambda grid: func(grid, powers), means,
                                 sigmas, rtol=1e-12)
    assert abs(value - shaped) <= 1e-13 * abs(shaped)
    # C order: the last axis varies fastest, axis 0 slowest
    first = grids[0]
    assert first.shape == (8 ** 3, 3)
    assert np.all(first[:8, :2] == first[0, :2])
    assert np.all(np.diff(first[:8, 2]) > 0)
    assert np.all(first[:64, 0] == first[0, 0])
    assert first[64, 0] > first[0, 0]


def test_tensor_grid_counts_and_lays_out_its_nodes():
    axes = [np.array([1.0, 2.0]), np.array([10.0, 20.0, 30.0])]
    grid = TensorGrid(axes)
    assert len(grid) == 6 and grid.shape == (2, 3)
    assert points(grid).tolist() == [[1, 10], [1, 20], [1, 30],
                                      [2, 10], [2, 20], [2, 30]]
    empty = TensorGrid(())
    assert len(empty) == 1 and points(empty).shape == (1, 0)


def test_tensor_integrate_zero_dim():
    value, info = tensor_integrate(
        lambda pts: np.full(len(pts), 3.25), [], [], rtol=1e-8,
        max_evals=100)
    assert value == 3.25
    assert info["nodes"] == 0 and info["converged"]


def test_gauss_hermite_refuses_past_the_node_cap():
    t, w = gauss_hermite(MAX_HERMITE_NODES)
    assert len(t) == MAX_HERMITE_NODES and np.all(np.isfinite(w))
    assert abs(w @ np.exp(-t * t) - math.sqrt(math.pi)) < 1e-13
    with pytest.raises(RuntimeError, match="budget exhausted"):
        gauss_hermite(2 * MAX_HERMITE_NODES)
    # a tolerance below float noise never converges: the doubling
    # stops at the cap, not at max_evals
    with pytest.raises(RuntimeError,
                       match=f"budget exhausted.*cap {MAX_HERMITE_NODES}"):
        tensor_integrate(lambda grid: np.exp(-grid.axes[0] ** 2), [0.0], [1.0],
                         rtol=1e-300, max_evals=2 ** 30)
