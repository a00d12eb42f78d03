import math
from math import gamma

import numpy as np
import pytest
from scipy.special import roots_jacobi

from fracheat.meshes import SpatialGrid, TemporalMesh, graded_time_mesh, uniform_time_mesh
from fracheat.problems import manufactured_sin
from fracheat.quadrature import (
    _SOE_TOL,
    _exp_sum,
    _gauss_jacobi,
    forcing_convolution_profile,
    midpoint_convolution,
    weights_row,
)
from oracles import fractional_integral_monomial, fractional_integral_quad


def _meshes():
    return [
        uniform_time_mesh(1.0, 16),
        uniform_time_mesh(0.3, 9),
        graded_time_mesh(1.0, 16, 2.0),
        graded_time_mesh(2.0, 11, 3.5),
    ]


class TestWeights:
    def test_first_weight_frozen_value(self):
        # alpha = 1/2, tau = 1/10: a_1 = tau**0.5 / Gamma(1.5)
        row = weights_row(0.5, uniform_time_mesh(1.0, 10), 1)
        assert row.size == 1
        assert row[0] == pytest.approx(0.35682482323055424, rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 0.9])
    def test_positive(self, alpha):
        for mesh in _meshes():
            for n in (1, mesh.N // 2 + 1, mesh.N):
                assert np.all(weights_row(alpha, mesh, n) > 0.0)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 0.9])
    def test_telescoping_sum(self, alpha):
        # sum_k a_k = t_n**alpha / Gamma(1+alpha) exactly (up to rounding)
        for mesh in _meshes():
            for n in (1, mesh.N // 2 + 1, mesh.N):
                total = float(np.sum(weights_row(alpha, mesh, n)))
                expect = mesh.t[n] ** alpha / gamma(1.0 + alpha)
                assert total == pytest.approx(expect, rel=1e-12)

    def test_first_weight_bounded_by_total(self, alpha=0.5):
        for mesh in _meshes():
            row = weights_row(alpha, mesh, mesh.N)
            assert row[0] <= mesh.T**alpha / gamma(1.0 + alpha)

    def test_weight_rounding_to_zero_raises(self):
        # At t_2 = 1e300 the first step of 1e-300 weighs about
        # alpha 1e-450 / Gamma(1 + alpha), below the smallest double.
        mesh = TemporalMesh(t=np.array([0.0, 1e-300, 1e300]))
        assert weights_row(0.5, mesh, 1)[0] > 0.0
        with pytest.raises(ValueError, match="weight a_1 of level 2 is not positive"):
            weights_row(0.5, mesh, 2)
        # At t_2 = 1 that weight, alpha 1e-300 / Gamma(1 + alpha) to first
        # order, is representable: the two powers it is the difference of
        # both round to 1, but it keeps its digits.
        row = weights_row(0.5, TemporalMesh(t=np.array([0.0, 1e-300, 1.0])), 2)
        assert row[0] == pytest.approx(0.5e-300 / gamma(1.5), rel=1e-15)

    def test_row_is_read_only(self):
        row = weights_row(0.5, uniform_time_mesh(1.0, 4), 3)
        with pytest.raises(ValueError):
            row[0] = 1.0

    def test_rejects_bad_level_or_order(self):
        mesh = uniform_time_mesh(1.0, 4)
        with pytest.raises(ValueError):
            weights_row(0.5, mesh, 0)
        with pytest.raises(ValueError):
            weights_row(0.5, mesh, 5)
        with pytest.raises(ValueError):
            weights_row(1.0, mesh, 2)
        for n, stop in [(2, 2), (3, 2), (1, 6), (0, 3)]:
            with pytest.raises(ValueError):
                weights_row(0.5, mesh, n, stop)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_block_rows_are_the_single_rows(self, alpha):
        # Bit for bit, padded with zeros past each level.
        for mesh in _meshes():
            for n, stop in [(1, 2), (1, mesh.N + 1), (3, 7), (mesh.N, mesh.N + 1)]:
                block = weights_row(alpha, mesh, n, stop)
                assert block.shape == (stop - n, stop - 1)
                assert not block.flags.writeable
                for i, level in enumerate(range(n, stop)):
                    assert np.array_equal(block[i, :level], weights_row(alpha, mesh, level))
                    assert not block[i, level:].any()

    def test_block_names_the_first_bad_weight(self):
        # Steps of 1e-300 up to t_34, then t_35 = 1e300: from level 35 on,
        # every weight of those steps, about 1e-450, underflows to zero.
        t = np.concatenate((np.arange(35) * 1e-300, np.linspace(1e300, 2e300, 6)))
        mesh = TemporalMesh(t=t)
        assert weights_row(0.5, mesh, 1, 35).shape == (34, 34)
        with pytest.raises(ValueError, match="weight a_1 of level 35 is not positive"):
            weights_row(0.5, mesh, 33, 41)

    @pytest.mark.parametrize("alpha", [0.25, 0.75])
    def test_start_leaves_out_the_first_steps(self, alpha):
        # Bit for bit the last columns of the full rows.
        for mesh in _meshes():
            for n, stop, start in [(3, 7, 2), (3, 7, 0), (mesh.N, mesh.N + 1, mesh.N - 1)]:
                block = weights_row(alpha, mesh, n, stop, start)
                assert block.shape == (stop - n, stop - 1 - start)
                assert np.array_equal(block, weights_row(alpha, mesh, n, stop)[:, start:])
            row = weights_row(alpha, mesh, mesh.N, start=2)
            assert np.array_equal(row, weights_row(alpha, mesh, mesh.N)[2:])
        mesh = uniform_time_mesh(1.0, 4)
        for n, start in [(2, 2), (2, -1), (1, 1)]:
            with pytest.raises(ValueError, match="start must lie in"):
                weights_row(alpha, mesh, n, start=start)

    def test_start_checks_only_the_steps_it_keeps(self):
        # The mesh of ``test_block_names_the_first_bad_weight``: from level 35
        # on, the weights of steps 1..34 underflow to zero.
        t = np.concatenate((np.arange(35) * 1e-300, np.linspace(1e300, 2e300, 6)))
        mesh = TemporalMesh(t=t)
        with pytest.raises(ValueError, match="weight a_11 of level 35 is not positive"):
            weights_row(0.5, mesh, 33, 41, 10)
        # Row 40 - 35 holds a_35..a_40 of level 40.
        assert np.all(weights_row(0.5, mesh, 35, 41, 34)[-1] > 0.0)


# The exponents the solver fits: t**(alpha-1) for the transformed scheme
# and L1's t**(-alpha), beta = 1 - alpha and beta = alpha, both near 0 at
# the ends of (0, 1); then beta in (1, 2), the rest of ``_exp_sum``'s range.
_ORDERS = [1e-9, 1e-6, 1e-4, 1e-2, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.9999, 1.0 - 1e-9]
_FIT_BETAS = sorted({1.0 - a for a in _ORDERS} | set(_ORDERS) | {1.1, 1.5, 1.9})


class TestExpSum:
    @pytest.mark.parametrize("n", [8, 10])
    @pytest.mark.parametrize("b", [-0.9, -0.5, 0.0, 0.25, 0.9])
    def test_gauss_jacobi_matches_scipy(self, n, b):
        # scipy's rule is for (1 - x)**0 (1 + x)**b on [-1, 1], x = 2u - 1.
        u, w = _gauss_jacobi(n, b + 1.0)
        x, v = roots_jacobi(n, 0.0, b)
        np.testing.assert_allclose(2.0 * u - 1.0, x, rtol=0, atol=1e-15)
        np.testing.assert_allclose(2.0 ** (b + 1.0) * w, v, rtol=1e-12)
        assert not u.flags.writeable and not w.flags.writeable

    def test_unit_weight_is_gauss_legendre(self):
        # The panels' rule, against numpy's Gauss-Legendre on [-1, 1].
        u, w = _gauss_jacobi(10, 1.0)
        x, v = np.polynomial.legendre.leggauss(10)
        np.testing.assert_allclose(2.0 * u - 1.0, x, rtol=0, atol=1e-15)
        np.testing.assert_allclose(2.0 * w, v, rtol=1e-14)

    @pytest.mark.parametrize("ratio", [0.5, 1e-4, 1e-8])
    @pytest.mark.parametrize("beta", _FIT_BETAS)
    @pytest.mark.parametrize("T", [1.0, 2048.0])
    def test_fit_is_within_tolerance(self, beta, ratio, T):
        delta = ratio * T
        rates, weights = _exp_sum(beta, delta, T)
        assert len(rates) == 8 + 10 * math.ceil(math.log(37.0 / ratio))
        assert np.all(rates > 0.0) and np.all(weights > 0.0)
        t = np.geomspace(delta, T, 2001)
        fit = np.exp(-np.outer(t, rates)) @ weights
        assert np.max(np.abs(fit * t**beta - 1.0)) <= _SOE_TOL


class TestMidpointConvolution:
    def test_empty_integral(self):
        mesh = uniform_time_mesh(1.0, 4)
        assert midpoint_convolution(0.5, mesh, np.zeros(5), 0) == 0.0

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.9])
    def test_exact_on_constants(self, alpha):
        for mesh in _meshes():
            g = np.full(mesh.N + 1, 2.5)
            for n in (1, mesh.N):
                got = midpoint_convolution(alpha, mesh, g, n)
                expect = 2.5 * mesh.t[n] ** alpha / gamma(1.0 + alpha)
                assert got == pytest.approx(expect, rel=1e-12)

    def test_single_step_linear_frozen_value(self):
        # g(t) = t, one step to t = 1, alpha = 1/2: the rule gives
        # a_1 * (0 + 1)/2 = 1/(2 Gamma(3/2)) = 1/sqrt(pi).
        mesh = uniform_time_mesh(1.0, 1)
        got = midpoint_convolution(0.5, mesh, np.array([0.0, 1.0]), 1)
        assert got == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)
        assert got == pytest.approx(0.5641895835477563, rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_order_against_monomial_reference(self, alpha):
        # Exact value from the Beta identity; the observed order of the
        # endpoint-average rule tends to 1 + alpha from below, so it is
        # checked on an asymptotic ladder with a 0.1 margin.
        exact = fractional_integral_monomial(alpha, 2.0, 1.0)
        errs = []
        ladder = (512, 1024, 2048, 4096)
        for N in ladder:
            mesh = uniform_time_mesh(1.0, N)
            got = midpoint_convolution(alpha, mesh, mesh.t**2, N)
            errs.append(abs(got - exact))
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert all(o >= 1.0 + alpha - 0.1 for o in orders), orders

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("grading", [1.0, 2.0])
    def test_remainder_bound(self, alpha, grading):
        # |R| <= (tau_n + tau_max)/(2 alpha) * tau_n**alpha * max |g'|
        # for the convolution without the 1/Gamma(alpha) normalization.
        for N in (8, 32, 128):
            mesh = graded_time_mesh(1.0, N, grading)
            taus = mesh.steps
            g = mesh.t**2
            for n in (1, N // 2, N):
                exact = fractional_integral_monomial(alpha, 2.0, float(mesh.t[n]))
                got = midpoint_convolution(alpha, mesh, g, n)
                remainder = abs(got - exact) * gamma(alpha)
                tau_n = taus[n - 1]
                tau_max = taus[:n].max()
                gprime_max = 2.0 * mesh.t[n]
                bound = (tau_n + tau_max) / (2.0 * alpha) * tau_n**alpha * gprime_max
                assert remainder <= bound * (1.0 + 1e-12)

    def test_against_adaptive_quadrature(self):
        # Non-polynomial integrand, desingularized adaptive rule as oracle.
        alpha = 0.6
        mesh = uniform_time_mesh(1.0, 2048)
        g = np.sin(3.0 * mesh.t)
        got = midpoint_convolution(alpha, mesh, g, mesh.N)
        ref = fractional_integral_quad(lambda s: math.sin(3.0 * s), alpha, 1.0)
        assert got == pytest.approx(ref, abs=5e-5)

    def test_rejects_short_sample_arrays(self):
        mesh = uniform_time_mesh(1.0, 4)
        with pytest.raises(ValueError):
            midpoint_convolution(0.5, mesh, np.zeros(3), 4)


class TestForcingConvolution:
    def test_zero_forcing(self):
        mesh = uniform_time_mesh(1.0, 6)
        assert midpoint_convolution(0.5, mesh, np.zeros(mesh.N + 1), 6) == 0.0
        assert midpoint_convolution(0.5, mesh, np.ones(mesh.N + 1), 0) == 0.0

    def test_profile_matches_scalar_calls(self):
        problem = manufactured_sin(0.5)
        grid = SpatialGrid(8)
        mesh = uniform_time_mesh(1.0, 12)
        prof = forcing_convolution_profile(problem.f, grid, 0.5, mesh, 12)
        for i, x in enumerate(grid.x):
            g = np.array([problem.f(x, t) for t in mesh.t])
            scalar = midpoint_convolution(0.5, mesh, g, 12)
            assert prof[i] == pytest.approx(scalar, rel=1e-13, abs=1e-15)

    def test_quadrature_close_to_closed_form(self):
        # The manufactured problem knows its forcing integral in closed
        # form; the product-quadrature path reproduces it to the level the
        # remainder bound allows at N = 320 (measured 8.7e-4 in the max
        # norm over the whole lattice).
        alpha = 0.5
        problem = manufactured_sin(alpha)
        grid = SpatialGrid(100)
        mesh = uniform_time_mesh(1.0, 320)
        worst = 0.0
        for n in range(0, mesh.N + 1, 16):
            if n == 0:
                continue
            quad_prof = forcing_convolution_profile(problem.f, grid, alpha, mesh, n)
            closed = problem.exact_f_conv(grid.x, mesh.t[n])
            worst = max(worst, float(np.max(np.abs(quad_prof - closed))))
        assert worst <= 1e-3
