import dataclasses
import math

import numpy as np
import pytest

import fracheat.solver
from fracheat.harness import max_lattice_error
from fracheat.meshes import SpatialGrid, graded_time_mesh, uniform_time_mesh
from fracheat.operators import apply_compact, apply_second_diff, norm_energy
from fracheat.problems import get_problem, manufactured_sin, sine_decay, zero_problem
from fracheat.quadrature import weights_row
from fracheat.solver import SchemeKind, SolutionLattice, solve
from fracheat.special import gamma
from oracles import dense_compact_matrix, dense_second_diff_matrix, thomas_elementwise


def _dense_march(problem, M, mesh, scheme):
    """Both schemes level by level with dense matrices, in uncollapsed form.

    Transformed: (H - (a_n/2) D2) u^n = H phi + H q^n
        + sum_{k=1}^{n-1} a_k (D2 u^k + D2 u^{k-1}) / 2 + (a_n/2) D2 u^{n-1},
    with q^n closed form or sum_k a_k (f^k + f^{k-1}) / 2.
    L1: (mu H - D2) u^n = mu H (u^{n-1} - sum_{k=1}^{n-1} b_{n-k} (u^k - u^{k-1}))
        + H f^n.
    Boundary rows are replaced by the identity with zero right-hand side.
    """
    alpha, t = problem.alpha, mesh.t
    x = np.linspace(0.0, 1.0, M + 1)
    H = dense_compact_matrix(M)
    D2 = dense_second_diff_matrix(M, 1.0 / M)
    u = [np.asarray(problem.phi(x), dtype=float)]
    for n in range(1, mesh.N + 1):
        if scheme is SchemeKind.TRANSFORMED:
            a = [0.0] + [
                ((t[n] - t[k - 1]) ** alpha - (t[n] - t[k]) ** alpha) / math.gamma(1.0 + alpha)
                for k in range(1, n + 1)
            ]
            if problem.exact_f_conv is not None:
                q = problem.exact_f_conv(x, t[n])
            else:
                q = sum(a[k] * (problem.f(x, t[k]) + problem.f(x, t[k - 1])) / 2.0
                        for k in range(1, n + 1))
            A = H - 0.5 * a[n] * D2
            rhs = H @ u[0] + H @ q + 0.5 * a[n] * (D2 @ u[n - 1])
            for k in range(1, n):
                rhs += a[k] * (D2 @ u[k] + D2 @ u[k - 1]) / 2.0
        else:
            tau = t[1] - t[0]
            mu = 1.0 / (math.gamma(2.0 - alpha) * tau**alpha)
            b = [(j + 1.0) ** (1.0 - alpha) - j ** (1.0 - alpha) for j in range(n)]
            combo = u[n - 1] - sum(b[n - k] * (u[k] - u[k - 1]) for k in range(1, n))
            A = mu * H - D2
            rhs = mu * (H @ combo) + H @ problem.f(x, t[n])
        for row in (0, M):
            A[row] = 0.0
            A[row, row] = 1.0
            rhs[row] = 0.0
        u.append(np.linalg.solve(A, rhs))
    return np.array(u)


def _elementwise_march(problem, grid, mesh, scheme):
    """The march with its level matrix assembled and solved afresh per level.

    Same right-hand sides as ``solve``, but every level builds its bands
    and runs the interleaved element-wise Thomas loop, so ``solve`` must
    match it bit for bit however it reuses factorizations.
    """
    alpha, x, h, M = problem.alpha, grid.x, grid.h, grid.M
    u = np.empty((mesh.N + 1, M + 1))
    u[0] = problem.phi(x)
    f_samples = [problem.f(x, mesh.t[0])]
    for n in range(1, mesh.N + 1):
        t_n = mesh.t[n]
        if scheme is SchemeKind.L1:
            p, r = 1.0 / (gamma(2.0 - alpha) * (mesh.T / mesh.N) ** alpha), 1.0
            j = np.arange(mesh.N, dtype=float)
            b = (j + 1.0) ** (1.0 - alpha) - j ** (1.0 - alpha)
            combo = b[n - 1] * u[0]
            if n > 1:
                combo = combo + (b[n - 2 :: -1] - b[n - 1 : 0 : -1]) @ u[1:n]
            forcing, history = problem.f(x, t_n), 0.0
        else:
            a = weights_row(alpha, mesh, n)
            p, r, combo = 1.0, 0.5 * a[-1], u[0]
            if problem.exact_f_conv is not None:
                forcing = problem.exact_f_conv(x, t_n)
            else:
                f_samples.append(problem.f(x, t_n))
                f = np.array(f_samples)
                forcing = a @ (f[1:] + f[:-1]) / 2.0
            w = 0.5 * a
            w[1:] += 0.5 * a[:-1]
            history = apply_second_diff(w @ u[:n], h)
        rhs = p * apply_compact(combo) + apply_compact(forcing) + history
        rhs[0] = rhs[-1] = 0.0
        q = r / (h * h)
        lower = np.full(M, p / 12.0 - q)
        upper = lower.copy()
        diag = np.full(M + 1, 10.0 * p / 12.0 + 2.0 * q)
        diag[0] = diag[-1] = 1.0
        upper[0] = lower[-1] = 0.0
        u[n] = thomas_elementwise(lower, diag, upper, rhs)
    return u


class TestBothSchemes:
    @pytest.mark.parametrize("scheme", list(SchemeKind))
    def test_zero_problem_stays_zero(self, scheme):
        lattice = solve(
            zero_problem(0.5), SpatialGrid(16), uniform_time_mesh(1.0, 8), scheme
        )
        np.testing.assert_array_equal(lattice.values, np.zeros((9, 17)))

    @pytest.mark.parametrize("scheme", list(SchemeKind))
    def test_initial_row_is_sampled_phi(self, scheme):
        p = sine_decay(0.5, T=0.01)
        grid = SpatialGrid(32)
        lattice = solve(p, grid, uniform_time_mesh(0.01, 4), scheme)
        np.testing.assert_array_equal(lattice.values[0], p.phi(grid.x))

    @pytest.mark.parametrize("scheme", list(SchemeKind))
    def test_boundary_pinned_to_zero(self, scheme):
        p = manufactured_sin(0.5)
        lattice = solve(p, SpatialGrid(16), uniform_time_mesh(1.0, 8), scheme)
        assert np.all(lattice.values[1:, 0] == 0.0)
        assert np.all(lattice.values[1:, -1] == 0.0)

    @pytest.mark.parametrize("scheme", list(SchemeKind))
    def test_deterministic(self, scheme):
        p = manufactured_sin(0.75)
        grid, mesh = SpatialGrid(32), uniform_time_mesh(1.0, 16)
        a = solve(p, grid, mesh, scheme)
        b = solve(p, grid, mesh, scheme)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize(
        "scheme, alpha, grading, closed_form",
        [
            (SchemeKind.TRANSFORMED, 0.5, 1.0, True),
            (SchemeKind.TRANSFORMED, 0.3, 2.0, True),
            (SchemeKind.TRANSFORMED, 0.7, 2.0, False),
            (SchemeKind.L1, 0.5, 1.0, True),
        ],
    )
    def test_march_matches_dense_oracle(self, scheme, alpha, grading, closed_form):
        p = manufactured_sin(alpha)
        if not closed_form:
            p = dataclasses.replace(p, exact_f_conv=None)
        M, mesh = 8, graded_time_mesh(1.0, 6, grading)
        got = solve(p, SpatialGrid(M), mesh, scheme).values
        np.testing.assert_allclose(got, _dense_march(p, M, mesh, scheme), rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize(
        "scheme, grading, alpha",
        [(SchemeKind.L1, 1.0, 0.25), (SchemeKind.TRANSFORMED, 2.0, 0.75)],
    )
    def test_march_bitwise_matches_elementwise_oracle(self, scheme, grading, alpha):
        p = dataclasses.replace(manufactured_sin(alpha), exact_f_conv=None)
        grid, mesh = SpatialGrid(64), graded_time_mesh(1.0, 40, grading)
        got = solve(p, grid, mesh, scheme).values
        assert np.array_equal(got, _elementwise_march(p, grid, mesh, scheme))

    @pytest.mark.parametrize(
        "scheme, N, grading, factorizations",
        [
            (SchemeKind.L1, 24, 1.0, 1),
            # Uniform meshes share one kernel row, so one matrix, whether
            # or not their steps are bitwise equal (1/32 is; 1/40 is not).
            (SchemeKind.TRANSFORMED, 32, 1.0, 1),
            (SchemeKind.TRANSFORMED, 40, 1.0, 1),
            (SchemeKind.TRANSFORMED, 640, 1.0, 1),
            (SchemeKind.TRANSFORMED, 24, 2.0, 24),
        ],
    )
    def test_factors_once_per_distinct_level_matrix(
        self, monkeypatch, scheme, N, grading, factorizations
    ):
        calls = []
        factor = fracheat.solver.factor_tridiagonal

        def counted(*bands):
            calls.append(bands)
            return factor(*bands)

        monkeypatch.setattr(fracheat.solver, "factor_tridiagonal", counted)
        solve(manufactured_sin(0.5), SpatialGrid(16), graded_time_mesh(1.0, N, grading), scheme)
        assert len(calls) == factorizations

    @pytest.mark.parametrize("N", [13, 27])
    @pytest.mark.parametrize(
        "scheme, problem, closed_form",
        [
            (SchemeKind.TRANSFORMED, "sine-decay", True),
            (SchemeKind.TRANSFORMED, "forced-sine", True),
            (SchemeKind.TRANSFORMED, "forced-sine", False),
            (SchemeKind.L1, "sine-decay", True),
            (SchemeKind.L1, "forced-sine", True),
        ],
    )
    def test_toeplitz_march_matches_dense_oracle(
        self, monkeypatch, scheme, problem, closed_form, N
    ):
        # Blocks of 4 levels and one-column FFT chunks, so uniform solves at
        # small odd N run merges of 4, 8 and 16 levels, some cut off by N.
        monkeypatch.setattr(fracheat.solver, "_LEAF", 4)
        monkeypatch.setattr(fracheat.solver, "_MERGE_BYTES", 1)
        alpha = 0.6
        p = sine_decay(alpha)
        if problem == "forced-sine":
            p = dataclasses.replace(manufactured_sin(alpha), phi=p.phi, exact_u=None)
        if not closed_form:
            p = dataclasses.replace(p, exact_f_conv=None)
        M, mesh = 8, uniform_time_mesh(1.0, N)
        got = solve(p, SpatialGrid(M), mesh, scheme).values
        np.testing.assert_allclose(got, _dense_march(p, M, mesh, scheme), rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize(
        "grading, closed_form, rows",
        [(1.0, True, 1), (1.0, False, 1), (2.0, True, 40), (2.0, False, 40)],
    )
    def test_kernel_rows_and_forcing_samples_per_solve(
        self, monkeypatch, grading, closed_form, rows
    ):
        row_calls, f_calls = [], []
        row = fracheat.solver.weights_row
        base = manufactured_sin(0.5)

        def counted_row(*args):
            row_calls.append(args)
            return row(*args)

        def counted_f(x, t):
            f_calls.append(t)
            return base.f(x, t)

        monkeypatch.setattr(fracheat.solver, "weights_row", counted_row)
        p = dataclasses.replace(base, f=counted_f)
        if not closed_form:
            p = dataclasses.replace(p, exact_f_conv=None)
        solve(p, SpatialGrid(8), graded_time_mesh(1.0, 40, grading))
        assert len(row_calls) == rows
        assert len(f_calls) == (0 if closed_form else 40 + 1)

    @pytest.mark.parametrize("scheme", list(SchemeKind))
    @pytest.mark.parametrize("closed_form", [True, False])
    def test_non_finite_forcing_names_the_first_bad_level(self, scheme, closed_form):
        base = manufactured_sin(0.5)
        mesh = uniform_time_mesh(1.0, 8)
        t_bad = mesh.t[3]

        def poisoned(fn):
            return lambda x, t: fn(x, t) + (np.nan if t >= t_bad else 0.0)

        p = dataclasses.replace(base, f=poisoned(base.f))
        if closed_form:
            p = dataclasses.replace(p, exact_f_conv=poisoned(base.exact_f_conv))
        else:
            p = dataclasses.replace(p, exact_f_conv=None)
        with pytest.raises(ValueError, match=r"level 3 \(t = 0.375\) is not finite.*forcing"):
            solve(p, SpatialGrid(8), mesh, scheme)

    def test_non_finite_initial_data_is_level_zero(self):
        base = sine_decay(0.5)
        p = dataclasses.replace(
            base, exact_u=None, phi=lambda x: np.where(x == 0.5, np.nan, base.phi(x))
        )
        with pytest.raises(ValueError, match=r"level 0 \(t = 0\).*initial data"):
            solve(p, SpatialGrid(8), uniform_time_mesh(1.0, 4))

class TestTransformedScheme:
    def test_reference_error_level(self):
        # alpha = 0.25, M = 100, N = 10 has a known max-lattice error of
        # 3.6050e-2; require agreement within 2 percent.
        p = manufactured_sin(0.25)
        lattice = solve(p, SpatialGrid(100), uniform_time_mesh(1.0, 10))
        err = max_lattice_error(lattice, p.exact_u)
        assert err == pytest.approx(3.6050e-2, rel=0.02)

    def test_graded_mesh_supported(self):
        p = manufactured_sin(0.5)
        lattice = solve(p, SpatialGrid(64), graded_time_mesh(1.0, 64, 2.0))
        err = max_lattice_error(lattice, p.exact_u)
        assert 0.0 < err < 0.05

    def test_quadrature_fallback_close_to_closed_form_path(self):
        # Dropping the closed-form forcing integral forces the product
        # quadrature path; the two solutions agree to well under the
        # temporal discretization error at this resolution.
        alpha = 0.5
        p = manufactured_sin(alpha)
        p_quad = dataclasses.replace(p, exact_f_conv=None)
        grid, mesh = SpatialGrid(100), uniform_time_mesh(1.0, 320)
        u_closed = solve(p, grid, mesh)
        u_quad = solve(p_quad, grid, mesh)
        gap = float(np.max(np.abs(u_closed.values - u_quad.values)))
        assert gap <= 5e-4

    def test_quadrature_fallback_samples_f_once_per_level(self):
        base = manufactured_sin(0.5)
        calls = []

        def f(x, t):
            calls.append(t)
            return base.f(x, t)

        p = dataclasses.replace(base, f=f, exact_f_conv=None)
        solve(p, SpatialGrid(8), graded_time_mesh(1.0, 16, 2.0))
        assert len(calls) == 16 + 1

    def test_energy_stability_without_forcing(self):
        # With f = 0 the energy norm of every level stays below the
        # initial level's.
        p = sine_decay(0.5, T=1.0)
        grid = SpatialGrid(64)
        lattice = solve(p, grid, uniform_time_mesh(1.0, 40))
        e0 = norm_energy(lattice.values[0], grid.h)
        for n in range(1, 41):
            assert norm_energy(lattice.values[n], grid.h) <= e0 * (1.0 + 1e-12)

    def test_final_time_amplitude_against_series(self):
        # Short-horizon first-mode decay, checked against the separated
        # series solution.  On a uniform mesh the whole-lattice error is
        # dominated by the first step, where the solution's derivative
        # behaves like t**(alpha-1); the final row is far more accurate.
        p = sine_decay(0.5, T=0.01)
        grid = SpatialGrid(64)
        lattice = solve(p, grid, uniform_time_mesh(0.01, 256))
        final_err = float(
            np.max(np.abs(lattice.values[-1] - p.exact_u(grid.x, 0.01)))
        )
        assert final_err <= 2e-5

    def test_graded_mesh_controls_initial_layer(self):
        # Clustering steps near t = 0 shrinks the whole-lattice error of
        # the previous test's setup by roughly two orders of magnitude.
        p = sine_decay(0.5, T=0.01)
        grid = SpatialGrid(64)
        uniform = solve(p, grid, uniform_time_mesh(0.01, 256))
        graded = solve(p, grid, graded_time_mesh(0.01, 256, 2.0))
        err_uniform = max_lattice_error(uniform, p.exact_u)
        err_graded = max_lattice_error(graded, p.exact_u)
        assert err_graded <= 1e-4
        assert err_graded < err_uniform / 10.0


class TestL1Scheme:
    def test_rejects_graded_mesh(self):
        p = manufactured_sin(0.5)
        with pytest.raises(ValueError, match="uniform"):
            solve(p, SpatialGrid(8), graded_time_mesh(1.0, 8, 2.0), SchemeKind.L1)

    def test_converges_on_reference_problem(self):
        p = manufactured_sin(0.5)
        grid = SpatialGrid(100)
        errs = [
            max_lattice_error(
                solve(p, grid, uniform_time_mesh(1.0, N), SchemeKind.L1), p.exact_u
            )
            for N in (20, 40, 80)
        ]
        assert errs[0] > errs[1] > errs[2]
        # L1 converges at order 2 - alpha = 1.5 on this problem
        order = math.log2(errs[1] / errs[2])
        assert order == pytest.approx(1.5, abs=0.15)


class TestHistoryValidation:
    def test_lattice_shape_checked(self):
        with pytest.raises(ValueError):
            SolutionLattice(
                values=np.zeros((3, 5)),
                grid=SpatialGrid(8),
                mesh=uniform_time_mesh(1.0, 4),
            )

    def test_lattice_boundary_pinning_checked(self):
        values = np.zeros((5, 9))
        values[2, -1] = 1e-3
        with pytest.raises(ValueError, match="boundary pinning"):
            SolutionLattice(values=values, grid=SpatialGrid(8), mesh=uniform_time_mesh(1.0, 4))
