import dataclasses
import math
from math import gamma
import tracemalloc

import numpy as np
import pytest

import fracheat.solver
from fracheat.harness import max_lattice_error
from fracheat.meshes import SpatialGrid, graded_time_mesh, uniform_time_mesh
from fracheat.operators import norm_energy
from fracheat.problems import ProblemSpec, manufactured_sin, sine_decay, zero_problem
from fracheat.quadrature import weights_row
from fracheat.solver import (
    SchemeKind,
    SolutionLattice,
    _denominators,
    _is_uniform,
    _leaf_inverse,
    _sine,
    solve,
)
from oracles import dense_compact_matrix, dense_second_diff_matrix


def _use_small_blocks(monkeypatch):
    """At M = 8: windows of 4 levels, so that the rows older than that reach
    a level through the sum-of-exponentials states, and forcing blocks of 3
    rows (1 for the last of N = 40)."""
    monkeypatch.setattr(fracheat.solver, "_WINDOW", 4)
    monkeypatch.setattr(fracheat.solver, "_CHUNK_BYTES", 3 * 64 * 8)


def _dense_march(problem, M, mesh, scheme):
    """Both schemes level by level with dense matrices, in uncollapsed form.

    Transformed: (H - (a_n/2) D2) u^n = H phi + H q^n
        + sum_{k=1}^{n-1} a_k (D2 u^k + D2 u^{k-1}) / 2 + (a_n/2) D2 u^{n-1},
    with q^n closed form or sum_k a_k (f^k + f^{k-1}) / 2.
    L1, in the nonuniform form of Stynes, O'Riordan & Gracia:
    (d_n H - D2) u^n = H (d_n u^{n-1} - sum_{k=1}^{n-1} d_k (u^k - u^{k-1})) + H f^n,
    with d_k = ((t_n - t_{k-1})**(1-alpha) - (t_n - t_k)**(1-alpha))
    / (Gamma(2 - alpha) (t_k - t_{k-1})), which is lambda b_{n-k} on a
    uniform mesh.
    Boundary values are pinned to zero, so only the interior block is solved.
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
            d = [0.0] + [
                ((t[n] - t[k - 1]) ** (1.0 - alpha) - (t[n] - t[k]) ** (1.0 - alpha))
                / (math.gamma(2.0 - alpha) * (t[k] - t[k - 1]))
                for k in range(1, n + 1)
            ]
            combo = d[n] * u[n - 1] - sum(d[k] * (u[k] - u[k - 1]) for k in range(1, n))
            A = d[n] * H - D2
            rhs = H @ combo + H @ problem.f(x, t[n])
        u.append(np.zeros(M + 1))
        u[n][1:-1] = np.linalg.solve(A[1:-1, 1:-1], rhs[1:-1])
    return np.array(u)


def _oracle_problem(problem, closed_form, alpha=0.6):
    """``sine_decay``, ``manufactured_sin``'s forcing with phi = sin(pi x),
    ``_boundary_forced``, or its forcing with phi = sin(pi x), so that phi
    and f(., 0) are both nonzero; without its closed-form forcing integral
    if ``closed_form`` is false."""
    p = sine_decay(alpha)
    if problem == "forced-sine":
        p = dataclasses.replace(manufactured_sin(alpha), phi=p.phi, exact_u=None)
    elif problem == "boundary-forced":
        p = _boundary_forced(alpha)
    elif problem == "boundary-forced-sine":
        p = dataclasses.replace(_boundary_forced(alpha), phi=p.phi)
    return p if closed_form else dataclasses.replace(p, exact_f_conv=None)


def _boundary_forced(alpha):
    """phi = 0 and f = 1 + t, which is nonzero at both ends of the interval.

    I^alpha[1 + t] = t**alpha / Gamma(1 + alpha) + t**(1 + alpha) / Gamma(2 + alpha),
    which broadcasts over x and a column of t like every closed form.
    """

    def f(x, t):
        return np.full_like(x, 1.0 + t)

    def f_conv(x, t):
        conv = t**alpha / math.gamma(1.0 + alpha) + t ** (1.0 + alpha) / math.gamma(2.0 + alpha)
        return np.zeros_like(x) + conv

    return ProblemSpec(
        alpha=alpha, phi=np.zeros_like, f=f, exact_f_conv=f_conv
    )


class TestBothSchemes:
    @pytest.mark.parametrize("scheme", list(SchemeKind))
    def test_zero_problem_stays_zero(self, scheme):
        lattice = solve(
            zero_problem(0.5), SpatialGrid(16), uniform_time_mesh(1.0, 8), scheme
        )
        np.testing.assert_array_equal(lattice.values, np.zeros((9, 17)))

    @pytest.mark.parametrize("scheme", list(SchemeKind))
    def test_initial_row_is_sampled_phi(self, scheme):
        p = sine_decay(0.5)
        grid = SpatialGrid(32)
        lattice = solve(p, grid, uniform_time_mesh(0.01, 4), scheme)
        np.testing.assert_array_equal(lattice.values[0], p.phi(grid.x))

    @pytest.mark.parametrize("scheme", list(SchemeKind))
    def test_boundary_pinned_to_zero(self, scheme):
        p = manufactured_sin(0.5)
        lattice = solve(p, SpatialGrid(16), uniform_time_mesh(1.0, 8), scheme)
        assert np.all(lattice.values[1:, 0] == 0.0)
        assert np.all(lattice.values[1:, -1] == 0.0)

    @pytest.mark.parametrize("T", [0.25, 2.0])
    @pytest.mark.parametrize("scheme", list(SchemeKind))
    def test_final_time_is_the_mesh_s(self, scheme, T):
        # The problem carries no final time: the last row must approximate
        # u(x, T) at the T of the mesh it was solved on.
        p = manufactured_sin(0.5)
        grid = SpatialGrid(32)
        lattice = solve(p, grid, uniform_time_mesh(T, 64), scheme)
        assert lattice.mesh.T == T
        exact = p.exact_u(grid.x, T)
        err = np.max(np.abs(lattice.values[-1] - exact)) / np.max(np.abs(exact))
        assert err < 2e-3

    @pytest.mark.parametrize("scheme", list(SchemeKind))
    def test_deterministic(self, scheme):
        p = manufactured_sin(0.75)
        grid, mesh = SpatialGrid(32), uniform_time_mesh(1.0, 16)
        a = solve(p, grid, mesh, scheme)
        b = solve(p, grid, mesh, scheme)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize(
        "scheme, boundary_forced, alpha, grading, closed_form, M, N",
        [
            (SchemeKind.TRANSFORMED, False, 0.5, 1.0, True, 8, 6),
            (SchemeKind.TRANSFORMED, False, 0.3, 2.0, True, 8, 6),
            (SchemeKind.TRANSFORMED, False, 0.7, 2.0, False, 8, 6),
            (SchemeKind.L1, False, 0.5, 1.0, True, 8, 6),
            (SchemeKind.L1, False, 0.25, 1.0, False, 64, 40),
            (SchemeKind.TRANSFORMED, False, 0.75, 2.0, False, 64, 40),
            (SchemeKind.TRANSFORMED, True, 0.5, 1.0, True, 8, 6),
            (SchemeKind.TRANSFORMED, True, 0.5, 1.0, False, 8, 6),
            (SchemeKind.TRANSFORMED, True, 0.5, 2.0, True, 8, 6),
            (SchemeKind.TRANSFORMED, True, 0.5, 2.0, False, 8, 6),
            (SchemeKind.L1, True, 0.5, 1.0, True, 8, 6),
            (SchemeKind.L1, False, 0.5, 2.0, True, 8, 6),
            (SchemeKind.L1, False, 0.25, 3.0, True, 64, 40),
            (SchemeKind.L1, True, 0.75, 2.0, True, 8, 6),
        ],
    )
    def test_march_matches_dense_oracle(
        self, scheme, boundary_forced, alpha, grading, closed_form, M, N
    ):
        p = _boundary_forced(alpha) if boundary_forced else manufactured_sin(alpha)
        if not closed_form:
            p = dataclasses.replace(p, exact_f_conv=None)
        mesh = graded_time_mesh(1.0, N, grading)
        got = solve(p, SpatialGrid(M), mesh, scheme).values
        np.testing.assert_allclose(got, _dense_march(p, M, mesh, scheme), rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("block", [2, 3, 32])
    @pytest.mark.parametrize("N", [13, 27])
    @pytest.mark.parametrize(
        "scheme, problem, closed_form",
        [
            (SchemeKind.TRANSFORMED, "sine-decay", True),
            (SchemeKind.TRANSFORMED, "forced-sine", True),
            (SchemeKind.TRANSFORMED, "forced-sine", False),
            (SchemeKind.TRANSFORMED, "boundary-forced", True),
            (SchemeKind.TRANSFORMED, "boundary-forced", False),
            (SchemeKind.TRANSFORMED, "boundary-forced-sine", True),
            (SchemeKind.TRANSFORMED, "boundary-forced-sine", False),
            (SchemeKind.L1, "sine-decay", True),
            (SchemeKind.L1, "forced-sine", True),
            (SchemeKind.L1, "boundary-forced", True),
        ],
    )
    def test_toeplitz_march_matches_dense_oracle(
        self, monkeypatch, scheme, problem, closed_form, N, block
    ):
        # Windows of 4 levels and forcing blocks of one row, so rows more
        # than 4 levels before a block reach it through the states, which
        # absorb 2 or 3 rows per block.  The last block is cut off by N; one
        # of 32 holds the whole march and builds no states.  No leaf inverse
        # fits in one byte, so each block is solved level by level.
        monkeypatch.setattr(fracheat.solver, "_WINDOW", 4)
        monkeypatch.setattr(fracheat.solver, "_BLOCK", block)
        monkeypatch.setattr(fracheat.solver, "_CHUNK_BYTES", 1)
        p = _oracle_problem(problem, closed_form)
        M, mesh = 8, uniform_time_mesh(1.0, N)
        got = solve(p, SpatialGrid(M), mesh, scheme).values
        np.testing.assert_allclose(got, _dense_march(p, M, mesh, scheme), rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("block, leaf", [(3, 1), (3, 2), (7, 3), (32, 16)])
    @pytest.mark.parametrize("N", [13, 27])
    @pytest.mark.parametrize(
        "scheme, problem, closed_form",
        [
            (SchemeKind.TRANSFORMED, "forced-sine", True),
            (SchemeKind.TRANSFORMED, "boundary-forced-sine", True),
            (SchemeKind.TRANSFORMED, "boundary-forced-sine", False),
            (SchemeKind.L1, "forced-sine", True),
            (SchemeKind.L1, "boundary-forced", True),
        ],
    )
    def test_leaf_march_matches_dense_oracle(
        self, monkeypatch, scheme, problem, closed_form, N, block, leaf
    ):
        # Windows of 4 levels, so the states hold the older rows, and
        # blocks solved a leaf at a time: one leaf of 1 level per level,
        # leaves of 2 or 3 that the block or N cuts short, and the default
        # sizes, whose one block holds the whole march.
        monkeypatch.setattr(fracheat.solver, "_WINDOW", 4)
        monkeypatch.setattr(fracheat.solver, "_BLOCK", block)
        monkeypatch.setattr(fracheat.solver, "_LEAF", leaf)
        sizes = []
        inverse = fracheat.solver._leaf_inverse

        def recorded(lag, f, size):
            sizes.append(size)
            return inverse(lag, f, size)

        monkeypatch.setattr(fracheat.solver, "_leaf_inverse", recorded)
        p = _oracle_problem(problem, closed_form)
        M, mesh = 8, uniform_time_mesh(1.0, N)
        got = solve(p, SpatialGrid(M), mesh, scheme).values
        assert sizes == [min(leaf, block, N)]
        np.testing.assert_allclose(got, _dense_march(p, M, mesh, scheme), rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("block", [1, 3, 5, 32])
    @pytest.mark.parametrize("N", [13, 27])
    @pytest.mark.parametrize(
        "scheme, grading, problem, closed_form",
        [
            (SchemeKind.TRANSFORMED, 2.0, "sine-decay", True),
            (SchemeKind.TRANSFORMED, 2.0, "forced-sine", True),
            (SchemeKind.TRANSFORMED, 2.0, "forced-sine", False),
            (SchemeKind.TRANSFORMED, 2.0, "boundary-forced", True),
            (SchemeKind.TRANSFORMED, 2.0, "boundary-forced", False),
            (SchemeKind.TRANSFORMED, 2.0, "boundary-forced-sine", True),
            (SchemeKind.TRANSFORMED, 2.0, "boundary-forced-sine", False),
            (SchemeKind.L1, 2.0, "sine-decay", True),
            (SchemeKind.L1, 2.0, "forced-sine", True),
            (SchemeKind.L1, 2.0, "boundary-forced-sine", True),
            (SchemeKind.L1, 3.0, "sine-decay", True),
            (SchemeKind.L1, 3.0, "forced-sine", True),
            (SchemeKind.L1, 3.0, "boundary-forced-sine", True),
        ],
    )
    def test_graded_block_march_matches_dense_oracle(
        self, monkeypatch, scheme, grading, problem, closed_form, N, block
    ):
        # Windows of 4 levels, so the steps before them reach a block
        # through the states.  Blocks of 1, 3 and 5 levels (5 is wider than
        # the window), the last cut off by N, and one of 32 that holds the
        # whole march; forcing blocks of one row.
        monkeypatch.setattr(fracheat.solver, "_WINDOW", 4)
        monkeypatch.setattr(fracheat.solver, "_BLOCK", block)
        monkeypatch.setattr(fracheat.solver, "_CHUNK_BYTES", 1)
        p = _oracle_problem(problem, closed_form)
        M, mesh = 8, graded_time_mesh(1.0, N, grading)
        got = solve(p, SpatialGrid(M), mesh, scheme).values
        np.testing.assert_allclose(got, _dense_march(p, M, mesh, scheme), rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize(
        "grading, closed_form, rows",
        # Graded: one call per block of levels, [1, 33) and [33, 41).
        [(1.0, True, 1), (1.0, False, 1), (2.0, True, 2), (2.0, False, 2)],
    )
    @pytest.mark.parametrize("scheme", list(SchemeKind))
    def test_kernel_rows_and_forcing_samples_per_solve(
        self, monkeypatch, scheme, grading, closed_form, rows
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
        solve(p, SpatialGrid(8), graded_time_mesh(1.0, 40, grading), scheme)
        assert len(row_calls) == rows
        # f from t_0 with quadrature forcing, from t_1 for L1.
        l1 = scheme is SchemeKind.L1
        assert len(f_calls) == (40 if l1 else 0 if closed_form else 40 + 1)
        if grading == 1.0:
            # A uniform mesh computes its block weights once: a solve of
            # 4,000 levels, with states, makes no more calls than one of 40.
            del row_calls[:]
            solve(p, SpatialGrid(8), uniform_time_mesh(1.0, 4000), scheme)
            assert len(row_calls) == rows

    @pytest.mark.parametrize("closed_form", [True, False])
    def test_graded_kernel_weights_stay_within_the_window(self, monkeypatch, closed_form):
        # No quadratic path: each block of levels gets the exact weights of
        # the window before it and of its own levels, never all of history.
        widths = []
        row = fracheat.solver.weights_row

        def recorded_row(*args):
            block = row(*args)
            widths.append(block.shape[-1])
            return block

        monkeypatch.setattr(fracheat.solver, "weights_row", recorded_row)
        p = manufactured_sin(0.5)
        if not closed_form:
            p = dataclasses.replace(p, exact_f_conv=None)
        solve(p, SpatialGrid(8), graded_time_mesh(1.0, 2000, 2.0))
        assert len(widths) == math.ceil(2000 / fracheat.solver._BLOCK)
        assert max(widths) <= fracheat.solver._WINDOW + fracheat.solver._BLOCK + 1

    @pytest.mark.parametrize(
        "grading, scheme",
        [
            (1.0, SchemeKind.TRANSFORMED),
            (1.0, SchemeKind.L1),
            (2.0, SchemeKind.TRANSFORMED),
            (2.0, SchemeKind.L1),
        ],
    )
    @pytest.mark.parametrize("closed_form", [True, False])
    @pytest.mark.parametrize(
        "N, bad, window, block",
        [
            # Level 3 is inside the one block [1, 9).
            (8, 3, None, None),
            # Level 14 is inside the block [1, 33) and the fifth forcing
            # block; the states absorb it and the rows up to 28 after that.
            (40, 14, 4, None),
            # Level 13 is inside the block [13, 16); the states hold the
            # rows before level 5 by then.
            (40, 13, 8, 3),
            # Level 45 is inside the second leaf of the block [33, 65); on
            # a uniform mesh the block [1, 33) was solved by leaf inverse.
            (80, 45, None, None),
        ],
    )
    def test_non_finite_forcing_names_the_first_bad_level(
        self, monkeypatch, grading, scheme, closed_form, N, bad, window, block
    ):
        # Levels after the bad one are not finite either; a product that
        # carried any of them into an earlier level of its block, even with
        # weight 0, would make that level the first bad one.
        if window:
            _use_small_blocks(monkeypatch)
            monkeypatch.setattr(fracheat.solver, "_WINDOW", window)
        if block:
            monkeypatch.setattr(fracheat.solver, "_BLOCK", block)
        base = manufactured_sin(0.5)
        mesh = graded_time_mesh(1.0, N, grading)
        t_bad = mesh.t[bad]

        def poisoned(fn):
            return lambda x, t: fn(x, t) + np.where(t >= t_bad, np.nan, 0.0)

        p = dataclasses.replace(base, f=poisoned(base.f))
        if closed_form:
            p = dataclasses.replace(p, exact_f_conv=poisoned(base.exact_f_conv))
        else:
            p = dataclasses.replace(p, exact_f_conv=None)
        message = rf"level {bad} \(t = {t_bad:g}\) is not finite.*forcing"
        with pytest.raises(ValueError, match=message):
            solve(p, SpatialGrid(8), mesh, scheme)

    def test_non_finite_initial_data_is_level_zero(self):
        base = sine_decay(0.5)
        p = dataclasses.replace(
            base, exact_u=None, phi=lambda x: np.where(x == 0.5, np.nan, base.phi(x))
        )
        with pytest.raises(ValueError, match=r"level 0 \(t = 0\).*initial data"):
            solve(p, SpatialGrid(8), uniform_time_mesh(1.0, 4))

# Both schemes with closed-form forcing, and transformed with quadrature.
_FORCINGS = [
    (SchemeKind.TRANSFORMED, True),
    (SchemeKind.L1, True),
    (SchemeKind.TRANSFORMED, False),
]


def _forcing_of(scheme, closed_form, wrap):
    """manufactured_sin with ``wrap(name, fn)`` around the forcing it samples."""
    p = manufactured_sin(0.5)
    p = dataclasses.replace(p, f=wrap("f", p.f))
    if not closed_form:
        return dataclasses.replace(p, exact_f_conv=None)
    return dataclasses.replace(p, exact_f_conv=wrap("exact_f_conv", p.exact_f_conv))


class TestForcingBlocks:
    """Every level's forcing is sampled and transformed before the march."""

    @pytest.mark.parametrize("scheme, closed_form", _FORCINGS)
    def test_forcing_sampled_once_per_level_before_the_first_merge(
        self, monkeypatch, scheme, closed_form
    ):
        _use_small_blocks(monkeypatch)
        monkeypatch.setattr(fracheat.solver, "_BLOCK", 4)
        log = []

        def logged(name, fn):
            def call(*args):
                if name == "_add_products" and len(args[0]) > fracheat.solver._BLOCK:
                    # Only the states have more rows than a block.
                    log.append(("state update", None))
                else:
                    log.append((name, args[1] if name in ("f", "exact_f_conv") else None))
                return fn(*args)

            return call

        for name in ("apply_compact", "_add_products"):
            fn = getattr(fracheat.solver, name)
            monkeypatch.setattr(fracheat.solver, name, logged(name, fn))
        mesh = uniform_time_mesh(1.0, 40)
        p = _forcing_of(scheme, closed_form, logged)
        # Building the problem checks the shape of exact_f_conv once.
        log.clear()
        solve(p, SpatialGrid(8), mesh, scheme)
        names = [name for name, _ in log]
        sampled = "exact_f_conv" if closed_form and scheme is SchemeKind.TRANSFORMED else "f"
        times = [t for name, t in log if name == sampled]
        if sampled == "exact_f_conv":
            # One call per block of 3 rows from t_1, the block's times as a
            # column.
            assert len(times) == math.ceil(40 / 3)
            assert all(np.shape(t)[1:] == (1,) for t in times)
            np.testing.assert_array_equal(np.concatenate(times)[:, 0], mesh.t[1:])
        else:
            # f once per level: from t_0 with quadrature forcing, from t_1
            # for L1.
            assert times == list(mesh.t[1 if closed_form else 0 :])
        assert names.count("f") + names.count("exact_f_conv") == names.count(sampled)
        # ceil(40 / 3) blocks of rows from t_1, or ceil(41 / 3) from t_0.
        assert names.count("apply_compact") == 14
        march = names[names.index("_add_products") :]
        assert sampled not in march and "apply_compact" not in march
        # One state update over one source per block that rows leave, at
        # the ends of the eight blocks of 4 levels from [5, 9) to [33, 37).
        assert names.count("state update") == 8

    @pytest.mark.parametrize(
        "scheme, grading",
        [(SchemeKind.TRANSFORMED, 1.0), (SchemeKind.TRANSFORMED, 2.0), (SchemeKind.L1, 1.0)],
    )
    def test_f_gets_a_python_float_once_per_level_in_increasing_t(
        self, monkeypatch, scheme, grading
    ):
        # The benchmark's tracer converts the t of each f call with float(),
        # so f keeps scalar times, in quadrature forcing (from t_0) and in
        # L1 (from t_1, closed form or not), across blocks of 3 rows.
        _use_small_blocks(monkeypatch)
        times = []

        def wrap(name, fn):
            def f(x, t):
                times.append(t)
                return fn(x, t)

            return f if name == "f" else fn

        l1 = scheme is SchemeKind.L1
        mesh = graded_time_mesh(1.0, 40, grading)
        solve(_forcing_of(scheme, l1, wrap), SpatialGrid(8), mesh, scheme)
        assert all(type(t) is float for t in times)
        assert times == mesh.t[1 if l1 else 0 :].tolist()

    @pytest.mark.parametrize("scheme, closed_form", _FORCINGS)
    def test_sine_runs_per_block_not_per_level(self, monkeypatch, scheme, closed_form):
        # phi, the one block of forcing rows (from t_0 with quadrature
        # forcing) and the one block back out.
        shapes = []
        sine = fracheat.solver._sine

        def counted(v):
            shapes.append(v.shape)
            return sine(v)

        monkeypatch.setattr(fracheat.solver, "_sine", counted)
        p = _forcing_of(scheme, closed_form, lambda name, fn: fn)
        solve(p, SpatialGrid(8), uniform_time_mesh(1.0, 40), scheme)
        assert shapes == [(9,), (40 if closed_form else 41, 9), (40, 9)]

    @pytest.mark.parametrize("grading", [1.0, 2.0])
    @pytest.mark.parametrize("closed_form", [True, False])
    def test_working_memory_is_the_lattices_and_two_chunks(self, closed_form, grading):
        # A lattice-sized temporary would add 1.6 MB to a peak that should
        # hold the lattice (and the quadrature history source z) plus at
        # most two chunks of transform work; the states, the weights of one
        # block and its products are smaller than a chunk.
        p = _forcing_of(SchemeKind.TRANSFORMED, closed_form, lambda name, fn: fn)
        grid, mesh = SpatialGrid(100), graded_time_mesh(1.0, 2048, grading)
        lattices = (1 if closed_form else 2) * (mesh.N + 1) * (grid.M + 1) * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            solve(p, grid, mesh)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < lattices + 2 * fracheat.solver._CHUNK_BYTES


def _random_problem(alpha, M, closed_form, seed):
    """phi and f with random coefficients on every sine mode of the grid.

    f = a(x) + t b(x), with a and b also 1 and -1 at both ends, so that
    its fractional integral is a t**alpha / Gamma(1 + alpha)
    + b t**(1 + alpha) / Gamma(2 + alpha); it is dropped unless
    ``closed_form``.
    """
    coef = np.random.default_rng(seed).standard_normal((3, M - 1))
    modes = np.arange(1, M)

    def series(x, k):
        return np.sin(np.pi * np.multiply.outer(x, modes)) @ coef[k]

    def f(x, t):
        return series(x, 1) + 1.0 + t * (series(x, 2) - 1.0)

    def f_conv(x, t):
        return (series(x, 1) + 1.0) * t**alpha / gamma(1.0 + alpha) + (
            series(x, 2) - 1.0
        ) * t ** (1.0 + alpha) / gamma(2.0 + alpha)

    return ProblemSpec(
        alpha=alpha,
        phi=lambda x: series(x, 0),
        f=f,
        exact_f_conv=f_conv if closed_form else None,
    )


def _by_leaves_and_by_levels(monkeypatch, problem, M, mesh, scheme):
    """The lattices of the two in-block paths.

    The first must build one leaf inverse and apply it once per leaf of
    every block (``np.matmul`` runs nowhere else in ``solve``), the second
    none: a leaf of 2**20 levels outgrows ``_CHUNK_BYTES``, which forces
    the level-by-level path.
    """
    sizes, applied = [], []
    inverse, matmul = fracheat.solver._leaf_inverse, np.matmul

    def recorded(lag, f, size):
        sizes.append(size)
        return inverse(lag, f, size)

    def counted(*args):
        applied.append(None)
        return matmul(*args)

    monkeypatch.setattr(fracheat.solver, "_leaf_inverse", recorded)
    monkeypatch.setattr(np, "matmul", counted)
    N, block = mesh.N, fracheat.solver._BLOCK
    leaf = min(fracheat.solver._LEAF, block, N)
    leaves = solve(problem, SpatialGrid(M), mesh, scheme).values
    assert sizes == [leaf]
    assert len(applied) == sum(-(-min(block, N + 1 - b) // leaf) for b in range(1, N + 1, block))
    with monkeypatch.context() as patch:
        patch.setattr(fracheat.solver, "_LEAF", 1 << 20)
        del sizes[:], applied[:]
        levels = solve(problem, SpatialGrid(M), mesh, scheme).values
    assert sizes == applied == []
    return leaves, levels


class TestInBlockPaths:
    """Uniform blocks solved by leaf inverse agree with level by level."""

    @pytest.mark.parametrize("M", [2, 8, 100])
    @pytest.mark.parametrize("N", [1, 5, 16, 17, 40, 300])
    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.99])
    @pytest.mark.parametrize("scheme, closed_form", _FORCINGS)
    def test_leaf_inverse_agrees_with_the_level_loop(
        self, monkeypatch, scheme, closed_form, alpha, N, M
    ):
        # N below a leaf, one full leaf, a leaf and one level, a full block
        # and a partial one, and past the window, where the states start.
        p = _random_problem(alpha, M, closed_form, seed=N * M)
        leaves, levels = _by_leaves_and_by_levels(
            monkeypatch, p, M, uniform_time_mesh(1.0, N), scheme
        )
        assert np.max(np.abs(leaves - levels)) <= 1e-12 * np.max(np.abs(levels))

    def test_l1_with_a_large_lambda_stays_finite(self, monkeypatch):
        # lambda = 1 / (Gamma(1.01) tau**0.99) is about 1.8e4, and about
        # 1.2e24 at T = 1e-20: there entry M's gain lambda * 2/3 over its
        # placeholder denominator 1 would overflow G from level 13 of a
        # leaf on, and the NaN of 0 times that would send every later
        # block down the level-by-level path.
        for T in (1.0, 1e-20):
            leaves, levels = _by_leaves_and_by_levels(
                monkeypatch, manufactured_sin(0.99), 8, uniform_time_mesh(T, 20_000), SchemeKind.L1
            )
            assert np.isfinite(leaves).all()
            assert np.max(np.abs(leaves - levels)) <= 1e-12 * np.max(np.abs(levels))

    @pytest.mark.parametrize("size", [1, 2, 5, 16])
    def test_leaf_inverse_inverts_each_mode_s_leaf_system(self, size):
        # Row j of entry m holds G_{i-j} at column i, so entry m transposed
        # is the inverse of I - f_m L, with L[i, j] = lag[i - j] for i > j.
        rng = np.random.default_rng(size)
        lag = np.concatenate(([0.0], rng.random(size)))
        f = 0.5 * rng.standard_normal(9)
        # Gains of the boundary entries that would overflow G.
        f[[0, -1]] = 1e300
        got = _leaf_inverse(lag, f, size)
        assert got.shape == (9, size, size) and got.flags.c_contiguous
        k = np.arange(size)
        L = np.where(k[:, None] > k, lag[np.abs(k[:, None] - k)], 0.0)
        for m in range(1, 8):
            expected = np.linalg.inv(np.eye(size) - f[m] * L)
            np.testing.assert_allclose(got[m].T, expected, rtol=1e-13, atol=1e-13)
        assert np.array_equal(got[[0, -1]], np.broadcast_to(np.eye(size), (2, size, size)))


class TestUniformMeshTest:
    @pytest.mark.parametrize("T", [0.2, 1.0, 3.0])
    def test_every_uniform_mesh_up_to_50000_steps_is_uniform(self, T):
        # The levels as ``uniform_time_mesh`` computes them, T * (n / N),
        # in one buffer; a tolerance of 1e-12 of the step rejected 45,269
        # of these N at T = 0.2, from N = 3,604 on.
        n = np.arange(50_001, dtype=float)
        buf = np.empty_like(n)
        rejected = [
            N
            for N in range(1, 50_001)
            if not _is_uniform(np.multiply(np.divide(n[: N + 1], N, out=buf[: N + 1]), T, out=buf[: N + 1]))
        ]
        assert rejected == []
        for N in (1, 3_604, 50_000):
            assert np.array_equal(uniform_time_mesh(T, N).t, T * (n[: N + 1] / N))

    @pytest.mark.parametrize("T", [0.2, 1.0, 3.0])
    @pytest.mark.parametrize("N", [2, 100, 50_000])
    def test_a_barely_graded_mesh_is_not_uniform(self, T, N):
        assert not _is_uniform(graded_time_mesh(T, N, 1.000001).t)

    @pytest.mark.parametrize("T, N", [(0.2, 3_604), (1.0, 9_008), (3.0, 3_380)])
    def test_meshes_the_relative_test_rejected_solve_as_uniform(self, monkeypatch, T, N):
        # The first N the old tolerance rejected at each T: either scheme
        # takes one block of kernel weights for the whole solve, as on a
        # short uniform mesh, not one block per block of levels.
        rows = []
        row = fracheat.solver.weights_row

        def counted_row(*args):
            rows.append(args)
            return row(*args)

        monkeypatch.setattr(fracheat.solver, "weights_row", counted_row)
        p = manufactured_sin(0.5)
        for scheme in SchemeKind:
            solve(p, SpatialGrid(2), uniform_time_mesh(T, 40), scheme)
            short = len(rows)
            del rows[:]
            solve(p, SpatialGrid(2), uniform_time_mesh(T, N), scheme)
            assert len(rows) == short
            del rows[:]


class TestSineLevelSolve:
    @pytest.mark.parametrize("M", [2, 3, 8, 101])
    def test_sine_matches_its_definition(self, M):
        v = np.random.default_rng(M).standard_normal((2, M + 1))
        i = np.arange(1, M)
        S = np.sin(np.pi * np.outer(i, i) / M)
        got = _sine(v)
        np.testing.assert_allclose(got[:, 1:-1], v[:, 1:-1] @ S, rtol=0, atol=1e-12 * M)
        assert np.array_equal(got[:, [0, -1]], np.zeros((2, 2)))

    @pytest.mark.parametrize("M", [2, 3, 8, 101, 2000])
    def test_sine_is_its_own_inverse_with_positive_zero_ends(self, M):
        v = np.random.default_rng(M).standard_normal((3, M + 1))
        back = _sine(_sine(v)) * (2.0 / M)
        np.testing.assert_allclose(back[:, 1:-1], v[:, 1:-1], rtol=0, atol=1e-13)
        ends = back[:, [0, -1]]
        assert np.all(ends == 0.0) and not np.any(np.signbit(ends))

    def test_zero_and_negative_zero_give_positive_zeros(self):
        # A -0.0 in a lattice would print as "-0" in ``fracheat run``.
        for v in (np.zeros((2, 9)), np.full((2, 9), -0.0)):
            out = _sine(v)
            assert np.all(out == 0.0) and not np.any(np.signbit(out))

    @pytest.mark.parametrize("M", [8, 100, 2000])
    @pytest.mark.parametrize("level", ["transformed-uniform", "transformed-graded", "l1"])
    def test_level_solve_matches_dense_solve(self, M, level):
        # (p, r) of a uniform transformed level, of the first level of a
        # graded r=2 mesh, and of L1 (lambda at 128 steps) at each M.
        alpha, h = 0.5, 1.0 / M
        if level == "l1":
            p, r = 1.0 / (gamma(2.0 - alpha) * (1.0 / 128) ** alpha), 1.0
        else:
            mesh = graded_time_mesh(1.0, 128, 2.0 if level == "transformed-graded" else 1.0)
            p, r = 1.0, 0.5 * weights_row(alpha, mesh, 1)[-1]
        A = p * dense_compact_matrix(M) - r * dense_second_diff_matrix(M, h)
        rhs = np.random.default_rng(M).standard_normal(M + 1)
        rhs[0] = rhs[-1] = 0.0
        s = np.sin(np.pi * np.arange(M + 1) / (2 * M)) ** 2
        got = _sine(_sine(rhs) / _denominators(p, r, h, s)) * (2.0 / M)
        # Pinned ends: only the interior block is solved.  (Identity rows
        # solved along with it cost LAPACK's pivoting up to 2e-10 here.)
        ref = np.zeros(M + 1)
        ref[1:-1] = np.linalg.solve(A[1:-1, 1:-1], rhs[1:-1])
        assert np.max(np.abs(got - ref)) <= 2e-12 * np.max(np.abs(ref))
        assert np.all(got[[0, -1]] == 0.0) and not np.any(np.signbit(got[[0, -1]]))


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
        p = sine_decay(0.5)
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
        p = sine_decay(0.5)
        grid = SpatialGrid(64)
        lattice = solve(p, grid, uniform_time_mesh(0.01, 256))
        final_err = float(
            np.max(np.abs(lattice.values[-1] - p.exact_u(grid.x, 0.01)))
        )
        assert final_err <= 2e-5

    def test_graded_mesh_controls_initial_layer(self):
        # Clustering steps near t = 0 shrinks the whole-lattice error of
        # the previous test's setup by roughly two orders of magnitude.
        p = sine_decay(0.5)
        grid = SpatialGrid(64)
        uniform = solve(p, grid, uniform_time_mesh(0.01, 256))
        graded = solve(p, grid, graded_time_mesh(0.01, 256, 2.0))
        err_uniform = max_lattice_error(uniform, p.exact_u)
        err_graded = max_lattice_error(graded, p.exact_u)
        assert err_graded <= 1e-4
        assert err_graded < err_uniform / 10.0


def _longdouble_l1_mode(alpha, M, mesh):
    """Amplitudes a_n of L1's first sine mode from phi = sin(pi x), f = 0.

    A dense march in np.longdouble of (d_n eta + mu) a_n = eta (d_n a_{n-1}
    + sum_{k<n} d_k (a_{k-1} - a_k)), with eta and mu the eigenvalues of H
    and -D2 and the nonuniform L1 weights d_k of ``_dense_march``, each
    step integral taken as -x**kappa expm1(kappa log1p(-tau_k / x)),
    x = t_n - t_{k-1}, so that short steps against late levels keep their
    digits.
    """
    t, kappa = mesh.t.astype(np.longdouble), np.longdouble(1.0 - alpha)
    s = np.longdouble(np.sin(0.5 * np.pi / M) ** 2)
    eta, mu = 1 - s / 3, 4 * s * M * M
    tau, a = np.diff(t), [np.longdouble(1.0)]
    for n in range(1, mesh.N + 1):
        x = t[n] - t[:n]
        # The own step, x = tau_n, takes log1p(-1) = -inf to d = x**kappa.
        with np.errstate(divide="ignore"):
            d = -(x**kappa) * np.expm1(kappa * np.log1p(-tau[:n] / x))
        d /= np.longdouble(gamma(2.0 - alpha)) * tau[:n]
        hist = d[-1] * a[-1] + d[:-1] @ (np.array(a[:-1]) - np.array(a[1:]))
        a.append(eta * hist / (d[-1] * eta + mu))
    return np.array(a)


class TestL1Scheme:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_converges_on_graded_meshes(self, alpha):
        # With r = (2 - alpha) / alpha the rates approach 2 - alpha from
        # below: 1.63, 1.48 and 1.29 for N = 256 to 512 at this M.
        p = manufactured_sin(alpha)
        errs = [
            max_lattice_error(
                solve(p, SpatialGrid(64), graded_time_mesh(1.0, N, (2.0 - alpha) / alpha),
                      SchemeKind.L1),
                p.exact_u,
            )
            for N in (64, 128, 256, 512)
        ]
        rates = np.log2(np.divide(errs[:-1], errs[1:]))
        assert np.all(np.diff(rates) > 0.0)
        assert 2.0 - alpha - 0.1 < rates[-1] < 2.0 - alpha

    @pytest.mark.parametrize("alpha", [0.25, 0.5])
    def test_strongly_graded_mesh_matches_a_longdouble_march(self, alpha):
        # The first step is T / N**3 = 1.2e-10 T, so the states carry
        # steps far shorter than the spans they are weighed over, against
        # an independent march in extended precision.
        M, mesh = 16, graded_time_mesh(0.01, 2048, 3.0)
        grid = SpatialGrid(M)
        got = solve(sine_decay(alpha), grid, mesh, SchemeKind.L1).values
        ref = np.multiply.outer(_longdouble_l1_mode(alpha, M, mesh), np.sin(np.pi * grid.x))
        assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref))

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
