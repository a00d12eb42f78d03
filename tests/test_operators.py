import math

import numpy as np
import pytest

from fracheat.operators import (
    TridiagonalSystem,
    apply_compact,
    apply_second_diff,
    norm_energy,
    norm_l2,
    seminorm_h1,
    solve_tridiagonal,
)
from oracles import (
    dense_compact_matrix,
    dense_second_diff_matrix,
    dense_tridiagonal,
    thomas_elementwise,
)


def _random_zero_boundary(rng, M):
    v = rng.standard_normal(M + 1)
    v[0] = v[-1] = 0.0
    return v


class TestCompactAverage:
    def test_unit_bump(self):
        out = apply_compact(np.array([0.0, 1.0, 0.0]))
        np.testing.assert_allclose(out, [0.0, 10.0 / 12.0, 0.0], rtol=1e-15)

    def test_boundary_passthrough(self):
        out = apply_compact(np.array([2.0, 1.0, 3.0]))
        assert out[0] == 2.0 and out[2] == 3.0
        assert out[1] == pytest.approx((2.0 + 10.0 + 3.0) / 12.0, rel=1e-15)

    def test_matches_dense_matrix(self):
        rng = np.random.default_rng(11)
        M = 100
        v = rng.standard_normal(M + 1)
        np.testing.assert_allclose(
            apply_compact(v), dense_compact_matrix(M) @ v, rtol=1e-13, atol=1e-14
        )

    def test_preserves_constants_in_interior(self):
        v = np.full(9, 3.5)
        np.testing.assert_allclose(apply_compact(v), v, rtol=1e-15)

    def test_stack_is_averaged_row_by_row(self):
        # Rows with nonzero ends, so the boundary columns must pass through.
        stack = np.random.default_rng(3).standard_normal((5, 9))
        got = apply_compact(stack)
        assert got.shape == stack.shape
        for row, v in zip(got, stack):
            assert np.array_equal(row, apply_compact(v))
        assert np.array_equal(got[:, [0, -1]], stack[:, [0, -1]])


class TestSecondDifference:
    def test_unit_bump(self):
        out = apply_second_diff(np.array([0.0, 1.0, 0.0]), 0.5)
        np.testing.assert_allclose(out, [0.0, -8.0, 0.0], rtol=1e-15)

    @pytest.mark.parametrize("M", [4, 16, 64, 256])
    def test_exact_on_quadratics(self, M):
        x = np.linspace(0.0, 1.0, M + 1)
        out = apply_second_diff(3.0 * x**2 - x + 2.0, 1.0 / M)
        np.testing.assert_allclose(out[1:-1], 6.0, rtol=1e-9)
        assert out[0] == 0.0 and out[-1] == 0.0

    def test_matches_dense_matrix(self):
        rng = np.random.default_rng(13)
        M = 77
        v = rng.standard_normal(M + 1)
        np.testing.assert_allclose(
            apply_second_diff(v, 1.0 / M),
            dense_second_diff_matrix(M, 1.0 / M) @ v,
            rtol=1e-12,
            atol=1e-9,
        )


class TestNorms:
    def test_unit_bump_values(self):
        v = np.array([0.0, 1.0, 0.0])
        assert norm_l2(v, 0.5) == pytest.approx(math.sqrt(0.5), rel=1e-15)
        assert seminorm_h1(v, 0.5) == pytest.approx(2.0, rel=1e-15)
        # energy**2 = 4 - (h**2/12) * h * 64 = 10/3
        assert norm_energy(v, 0.5) == pytest.approx(math.sqrt(10.0 / 3.0), rel=1e-14)

    def test_against_compensated_sums(self):
        rng = np.random.default_rng(5)
        M = 64
        h = 1.0 / M
        v = rng.standard_normal(M + 1)
        ref_l2 = math.sqrt(h * math.fsum(float(w) ** 2 for w in v[1:-1]))
        ref_h1 = math.sqrt(h * math.fsum(float(d / h) ** 2 for d in np.diff(v)))
        assert norm_l2(v, h) == pytest.approx(ref_l2, rel=1e-13)
        assert seminorm_h1(v, h) == pytest.approx(ref_h1, rel=1e-13)
        # A (k, M+1) stack gives one norm per row, as the 1-D call does.
        stack = np.vstack([v, rng.standard_normal((3, M + 1))])
        for norm in (norm_l2, seminorm_h1, norm_energy):
            got = norm(stack, h)
            assert got.shape == (4,)
            for g, row in zip(got, stack):
                assert g == pytest.approx(norm(row, h), rel=1e-15)
        # One row whose second differences overflow: the stack still raises.
        stack[2] = 5e150 * (-1.0) ** np.arange(M + 1)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="radicand is negative"):
            norm_energy(stack, h)

    @pytest.mark.parametrize("M", [4, 16, 64])
    def test_energy_equivalent_to_h1(self, M):
        # 2/3 |v|_1^2 <= |v|_E^2 <= |v|_1^2 for zero-boundary functions.
        rng = np.random.default_rng(M)
        h = 1.0 / M
        for _ in range(200):
            v = _random_zero_boundary(rng, M)
            semi = seminorm_h1(v, h)
            en = norm_energy(v, h)
            assert en <= semi * (1.0 + 1e-13)
            assert en**2 >= (2.0 / 3.0) * semi**2 * (1.0 - 1e-13)

    @pytest.mark.parametrize("M", [4, 16, 64])
    def test_poincare(self, M):
        # |v|_0 <= |v|_1 / sqrt(6) on zero-boundary functions.
        rng = np.random.default_rng(100 + M)
        h = 1.0 / M
        for _ in range(1000):
            v = _random_zero_boundary(rng, M)
            assert norm_l2(v, h) <= seminorm_h1(v, h) / math.sqrt(6.0) * (1.0 + 1e-13)

    def test_summation_by_parts_identity(self):
        # -h * sum (H v)_i (d2 v)_i over interior nodes equals |v|_E^2.
        rng = np.random.default_rng(17)
        for M in (8, 32, 100):
            h = 1.0 / M
            for _ in range(100):
                v = _random_zero_boundary(rng, M)
                hv = apply_compact(v)[1:-1]
                d2 = apply_second_diff(v, h)[1:-1]
                lhs = -h * float(hv @ d2)
                assert lhs == pytest.approx(norm_energy(v, h) ** 2, rel=1e-11)


def _scheme_shaped_bands(M, q):
    """Rows as assembled by the march: off = 1/12 - q on both bands,
    diagonal 10/12 + 2q, boundary rows pinned to identity."""
    off = 1.0 / 12.0 - q
    lower = np.full(M, off)
    upper = np.full(M, off)
    diag = np.full(M + 1, 10.0 / 12.0 + 2.0 * q)
    diag[0] = diag[-1] = 1.0
    upper[0] = 0.0
    lower[-1] = 0.0
    return lower, diag, upper


def _random_dominant_systems(rng, count):
    for _ in range(count):
        n = int(rng.integers(2, 40))
        lower = rng.standard_normal(n - 1)
        upper = rng.standard_normal(n - 1)
        diag = np.zeros(n)
        diag[:-1] += np.abs(upper)
        diag[1:] += np.abs(lower)
        diag += rng.uniform(0.5, 2.0, size=n)
        diag *= np.where(rng.random(n) < 0.5, -1.0, 1.0)
        yield TridiagonalSystem(
            lower=lower, diag=diag, upper=upper, rhs=rng.standard_normal(n)
        )


class TestTridiagonalSolve:
    def test_small_frozen_system(self):
        sys3 = TridiagonalSystem(
            lower=np.array([1.0, 1.0]),
            diag=np.array([4.0, 4.0, 4.0]),
            upper=np.array([1.0, 1.0]),
            rhs=np.array([6.0, 12.0, 6.0]),
        )
        np.testing.assert_allclose(
            solve_tridiagonal(sys3), [6.0 / 7.0, 18.0 / 7.0, 6.0 / 7.0], rtol=1e-14
        )

    @pytest.mark.parametrize("q", [0.01, 1.0, 100.0])
    def test_scheme_shaped_rows_match_dense_solve(self, q):
        rng = np.random.default_rng(int(100 * q) + 3)
        M = 50
        lower, diag, upper = _scheme_shaped_bands(M, q)
        rhs = rng.standard_normal(M + 1)
        rhs[0] = rhs[-1] = 0.0
        system = TridiagonalSystem(lower=lower, diag=diag, upper=upper, rhs=rhs)
        got = solve_tridiagonal(system)
        ref = np.linalg.solve(dense_tridiagonal(lower, diag, upper), rhs)
        np.testing.assert_allclose(got, ref, rtol=1e-11, atol=1e-13)

    def test_random_dominant_systems_match_dense_solve(self):
        rng = np.random.default_rng(23)
        for s in _random_dominant_systems(rng, 50):
            ref = np.linalg.solve(dense_tridiagonal(s.lower, s.diag, s.upper), s.rhs)
            np.testing.assert_allclose(solve_tridiagonal(s), ref, rtol=1e-10, atol=1e-12)

    def test_random_dominant_systems_bitwise_match_elementwise_thomas(self):
        rng = np.random.default_rng(23)
        for s in _random_dominant_systems(rng, 50):
            ref = thomas_elementwise(s.lower, s.diag, s.upper, s.rhs)
            assert np.array_equal(solve_tridiagonal(s), ref)

    @pytest.mark.parametrize("M", [8, 100, 2000])
    @pytest.mark.parametrize("q", [0.01, 1.0, 100.0, 1e6])
    def test_scheme_shaped_rows_bitwise_match_elementwise_thomas(self, M, q):
        rng = np.random.default_rng(M + int(q))
        bands = _scheme_shaped_bands(M, q)
        for _ in range(3):
            rhs = rng.standard_normal(M + 1)
            rhs[0] = rhs[-1] = 0.0
            ref = thomas_elementwise(*bands, rhs)
            assert np.array_equal(
                solve_tridiagonal(TridiagonalSystem(*bands, rhs=rhs)), ref
            )

    @pytest.mark.parametrize("band", ["lower", "diag", "upper"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_bands(self, band, bad):
        bands = dict(zip(("lower", "diag", "upper"), _scheme_shaped_bands(6, 1.0)))
        bands[band][2] = bad
        with pytest.raises(ValueError, match=f"{band} band entry 2 is not finite"):
            TridiagonalSystem(**bands, rhs=np.zeros(7))

    def test_rejects_wrong_rhs_length(self):
        with pytest.raises(ValueError, match="inconsistent band lengths"):
            TridiagonalSystem(*_scheme_shaped_bands(6, 1.0), rhs=np.zeros(6))

    def test_rejects_weakly_dominant_rows(self):
        with pytest.raises(ValueError, match="row 1 is not strictly diagonally dominant"):
            TridiagonalSystem(
                lower=np.array([2.0, 2.0]),
                diag=np.array([1.0, 1.0, 1.0]),
                upper=np.array([2.0, 2.0]),
                rhs=np.zeros(3),
            )

    def test_rejects_inconsistent_lengths(self):
        with pytest.raises(ValueError):
            TridiagonalSystem(
                lower=np.array([1.0]),
                diag=np.array([4.0, 4.0, 4.0]),
                upper=np.array([1.0, 1.0]),
                rhs=np.zeros(3),
            )

    def test_single_row(self):
        system = TridiagonalSystem(
            lower=np.zeros(0), diag=np.array([2.0]), upper=np.zeros(0), rhs=np.array([5.0])
        )
        np.testing.assert_allclose(solve_tridiagonal(system), [2.5])
