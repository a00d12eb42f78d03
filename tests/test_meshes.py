import re

import numpy as np
import pytest

from fracheat.harness import SweepConfig, run_sweep
from fracheat.meshes import SpatialGrid, TemporalMesh, graded_time_mesh, uniform_time_mesh


class TestSpatialGrid:
    def test_smallest_grid(self):
        g = SpatialGrid(2)
        assert g.h == 0.5
        np.testing.assert_array_equal(g.x, [0.0, 0.5, 1.0])

    def test_endpoints_exact(self):
        g = SpatialGrid(100)
        assert g.x[0] == 0.0 and g.x[-1] == 1.0
        assert g.x.size == 101

    def test_rejects_single_cell(self):
        with pytest.raises(ValueError):
            SpatialGrid(1)

    @pytest.mark.parametrize("M", [8.5, 8.0, np.float64(8.0), "8", None])
    def test_rejects_a_non_integer_cell_count(self, M):
        with pytest.raises(ValueError, match=r"M must be an integer, got M="):
            SpatialGrid(M)

    @pytest.mark.parametrize("M", [np.int32(8), np.int64(8), np.uint8(8)])
    def test_numpy_integer_cell_count_is_an_int(self, M):
        g = SpatialGrid(M)
        assert g.M == 8 and type(g.M) is int
        np.testing.assert_array_equal(g.x, SpatialGrid(8).x)

    def test_nodes_are_read_only(self):
        g = SpatialGrid(4)
        with pytest.raises(ValueError):
            g.x[0] = 1.0


class TestUniformMesh:
    def test_quarter_points(self):
        m = uniform_time_mesh(1.0, 4)
        np.testing.assert_array_equal(m.t, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert m.N == 4

    @pytest.mark.parametrize("T,N", [(1.0, 7), (0.7, 13), (2.5, 640)])
    def test_final_level_hits_T_exactly(self, T, N):
        m = uniform_time_mesh(T, N)
        assert m.t[-1] == T
        assert m.T == T
        assert m.t[0] == 0.0

    def test_large_N(self):
        m = uniform_time_mesh(1.0, 10**6)
        assert m.N == 10**6
        assert m.t[-1] == 1.0
        assert np.all(m.steps > 0.0)

    @pytest.mark.parametrize("T,N", [(0.0, 4), (-1.0, 4), (1.0, 0)])
    def test_rejects_degenerate(self, T, N):
        with pytest.raises(ValueError):
            uniform_time_mesh(T, N)

    def test_rejects_a_final_time_whose_levels_collide(self):
        # T*(1/200) underflows to 0, so t_1 rounds to t_0; TemporalMesh
        # would say only that the levels do not increase.
        message = (
            "final time T=4.94066e-324 is too small for N=200 steps: "
            "t_1 = T*(1/200) rounds to t_0 = 0"
        )
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            uniform_time_mesh(5e-324, 200)

    @pytest.mark.parametrize("T", [float("nan"), float("inf")])
    def test_rejects_non_finite_final_time(self, T):
        with pytest.raises(ValueError, match="final time"):
            uniform_time_mesh(T, 4)


    @pytest.mark.parametrize("N", [10.5, 10.0, np.float64(10.0), "10", None])
    def test_rejects_a_non_integer_step_count(self, N):
        # 10.5 used to give 12 levels of 1/10.5, the last at 1.0476.
        with pytest.raises(ValueError, match=r"N must be an integer, got N="):
            uniform_time_mesh(1.0, N)

    @pytest.mark.parametrize("N", [np.int32(10), np.int64(10), np.uint16(10)])
    def test_numpy_integer_step_count_is_accepted(self, N):
        m = uniform_time_mesh(1.0, N)
        assert m.N == 10
        np.testing.assert_array_equal(m.t, uniform_time_mesh(1.0, 10).t)


class TestGradedMesh:
    def test_cubic_grading(self):
        m = graded_time_mesh(1.0, 4, 3.0)
        np.testing.assert_array_equal(m.t, [0.0, 1.0 / 64.0, 0.125, 27.0 / 64.0, 1.0])

    @pytest.mark.parametrize("T", [1e-8, 0.2, 0.3, 1.0, 1e6])
    @pytest.mark.parametrize("N", [1, 7, 40, 99, 160, 161, 640, 1000, 2048])
    def test_exponent_one_matches_uniform_bit_for_bit(self, T, N):
        # x**1.0 is exact, so the power form gives the levels T*(n/N).
        want = T * (np.arange(N + 1, dtype=float) / N)
        for mesh in (graded_time_mesh(T, N, 1.0), uniform_time_mesh(T, N)):
            assert mesh.t.tobytes() == want.tobytes()

    def test_steps_nondecreasing(self):
        m = graded_time_mesh(1.0, 50, 2.0)
        steps = m.steps
        assert np.all(steps > 0.0)
        assert np.all(np.diff(steps) >= 0.0)

    def test_final_level_hits_T_exactly(self):
        m = graded_time_mesh(2.0, 33, 2.5)
        assert m.t[-1] == 2.0

    def test_rejects_a_grading_whose_levels_collide(self):
        # (1/40)**19999 underflows, so t_1 rounds to t_0 = 0; TemporalMesh
        # would say only that the levels do not increase.
        message = "grading r=19999.0 is too strong for N=40 steps: t_1 = T*(1/40)**r rounds to t_0"
        with pytest.raises(ValueError, match=re.escape(message)):
            graded_time_mesh(1.0, 40, 19999.0)

    def test_names_the_final_time_when_uniform_levels_collide_too(self):
        # T*(1/200) underflows already, so the grading is not the cause.
        message = (
            "final time T=4.94066e-324 is too small for N=200 steps: "
            "t_1 = T*(1/200) rounds to t_0 = 0 even on the uniform mesh"
        )
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            graded_time_mesh(5e-324, 200, 1.5)

    def test_rejects_compressing_exponent(self):
        with pytest.raises(ValueError):
            graded_time_mesh(1.0, 4, 0.5)

    @pytest.mark.parametrize(
        "T,r,cause",
        [
            (float("nan"), 2.0, "final time"),
            (float("inf"), 2.0, "final time"),
            (float("inf"), 1.0, "final time"),
            (1.0, float("nan"), "grading exponent"),
            (1.0, float("inf"), "grading exponent"),
        ],
    )
    def test_rejects_non_finite(self, T, r, cause):
        with pytest.raises(ValueError, match=cause):
            graded_time_mesh(T, 4, r)


    @pytest.mark.parametrize("N", [4.2, 4.0])
    def test_rejects_a_non_integer_step_count(self, N):
        # 4.2 used to end the mesh at T = 2.83 instead of 2.
        with pytest.raises(ValueError, match=r"N must be an integer, got N=4\.[02]"):
            graded_time_mesh(2.0, N, 2.0)

    def test_a_sweep_of_a_non_integer_step_count_is_refused(self):
        # The report would have said T = 1 for a mesh ending at 1.0476.
        config = SweepConfig(alphas=(0.5,), M=8, Ns=(10.5,))
        with pytest.raises(ValueError, match=r"N must be an integer, got N=10\.5"):
            run_sweep(config)


class TestTemporalMeshValidation:
    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            TemporalMesh(t=np.array([0.1, 0.5, 1.0]))

    def test_must_increase(self):
        with pytest.raises(ValueError):
            TemporalMesh(t=np.array([0.0, 0.5, 0.5, 1.0]))

    def test_must_end_at_T(self):
        # The final time is the last level, so no mesh can end elsewhere.
        m = TemporalMesh(t=np.array([0.0, 0.5, 0.9]))
        assert m.T == 0.9 and type(m.T) is float

    def test_final_time_is_read_only(self):
        m = uniform_time_mesh(1.0, 4)
        with pytest.raises(AttributeError):
            m.T = 2.0

    @pytest.mark.parametrize(
        "t, cause",
        [
            ([0.0, 1.0, np.inf], r"time level t_2=inf is not finite"),
            ([0.0, np.nan, 1.0], r"time level t_1=nan is not finite"),
            # A non-finite final time is a non-finite last level.
            ([0.0, 0.5, np.nan], r"time level t_2=nan is not finite"),
            ([0.0, 0.5, -np.inf], r"time level t_2=-inf is not finite"),
        ],
    )
    def test_rejects_non_finite(self, t, cause):
        with pytest.raises(ValueError, match=cause):
            TemporalMesh(t=np.array(t))

    def test_levels_are_read_only(self):
        m = uniform_time_mesh(1.0, 4)
        with pytest.raises(ValueError):
            m.t[2] = 0.9

    def test_steps_sum_to_T(self):
        for m in (uniform_time_mesh(1.0, 37), graded_time_mesh(1.0, 37, 2.0)):
            assert np.sum(m.steps) == pytest.approx(1.0, rel=1e-14)
