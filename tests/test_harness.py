import math
import re

import numpy as np
import pytest

import fracheat.harness
from fracheat.harness import (
    CSV_HEADER,
    ConvergenceReport,
    ReportRow,
    SweepConfig,
    lattice_error,
    max_lattice_error,
    parse_mesh_kind,
    run_sweep,
)
from fracheat.meshes import SpatialGrid, graded_time_mesh, uniform_time_mesh
from fracheat.operators import norm_energy, norm_l2
from fracheat.problems import manufactured_sin
from fracheat.solver import SchemeKind, SolutionLattice, solve


def _exact_lattice(problem, grid, mesh):
    values = np.stack([problem.exact_u(grid.x, float(t)) for t in mesh.t])
    values[:, 0] = 0.0
    values[:, -1] = 0.0
    return SolutionLattice(values=values, grid=grid, mesh=mesh)


@pytest.fixture(scope="module")
def small_report():
    cfg = SweepConfig(alphas=(0.5,), M=16, Ns=(4, 8, 16))
    return run_sweep(cfg)


@pytest.fixture(scope="module")
def report():
    cfg = SweepConfig(alphas=(0.25, 0.5), M=8, Ns=(4, 8, 16))
    return run_sweep(cfg)


class TestLatticeError:
    def test_zero_for_exact_lattice(self):
        p = manufactured_sin(0.5)
        grid, mesh = SpatialGrid(16), uniform_time_mesh(1.0, 8)
        lattice = _exact_lattice(p, grid, mesh)
        # boundary zeroing only changes entries that are already ~1e-16
        assert max_lattice_error(lattice, p.exact_u) < 1e-15

    def test_single_bump_is_the_error(self):
        p = manufactured_sin(0.5)
        grid, mesh = SpatialGrid(16), uniform_time_mesh(1.0, 8)
        values = np.asarray(_exact_lattice(p, grid, mesh).values).copy()
        values[3, 5] += 1e-3
        lattice = SolutionLattice(values=values, grid=grid, mesh=mesh)
        assert max_lattice_error(lattice, p.exact_u) == pytest.approx(1e-3, rel=1e-9)

    def test_norm_options(self):
        p = manufactured_sin(0.5)
        grid, mesh = SpatialGrid(16), uniform_time_mesh(1.0, 8)
        lattice = solve(p, grid, mesh)
        e_max = lattice_error(lattice, p.exact_u, "max")
        e_l2 = lattice_error(lattice, p.exact_u, "l2")
        e_a = lattice_error(lattice, p.exact_u, "a")
        assert 0.0 < e_l2 < e_max
        assert e_a > 0.0 and math.isfinite(e_a)
        # Each norm scores a whole block of levels in one call; it must
        # give the largest of the norms taken one level at a time.
        diffs = [row - p.exact_u(grid.x, t) for row, t in zip(lattice.values, mesh.t.tolist())]
        for got, level in ((e_l2, norm_l2), (e_a, norm_energy)):
            assert got == pytest.approx(max(level(d, grid.h) for d in diffs), rel=1e-15)

    def test_rejects_unknown_norm(self):
        p = manufactured_sin(0.5)
        lattice = solve(p, SpatialGrid(8), uniform_time_mesh(1.0, 4))
        with pytest.raises(ValueError, match="norm"):
            lattice_error(lattice, p.exact_u, "h1")

    def test_one_unknown_norm_message_for_the_scorer_and_the_config(self):
        p = manufactured_sin(0.5)
        lattice = solve(p, SpatialGrid(8), uniform_time_mesh(1.0, 4))
        message = "unknown norm 'x' (known: max, a, l2)"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            lattice_error(lattice, p.exact_u, "x")
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            SweepConfig(alphas=(0.5,), M=8, Ns=(4,), norm="x")

    def test_max_error_rejects_nan_level(self):
        # max(0.0, nan) is 0.0, so a NaN level must not fold into the maximum.
        p = manufactured_sin(0.5)
        grid, mesh = SpatialGrid(16), uniform_time_mesh(1.0, 8)
        values = np.asarray(_exact_lattice(p, grid, mesh).values).copy()
        values[3, 5] = np.nan
        lattice = SolutionLattice(values=values, grid=grid, mesh=mesh)
        with pytest.raises(ValueError, match=r"level 3 \(t = 0.375\) is not finite"):
            max_lattice_error(lattice, p.exact_u)

    @pytest.mark.parametrize("norm", ["max", "l2", "a"])
    def test_lattice_error_rejects_non_finite_level(self, norm):
        p = manufactured_sin(0.5)
        grid, mesh = SpatialGrid(16), uniform_time_mesh(1.0, 8)
        lattice = solve(p, grid, mesh)

        def exact(x, t):
            return p.exact_u(x, t) + (np.nan if t == 1.0 else 0.0)

        with pytest.raises(ValueError, match=r"level 8 \(t = 1\) is not finite"):
            lattice_error(lattice, exact, norm)

    @pytest.mark.parametrize("grading", [1.0, 2.0])
    @pytest.mark.parametrize("norm", [None, "max", "l2", "a"])
    def test_exact_u_gets_a_python_float_once_per_level_in_increasing_t(
        self, monkeypatch, norm, grading
    ):
        # The benchmark's tracer counts one exact_u call per level, so error
        # scoring keeps scalar times, across blocks of 3 rows.  norm None is
        # max_lattice_error.
        p = manufactured_sin(0.5)
        grid, mesh = SpatialGrid(8), graded_time_mesh(1.0, 10, grading)
        monkeypatch.setattr(fracheat.harness, "_SCORE_BYTES", 3 * 8 * (grid.M + 1))
        lattice = solve(p, grid, mesh)
        times = []

        def exact(x, t):
            times.append(t)
            return p.exact_u(x, t)

        if norm is None:
            max_lattice_error(lattice, exact)
        else:
            lattice_error(lattice, exact, norm)
        assert all(type(t) is float for t in times)
        assert times == mesh.t.tolist()


class TestMeshKindParsing:
    def test_uniform(self):
        assert parse_mesh_kind("uniform") == 1.0

    def test_graded(self):
        assert parse_mesh_kind("graded:2.5") == 2.5

    @pytest.mark.parametrize(
        "bad", ["graded:", "graded:abc", "graded:0.5", "graded:nan", "graded:inf", "random"]
    )
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_mesh_kind(bad)

    def test_build(self):
        m = graded_time_mesh(1.0, 4, parse_mesh_kind("graded:2"))
        assert m.t[1] == pytest.approx(1.0 / 16.0, rel=1e-15)
        m = graded_time_mesh(1.0, 4, parse_mesh_kind("uniform"))
        assert m.t[1] == 0.25


class TestRunSweep:

    def test_row_identity_columns(self, small_report):
        assert [r.N for r in small_report.rows] == [4, 8, 16]
        for line in small_report.to_csv().splitlines()[1:]:
            assert line.split(",")[:4] == ["0.5", "transformed", "uniform", "16"]

    def test_rates_where_ladder_doubles(self, small_report):
        rows = small_report.rows
        assert rows[0].rate is None
        for prev, cur in zip(rows, rows[1:]):
            assert cur.rate == pytest.approx(math.log2(prev.E1 / cur.E1), rel=1e-12)

    def test_errors_decrease(self, small_report):
        errs = [r.E1 for r in small_report.rows]
        assert errs[0] > errs[1] > errs[2] > 0.0

    def test_wall_seconds_populated(self, small_report):
        assert all(r.wall_seconds > 0.0 for r in small_report.rows)

    def test_non_doubling_ladder_has_no_rate(self):
        cfg = SweepConfig(alphas=(0.5,), M=8, Ns=(4, 6, 12))
        rows = run_sweep(cfg).rows
        assert rows[0].rate is None
        assert rows[1].rate is None  # 6 is not 2*4
        assert rows[2].rate is not None  # 12 is 2*6

    def test_deterministic_numeric_columns(self):
        cfg = SweepConfig(alphas=(0.25, 0.75), M=8, Ns=(4, 8))
        a = run_sweep(cfg).rows
        b = run_sweep(cfg).rows
        for ra, rb in zip(a, b):
            assert (ra.alpha, ra.N, ra.E1, ra.rate) == (rb.alpha, rb.N, rb.E1, rb.rate)

    @pytest.mark.parametrize("mesh_kind, grading", [("uniform", 1.0), ("graded:2", 2.0)])
    def test_final_time_reaches_every_mesh(self, mesh_kind, grading):
        cfg = SweepConfig(alphas=(0.5,), M=8, Ns=(4,), T=0.5, mesh_kind=mesh_kind)
        (row,) = run_sweep(cfg).rows
        p = manufactured_sin(0.5)
        lattice = solve(p, SpatialGrid(8), graded_time_mesh(0.5, 4, grading))
        assert lattice.mesh.T == 0.5
        assert row.E1 == lattice_error(lattice, p.exact_u, "max")

    def test_unknown_problem_label(self):
        cfg = SweepConfig(alphas=(0.5,), M=8, Ns=(4,), problem_label="nope")
        with pytest.raises(ValueError, match="unknown problem"):
            run_sweep(cfg)


class TestReportFormats:

    def test_csv_shape(self, report):
        lines = report.to_csv().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 6
        for line in lines[1:]:
            assert len(line.split(",")) == 8

    def test_csv_number_format(self, report):
        lines = report.to_csv().splitlines()[1:]
        sci = re.compile(r"^\d\.\d{5}e[+-]\d{2,3}$")
        for line in lines:
            fields = line.split(",")
            assert sci.match(fields[5]), fields[5]
            assert fields[6] == "" or sci.match(fields[6])
            assert sci.match(fields[7]), fields[7]

    def test_csv_first_row_has_empty_rate(self, report):
        first = report.to_csv().splitlines()[1]
        assert first.split(",")[6] == ""

    @pytest.mark.parametrize(
        "scheme, mesh_kind, M",
        [
            (SchemeKind.TRANSFORMED, "uniform", 8),
            (SchemeKind.L1, "uniform", 16),
            (SchemeKind.TRANSFORMED, "graded:2", 32),
        ],
    )
    def test_csv_identity_columns_come_from_config(self, scheme, mesh_kind, M):
        cfg = SweepConfig(alphas=(0.5, 0.25), M=M, Ns=(4, 8), scheme=scheme, mesh_kind=mesh_kind)
        rows = (ReportRow(0.5, 4, 1e-3, None, 0.1), ReportRow(0.25, 8, 2e-4, 2.0, 0.2))
        lines = ConvergenceReport(config=cfg, rows=rows).to_csv().splitlines()[1:]
        assert [line.split(",")[:5] for line in lines] == [
            ["0.5", scheme.value, mesh_kind, str(M), "4"],
            ["0.25", scheme.value, mesh_kind, str(M), "8"],
        ]

    def test_csv_ends_with_newline(self, report):
        assert report.to_csv().endswith("\n")

    def test_table_blocks(self, report):
        text = report.to_text()
        assert "alpha = 0.25" in text
        assert "alpha = 0.5" in text
        assert "*" in text
        # four-decimal rates
        assert re.search(r"\d\.\d{4}\n", text + "\n")


class TestSweepConfigValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SweepConfig(alphas=(), M=8, Ns=(4,))
        with pytest.raises(ValueError):
            SweepConfig(alphas=(0.5,), M=8, Ns=())

    def test_rejects_repeated_alpha(self):
        with pytest.raises(ValueError, match="repeated alpha"):
            SweepConfig(alphas=(0.5, 0.25, 0.5), M=8, Ns=(4,))

    def test_rejects_bad_norm(self):
        with pytest.raises(ValueError):
            SweepConfig(alphas=(0.5,), M=8, Ns=(4,), norm="sup")

    def test_rejects_bad_mesh_kind(self):
        with pytest.raises(ValueError):
            SweepConfig(alphas=(0.5,), M=8, Ns=(4,), mesh_kind="graded:0.2")
