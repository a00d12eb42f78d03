import os
from pathlib import Path
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import fracheat._render
import fracheat.cli
from fracheat._render import render
from fracheat.cli import _DUMP_FORMATS, main
from fracheat.harness import SweepConfig, run_sweep
from fracheat.meshes import SpatialGrid, graded_time_mesh, uniform_time_mesh
from fracheat.problems import manufactured_sin
from fracheat.solver import SolutionLattice, solve
from oracles import dump_text


def _lines(capsys):
    return capsys.readouterr().out.splitlines()


class TestConverge:
    def test_csv_to_stdout(self, capsys):
        rc = main([
            "converge", "--alpha", "0.5", "--spatial-cells", "8",
            "--time-steps", "2:8:x2",
        ])
        assert rc == 0
        lines = _lines(capsys)
        assert lines[0] == "alpha,scheme,mesh,M,N,E1,rate,wall_seconds"
        assert len(lines) == 4
        assert lines[1].split(",")[6] == ""  # first rung has no rate

    def test_multiple_alphas(self, capsys):
        rc = main([
            "converge", "--alpha", "0.25,0.75", "--spatial-cells", "8",
            "--time-steps", "2,4",
        ])
        assert rc == 0
        assert len(_lines(capsys)) == 5

    def test_table_format(self, capsys):
        rc = main([
            "converge", "--alpha", "0.5", "--spatial-cells", "8",
            "--time-steps", "2:4:x2", "--format", "table",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "alpha = 0.5" in out and "*" in out

    def test_norm_flag(self, capsys):
        rc = main([
            "converge", "--alpha", "0.5", "--spatial-cells", "8",
            "--time-steps", "2,4", "--norm", "l2",
        ])
        assert rc == 0

    def test_writes_output_file(self, tmp_path, capsys):
        path = tmp_path / "out.csv"
        rc = main([
            "converge", "--alpha", "0.5", "--spatial-cells", "8",
            "--time-steps", "2,4", "--output", str(path),
        ])
        assert rc == 0
        assert capsys.readouterr().out == ""
        data = path.read_bytes()
        assert b"\r" not in data
        assert data.decode("utf-8").startswith("alpha,scheme,mesh,")

    def test_graded_mesh_accepted(self, capsys):
        rc = main([
            "converge", "--alpha", "0.5", "--spatial-cells", "8",
            "--time-steps", "2,4", "--mesh", "graded:2",
        ])
        assert rc == 0

    def test_l1_accepts_a_grading_of_one(self, capsys):
        # graded:1 is the uniform mesh bit for bit, so only the mesh column
        # and the timings may differ.
        argv = ["converge", "--alpha", "0.5", "--spatial-cells", "8",
                "--time-steps", "2,4", "--scheme", "l1"]
        assert main(argv + ["--mesh", "graded:1"]) == 0
        graded = [line.split(",") for line in _lines(capsys)]
        assert main(argv) == 0
        uniform = [line.split(",") for line in _lines(capsys)]
        assert [row[2] for row in graded[1:]] == ["graded:1", "graded:1"]
        assert [row[3:7] for row in graded] == [row[3:7] for row in uniform]

    def test_l1_on_a_graded_mesh(self, capsys):
        # L1 runs on graded meshes like the transformed scheme: a row per
        # rung, each after the first with its rate, near 2 - alpha = 1.5.
        rc = main([
            "converge", "--alpha", "0.5", "--scheme", "l1", "--mesh", "graded:2",
            "--time-steps", "40:320:x2",
        ])
        assert rc == 0
        rows = [line.split(",") for line in _lines(capsys)[1:]]
        assert [row[:5] for row in rows] == [
            ["0.5", "l1", "graded:2", "100", str(N)] for N in (40, 80, 160, 320)
        ]
        rates = [float(row[6]) for row in rows[1:]]
        assert rows[0][6] == "" and all(1.4 < rate < 1.5 for rate in rates)

    def test_runtime_failure_exits_one(self, capsys):
        # u = sin(pi x) t**2 overflows at t = 5e299, and the solve says so
        rc = main([
            "converge", "--alpha", "0.25", "--spatial-cells", "4",
            "--time-steps", "2", "--final-time", "1e300",
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("fracheat: error: solution level 1 (t = 5e+299)")
        assert captured.out == ""

    def test_graded_mesh_names_a_final_time_too_small(self, capsys):
        # T*(1/200) underflows to 0 already, so the grading is not the cause
        rc = main([
            "converge", "--alpha", "0.5", "--spatial-cells", "4",
            "--time-steps", "200", "--final-time", "5e-324", "--mesh", "graded:1.5",
        ])
        assert rc == 1
        assert capsys.readouterr().err == (
            "fracheat: error: final time T=4.94066e-324 is too small for N=200 steps: "
            "t_1 = T*(1/200) rounds to t_0 = 0 even on the uniform mesh\n"
        )

    def test_sine_decay_at_the_default_final_time(self, capsys):
        # E_0.5(-pi**2) at t = 1, where the Taylor series cancels some 40
        # digits
        rc = main([
            "converge", "--problem", "sine-decay", "--alpha", "0.5",
            "--spatial-cells", "20", "--time-steps", "10:40:x2",
        ])
        assert rc == 0
        rows = [line.split(",") for line in _lines(capsys)[1:]]
        assert [row[5] for row in rows] == ["4.48232e-01", "3.44137e-01", "2.48367e-01"]

    def test_sine_decay_rates_on_a_graded_mesh(self, capsys):
        # the rates that r = 3 gives from N = 80 to 640
        rc = main([
            "converge", "--problem", "sine-decay", "--alpha", "0.25,0.5,0.75",
            "--mesh", "graded:3", "--spatial-cells", "100", "--time-steps", "40:640:x2",
        ])
        assert rc == 0
        rows = [line.split(",") for line in _lines(capsys)[1:]]
        rates = {
            alpha: [float(row[6]) for row in rows if row[0] == alpha and row[6]]
            for alpha in ("0.25", "0.5", "0.75")
        }
        assert all(len(r) == 4 for r in rates.values())
        assert all(1.11 <= r <= 1.40 for r in rates["0.25"])
        assert all(1.51 <= r <= 1.54 for r in rates["0.5"])
        assert all(1.75 <= r <= 1.79 for r in rates["0.75"])


class TestConvergeOutputFile:
    @pytest.mark.parametrize("fmt", ["csv", "table"])
    def test_matches_the_report(self, fmt, tmp_path, capsys):
        path = tmp_path / "report.txt"
        rc = main([
            "converge", "--alpha", "0.25,0.75", "--spatial-cells", "8",
            "--time-steps", "2:8:x2", "--mesh", "graded:2", "--norm", "l2",
            "--format", fmt, "--output", str(path),
        ])
        assert rc == 0
        assert capsys.readouterr().out == ""
        report = run_sweep(SweepConfig(
            alphas=(0.25, 0.75), M=8, Ns=(2, 4, 8), mesh_kind="graded:2", norm="l2",
        ))
        written = path.read_bytes().decode("utf-8")
        if fmt == "csv":
            # wall_seconds, the last column, is the only one that varies
            def mask(text):
                return [line.rsplit(",", 1)[0] for line in text.split("\n")]
            assert mask(written) == mask(report.to_csv())
        else:
            assert written == report.to_text()


class TestRunBytes:
    """``run`` output pinned byte for byte to the four-branch oracle."""

    @pytest.mark.parametrize("fmt", ["csv", "table"])
    @pytest.mark.parametrize("dump", ["profile", "lattice"])
    @pytest.mark.parametrize(
        "mesh_arg, N, mesh",
        [
            ("uniform", 9, lambda N: uniform_time_mesh(1.0, N)),
            ("graded:2", 7, lambda N: graded_time_mesh(1.0, N, 2.0)),
        ],
    )
    def test_matches_oracle(self, mesh_arg, N, mesh, dump, fmt, capsys):
        rc = main([
            "run", "--alpha", "0.5", "--spatial-cells", "10", "--time-steps", str(N),
            "--mesh", mesh_arg, "--dump", dump, "--format", fmt,
        ])
        assert rc == 0
        grid, m = SpatialGrid(10), mesh(N)
        lattice = solve(manufactured_sin(0.5), grid, m)
        expected = dump_text(grid.x, m.t, lattice.values, dump, fmt)
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("fmt", ["csv", "table"])
    def test_lattice_output_file_matches_oracle(self, fmt, tmp_path, capsys):
        path = tmp_path / "lattice.txt"
        rc = main([
            "run", "--alpha", "0.5", "--spatial-cells", "10", "--time-steps", "9",
            "--dump", "lattice", "--format", fmt, "--output", str(path),
        ])
        assert rc == 0
        assert capsys.readouterr().out == ""
        grid, m = SpatialGrid(10), uniform_time_mesh(1.0, 9)
        lattice = solve(manufactured_sin(0.5), grid, m)
        expected = dump_text(grid.x, m.t, lattice.values, "lattice", fmt)
        assert path.read_bytes() == expected.encode("utf-8")


# Signed zero, subnormal and normal extremes, and values on the rounding
# edges of .10g (1e-5 and 1e10 switch it to exponent form).
_EDGE_VALUES = [
    0.0, 5e-324, 2.2250738585072014e-308, 1e-5, 9.99999999995e-6, 9999999999.5,
    1e10, 0.1 + 0.2, 1 / 3, 1.5e-300, 1.7976931348623157e308,
]
# Exact decimal ties at 10 and at 7 digits, values just below a power of
# ten that round up to it, the 1e-4 switch of .10g, the first and last
# two-digit exponents and their neighbours, and what is not finite.
_ROUNDING_VALUES = [
    1234567890.5, 1234567.5, 0.5, 2.5, 9.9999999995, 9.9999995, 99999.999995,
    1e-4, 9.99999999995e-5, 1e-99, 1e99, 9.99999999995e98, 1e100, 1e-100,
    123456789.0, 1e22, 1e23, float("inf"), float("nan"),
]
_SIGNED_VALUES = [s * v for s in (1.0, -1.0) for v in _EDGE_VALUES + _ROUNDING_VALUES]
_U_SPECS = sorted({specs["u"] for _, specs in _DUMP_FORMATS.values()})


def _rendered(values, spec) -> list[str]:
    text = render(np.asarray(values, dtype=float), spec, 0).view(np.uint8)
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in text]


class TestRender:
    """The block renderer against Python's ``format``, the reference."""

    @pytest.mark.parametrize("spec", _U_SPECS)
    def test_edge_values_render_like_format(self, spec):
        expected = [format(v, spec) for v in _SIGNED_VALUES]
        assert _rendered(_SIGNED_VALUES, spec) == expected
        # alone, each value gets the narrowest row its text needs
        assert [_rendered([v], spec)[0] for v in _SIGNED_VALUES] == expected

    @pytest.mark.parametrize("spec", _U_SPECS)
    def test_random_values_render_like_format(self, spec, monkeypatch):
        rng = np.random.default_rng(25)
        n = 100_000
        values = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300.0, 300.0, n)
        fallbacks = []

        def counted_format(value, format_spec):
            fallbacks.append(value)
            return format(value, format_spec)

        monkeypatch.setattr(fracheat._render, "format", counted_format, raising=False)
        assert _rendered(values, spec) == [format(v, spec) for v in values.tolist()]
        assert len(fallbacks) < 1e-3 * n


class TestRunBlocks:
    """Lattices of edge values written a few levels a block, pinned to the
    four-branch oracle."""

    @pytest.mark.parametrize("fmt", ["csv", "table"])
    @pytest.mark.parametrize("dump", ["profile", "lattice"])
    @pytest.mark.parametrize("block_values", [1, 3 * len(_SIGNED_VALUES), None])
    def test_matches_oracle(self, block_values, dump, fmt, monkeypatch, capsys):
        M, N = len(_SIGNED_VALUES) - 1, 9
        grid, mesh = SpatialGrid(M), graded_time_mesh(1.0, N, 2.0)
        values = np.zeros((N + 1, M + 1))
        values[0] = _SIGNED_VALUES
        values[1:, 1:-1] = np.random.default_rng(5).choice(_SIGNED_VALUES, (N, M - 1))
        monkeypatch.setattr(fracheat.cli, "solve",
                            lambda *args: SolutionLattice(values, grid, mesh))
        if block_values is not None:
            monkeypatch.setattr(fracheat.cli, "_BLOCK_VALUES", block_values)
        rc = main([
            "run", "--alpha", "0.5", "--spatial-cells", str(M), "--time-steps", str(N),
            "--mesh", "graded:2", "--dump", dump, "--format", fmt,
        ])
        assert rc == 0
        assert capsys.readouterr().out == dump_text(grid.x, mesh.t, values, dump, fmt)


class TestRunStreaming:
    def test_lattice_dump_memory_is_the_lattice(self, tmp_path, capsys):
        # The text of the whole report is about 4.5 MB here; only one
        # level of it may be alive at a time.
        M, N = 100, 1024
        lattice_bytes = (N + 1) * (M + 1) * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            rc = main([
                "run", "--alpha", "0.5", "--spatial-cells", str(M),
                "--time-steps", str(N), "--dump", "lattice",
                "--output", str(tmp_path / "lattice.csv"),
            ])
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 3 * lattice_bytes

    def test_failed_solve_writes_no_file(self, tmp_path, monkeypatch, capsys):
        def failing_solve(*args, **kwargs):
            raise ValueError("solve failed")

        monkeypatch.setattr(fracheat.cli, "solve", failing_solve)
        path = tmp_path / "lattice.csv"
        rc = main([
            "run", "--alpha", "0.5", "--spatial-cells", "8", "--time-steps", "4",
            "--dump", "lattice", "--output", str(path),
        ])
        assert rc == 1
        assert "solve failed" in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize("dump, lines_read", [("lattice", 1), ("profile", 0)])
    def test_closed_stdout_exits_one_quietly(self, dump, lines_read):
        # ``| head -1`` on a lattice far larger than a pipe holds, so the
        # writer meets the closed pipe mid-dump; and a profile small enough
        # to sit in stdout's buffer, whose reader is gone before it starts.
        # stdout is buffered, as it is by default.
        src = Path(fracheat.cli.__file__).resolve().parents[1]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(src)
        with subprocess.Popen(
            [sys.executable, "-m", "fracheat.cli", "run", "--alpha", "0.5",
             "--time-steps", "2000", "--dump", dump],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        ) as proc:
            lines = [proc.stdout.readline() for _ in range(lines_read)]
            proc.stdout.close()
            err = proc.stderr.read()
            rc = proc.wait(timeout=120)
        assert lines == [b"t,x,u\n"][:lines_read]
        assert rc == 1
        assert err == b""

    @pytest.mark.parametrize("name", ["missing/out.csv", ""], ids=["no-such-dir", "a-dir"])
    def test_unwritable_output_exits_one(self, name, tmp_path, capsys):
        rc = main([
            "run", "--alpha", "0.5", "--time-steps", "8", "--output", str(tmp_path / name),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("fracheat: error:")
        assert list(tmp_path.iterdir()) == []


class TestRun:
    def test_zero_problem_profile(self, capsys):
        rc = main([
            "run", "--alpha", "0.5", "--spatial-cells", "8",
            "--time-steps", "4", "--problem", "zero",
        ])
        assert rc == 0
        lines = _lines(capsys)
        assert lines[0] == "x,u"
        assert len(lines) == 10
        assert all(line.endswith(",0") for line in lines[1:])

    def test_lattice_dump_size(self, capsys):
        rc = main([
            "run", "--alpha", "0.5", "--spatial-cells", "4",
            "--time-steps", "3", "--dump", "lattice",
        ])
        assert rc == 0
        lines = _lines(capsys)
        assert lines[0] == "t,x,u"
        assert len(lines) == 1 + 4 * 5

    @pytest.mark.parametrize("mesh", ["graded:1", "graded:1.0"])
    def test_l1_accepts_a_grading_of_one(self, mesh, capsys):
        argv = ["run", "--alpha", "0.5", "--spatial-cells", "4",
                "--time-steps", "8", "--scheme", "l1"]
        assert main(argv + ["--mesh", mesh]) == 0
        graded = capsys.readouterr().out
        assert main(argv) == 0
        assert graded == capsys.readouterr().out

    def test_table_profile(self, capsys):
        rc = main([
            "run", "--alpha", "0.5", "--spatial-cells", "4",
            "--time-steps", "2", "--format", "table",
        ])
        assert rc == 0
        assert "x" in _lines(capsys)[0]

    @pytest.mark.parametrize("scheme", ["transformed", "l1"])
    def test_overflowing_solve_prints_only_its_error(self, scheme):
        # At T = 1e300 the forcing overflows from level 1 on: the closed
        # form with numpy's inf, L1's f with Python's OverflowError.  Its
        # own RuntimeWarnings, numpy's from the transforms and the report of
        # the first bad level used to reach stderr together; warnings are
        # shown once per place by default, so a fresh interpreter runs it.
        src = Path(fracheat.cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONWARNINGS="default")
        proc = subprocess.run(
            [sys.executable, "-m", "fracheat.cli", "run", "--alpha", "0.5", "--scheme", scheme,
             "--time-steps", "100", "--spatial-cells", "4", "--final-time", "1e300"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == (
            "fracheat: error: solution level 1 (t = 1e+298) is not finite: the forcing "
            "or the initial data is not finite, or too large, up to that time\n"
        )

    def test_colliding_graded_levels_exit_one(self, capsys):
        # (1/40)**19999 underflows: the mesh names the grading, not only
        # levels that fail to increase.
        rc = main(["run", "--mesh", "graded:19999", "--time-steps", "40", "--alpha", "0.0001"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "fracheat: error: grading r=19999.0 is too strong for N=40 steps: "
            "t_1 = T*(1/40)**r rounds to t_0 = 0\n"
        )

    def test_colliding_uniform_levels_exit_one(self, capsys):
        # T*(1/200) underflows: the mesh names the final time, not only
        # levels that fail to increase.
        argv = ["run", "--alpha", "0.5", "--time-steps", "200", "--final-time", "5e-324",
                "--spatial-cells", "4"]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "fracheat: error: final time T=4.94066e-324 is too small for N=200 steps: "
            "t_1 = T*(1/200) rounds to t_0 = 0\n"
        )


# The one message of the grading-exponent check that ``meshes`` owns.
_GRADING_MESSAGE = "grading exponent must be finite and satisfy r >= 1, got r="


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["converge", "--alpha", "1.5", "--time-steps", "8"],
            ["converge", "--alpha", "0.5", "--time-steps", "10:640:x3"],
            ["converge", "--alpha", "0.5", "--time-steps", "10:639:x2"],
            ["converge", "--alpha", "0.5", "--time-steps", "0:8:x2"],
            ["converge", "--alpha", "0.5", "--time-steps", "8",
             "--problem", "unknown-problem"],
            ["converge", "--alpha", "0.5", "--time-steps", "8", "--mesh", "graded:0.3"],
            ["run", "--alpha", "0.25,0.75", "--time-steps", "8"],
            ["run", "--alpha", "0.5", "--time-steps", "2:8:x2"],
            ["run", "--alpha", "0.5", "--time-steps", "8", "--spatial-cells", "1"],
            ["converge", "--alpha", "0.5", "--time-steps", "8", "--final-time", "-1"],
            ["missing-subcommand"],
            ["run", "--alpha", "0.5", "--time-steps", "8", "--norm", "l2"],
            ["converge", "--alpha", "0.5", "--time-steps", "8", "--final-time", "nan"],
            ["converge", "--alpha", "0.5", "--time-steps", "8", "--final-time", "inf"],
            ["run", "--alpha", "0.5", "--time-steps", "8", "--mesh", "graded:nan"],
            ["run", "--alpha", "0.5", "--time-steps", "8", "--mesh", "graded:inf"],
            ["converge", "--alpha", "0.5", "--time-steps", "0,4"],
            ["converge", "--alpha", "0.5,0.5", "--time-steps", "4,8"],
            ["converge", "--alpha", "0.5", "--time-steps", "8", "--format", "json"],
        ],
    )
    def test_exit_code_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err != ""

    @pytest.mark.parametrize(
        "option, value, cause",
        [
            ("--final-time", "nan", "final time must be positive and finite, got nan"),
            ("--final-time", "inf", "final time must be positive and finite, got inf"),
            ("--mesh", "graded:nan", _GRADING_MESSAGE + "nan"),
            ("--mesh", "graded:inf", _GRADING_MESSAGE + "inf"),
            ("--mesh", "graded:0.5", _GRADING_MESSAGE + "0.5"),
            ("--time-steps", "0,4", "time-step counts must be >= 1, got '0,4'"),
            ("--alpha", "0.5,0.5", "repeated alpha in '0.5,0.5'"),
        ],
    )
    def test_message_names_the_input(self, option, value, cause, capsys):
        # a repeated option overrides the earlier one
        with pytest.raises(SystemExit):
            main(["converge", "--alpha", "0.5", "--time-steps", "8", option, value])
        assert cause in capsys.readouterr().err

    def test_ladder_doubling_accepted(self, capsys):
        rc = main([
            "converge", "--alpha", "0.5", "--spatial-cells", "8",
            "--time-steps", "2:16:x2",
        ])
        assert rc == 0
        assert len(_lines(capsys)) == 5
