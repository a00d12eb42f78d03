import os
from pathlib import Path
import subprocess
import sys
import tracemalloc

import pytest

import fracheat.cli
from fracheat.cli import _DUMP_FORMATS, _percent_spec, main
from fracheat.harness import SweepConfig, run_sweep
from fracheat.meshes import SpatialGrid, graded_time_mesh, uniform_time_mesh
from fracheat.problems import manufactured_sin
from fracheat.solver import solve
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
        # sine-decay at T = 1 needs series arguments the reference
        # evaluator cannot sum for small alpha, so error measurement fails
        rc = main([
            "converge", "--alpha", "0.25", "--spatial-cells", "4",
            "--time-steps", "2", "--problem", "sine-decay",
        ])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_cancelled_reference_exits_one(self, capsys):
        # E_0.5(-pi**2) at t = 1: the series cancels some 40 digits, and the
        # report used to print E1 = 9.13974e+27 with exit status 0
        rc = main([
            "converge", "--problem", "sine-decay", "--alpha", "0.5",
            "--spatial-cells", "20", "--time-steps", "10:40:x2",
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("fracheat: error:")
        assert captured.out == ""


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


@pytest.mark.parametrize(
    "spec", sorted({s for _, specs in _DUMP_FORMATS.values() for s in specs.values()})
)
def test_percent_spec_renders_like_format(spec):
    conversion = _percent_spec(spec)
    for v in _EDGE_VALUES + [-v for v in _EDGE_VALUES]:
        assert conversion % v == format(v, spec), v


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

    def test_overflowing_solve_prints_only_its_error(self):
        # At T = 1e300 the forcing overflows from level 1 on.  Its own
        # RuntimeWarnings, numpy's from the transforms and the report of
        # the first bad level used to reach stderr together; warnings are
        # shown once per place by default, so a fresh interpreter runs it.
        src = Path(fracheat.cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONWARNINGS="default")
        proc = subprocess.run(
            [sys.executable, "-m", "fracheat.cli", "run", "--alpha", "0.5",
             "--time-steps", "100", "--spatial-cells", "4", "--final-time", "1e300"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == (
            "fracheat: error: solution level 1 (t = 1e+298) is not finite: the forcing "
            "or the initial data is not finite, or too large, up to that time\n"
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
