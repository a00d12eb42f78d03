"""The package's re-exported names, pinned so that a removal is deliberate."""

import fracheat

EXPECTED = {
    # harness
    "ConvergenceReport",
    "ReportRow",
    "SweepConfig",
    "lattice_error",
    "max_lattice_error",
    "parse_mesh_kind",
    "run_sweep",
    # meshes
    "SpatialGrid",
    "TemporalMesh",
    "graded_time_mesh",
    "uniform_time_mesh",
    # operators
    "TridiagonalSystem",
    "apply_compact",
    "norm_energy",
    "solve_tridiagonal",
    # problems
    "ProblemSpec",
    "available_problems",
    "get_problem",
    "manufactured_sin",
    "sine_decay",
    "zero_problem",
    # quadrature
    "weights_row",
    # solver
    "SchemeKind",
    "SolutionLattice",
    "solve",
    # special
    "mittag_leffler",
}


def test_all_is_the_expected_surface():
    assert len(fracheat.__all__) == len(set(fracheat.__all__)) == 26
    assert set(fracheat.__all__) == EXPECTED


def test_every_exported_name_resolves():
    for name in fracheat.__all__:
        assert getattr(fracheat, name) is not None, name
