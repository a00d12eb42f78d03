"""Finite difference solvers for the 1-D time-fractional diffusion equation.

The Caputo-order problem is integrated in time and discretized by exact
kernel-step quadrature against endpoint averages, paired with a compact
fourth-order spatial stencil; a classical L1 scheme is included as a
baseline.  See ``solver`` for the schemes, ``problems`` for benchmark
instances, and ``harness`` for convergence sweeps and reporting.
"""

from .harness import (
    ConvergenceReport,
    ReportRow,
    SweepConfig,
    lattice_error,
    max_lattice_error,
    parse_mesh_kind,
    run_sweep,
)
from .meshes import SpatialGrid, TemporalMesh, graded_time_mesh, uniform_time_mesh
from .operators import TridiagonalSystem, apply_compact, norm_energy, solve_tridiagonal
from .problems import (
    ProblemSpec,
    available_problems,
    get_problem,
    manufactured_sin,
    sine_decay,
    zero_problem,
)
from .quadrature import weights_row
from .solver import SchemeKind, SolutionLattice, solve
from .special import mittag_leffler

__all__ = [
    "ConvergenceReport",
    "ReportRow",
    "SweepConfig",
    "lattice_error",
    "max_lattice_error",
    "parse_mesh_kind",
    "run_sweep",
    "SpatialGrid",
    "TemporalMesh",
    "graded_time_mesh",
    "uniform_time_mesh",
    "TridiagonalSystem",
    "apply_compact",
    "norm_energy",
    "solve_tridiagonal",
    "ProblemSpec",
    "available_problems",
    "get_problem",
    "manufactured_sin",
    "sine_decay",
    "zero_problem",
    "weights_row",
    "SchemeKind",
    "SolutionLattice",
    "solve",
    "mittag_leffler",
]

__version__ = "0.1.0"
