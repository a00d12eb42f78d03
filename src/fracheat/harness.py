"""Convergence sweeps and their reporting.

A sweep runs one scheme over a ladder of time-step counts for each
requested fractional order, measures the error against the problem's exact
solution, and tags each refinement with its observed rate
log2(E(N/2) / E(N)) whenever the ladder actually doubled.  Reports render
to CSV (machine-readable, stable column set) or to an aligned text table
with one block per order.  The harness writes no files: choosing a format
and a destination is the command line's job.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .meshes import SpatialGrid, _check_grading, graded_time_mesh
from .operators import norm_energy, norm_l2
from .problems import get_problem
from .solver import SchemeKind, SolutionLattice, solve

__all__ = [
    "SweepConfig",
    "ReportRow",
    "ConvergenceReport",
    "max_lattice_error",
    "lattice_error",
    "parse_mesh_kind",
    "run_sweep",
]

CSV_HEADER = "alpha,scheme,mesh,M,N,E1,rate,wall_seconds"


# Error rows scored per block: about 64 KB of doubles.
_SCORE_BYTES = 1 << 16

# Error norms by name: each maps a stack of level errors (which it may
# overwrite) and the grid width h to one norm per row.
_LEVEL_NORMS: dict[str, Callable[[np.ndarray, float], np.ndarray]] = {
    "max": lambda d, h: np.abs(d, out=d).max(axis=-1),
    "a": norm_energy,
    "l2": norm_l2,
}


def _level_norm(norm: str) -> Callable[[np.ndarray, float], np.ndarray]:
    """The level norm named ``norm``, or ValueError naming the known ones."""
    try:
        return _LEVEL_NORMS[norm]
    except KeyError:
        raise ValueError(f"unknown norm {norm!r} (known: {', '.join(_LEVEL_NORMS)})") from None


def lattice_error(
    lattice: SolutionLattice,
    exact: Callable[[np.ndarray, float], np.ndarray],
    norm: str = "max",
) -> float:
    """Error in the chosen norm, maximized over time levels.

    ``max`` is the pointwise lattice maximum, ``l2`` and ``a`` take the
    discrete L2 and energy norms of each level's error and report the
    largest one.  ``exact`` is called once per level, and the differences
    of a block of levels fill the rows of one reused buffer, which one call
    of the norm scores row by row.  A non-finite error raises ValueError,
    naming the first level that has one.
    """
    level_norm = _level_norm(norm)
    values, x, t = lattice.values, lattice.grid.x, lattice.mesh.t.tolist()
    rows = max(1, _SCORE_BYTES // values[0].nbytes)
    buf = np.empty((min(rows, len(t)), values.shape[1]))
    worst = 0.0
    for start in range(0, len(t), rows):
        diff = buf[: min(rows, len(t) - start)]
        for k, row in enumerate(diff):
            row[:] = exact(x, t[start + k])
        np.subtract(values[start : start + len(diff)], diff, out=diff)
        errs = level_norm(diff, lattice.grid.h)
        bad = np.flatnonzero(~np.isfinite(errs))
        if bad.size:
            n = start + int(bad[0])
            raise ValueError(
                f"error at level {n} (t = {t[n]:g}) is not finite ({float(errs[bad[0]])})"
            )
        worst = max(worst, float(errs.max()))
    return worst


def max_lattice_error(
    lattice: SolutionLattice, exact: Callable[[np.ndarray, float], np.ndarray]
) -> float:
    """``lattice_error`` in the ``max`` norm: the largest pointwise error
    over every node of every level."""
    return lattice_error(lattice, exact)


def parse_mesh_kind(mesh_kind: str) -> float:
    """Return the grading exponent encoded by a mesh kind string.

    ``"uniform"`` maps to r = 1; ``"graded:<r>"`` to its exponent.
    """
    if mesh_kind == "uniform":
        return 1.0
    if mesh_kind.startswith("graded:"):
        try:
            r = float(mesh_kind.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad grading exponent in {mesh_kind!r}") from None
        _check_grading(r)
        return r
    raise ValueError(f"unknown mesh kind {mesh_kind!r} (use uniform or graded:<r>)")


@dataclass(frozen=True)
class SweepConfig:
    """Everything one convergence sweep depends on.

    ``Ns`` is consumed in order; a row gets a rate exactly when the
    previous row of the same alpha used half its step count.  ``norm``
    selects the error measure (max, a, or l2).  Each alpha may appear once.
    """

    alphas: tuple[float, ...]
    M: int
    Ns: tuple[int, ...]
    T: float = 1.0
    scheme: SchemeKind = SchemeKind.TRANSFORMED
    mesh_kind: str = "uniform"
    problem_label: str = "manufactured-sin"
    norm: str = "max"

    def __post_init__(self) -> None:
        if len(self.alphas) == 0 or len(self.Ns) == 0:
            raise ValueError("need at least one alpha and one N")
        if len(set(self.alphas)) != len(self.alphas):
            raise ValueError(f"repeated alpha in {self.alphas}")
        parse_mesh_kind(self.mesh_kind)  # fail fast on bad mesh strings
        _level_norm(self.norm)


@dataclass(frozen=True)
class ReportRow:
    """One solve of a sweep; its scheme, mesh and M are the report's config."""

    alpha: float
    N: int
    E1: float
    rate: Optional[float]
    wall_seconds: float


@dataclass(frozen=True)
class ConvergenceReport:
    config: SweepConfig
    rows: tuple[ReportRow, ...] = field(default_factory=tuple)

    def to_csv(self) -> str:
        cfg = self.config
        lines = [CSV_HEADER]
        for r in self.rows:
            rate = "" if r.rate is None else f"{r.rate:.5e}"
            lines.append(
                f"{r.alpha:g},{cfg.scheme.value},{cfg.mesh_kind},{cfg.M},{r.N},"
                f"{r.E1:.5e},{rate},{r.wall_seconds:.5e}"
            )
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        cfg = self.config
        out = []
        for alpha in cfg.alphas:
            out.append(
                f"alpha = {alpha:g}   "
                f"(problem={cfg.problem_label}, scheme={cfg.scheme.value}, "
                f"mesh={cfg.mesh_kind}, M={cfg.M}, norm={cfg.norm})"
            )
            out.append(f"{'N':>8}  {'E1':>12}  {'rate':>8}")
            for r in self.rows:
                if r.alpha != alpha:
                    continue
                rate = "*" if r.rate is None else f"{r.rate:.4f}"
                out.append(f"{r.N:>8}  {r.E1:>12.4e}  {rate:>8}")
            out.append("")
        return "\n".join(out)


def run_sweep(config: SweepConfig) -> ConvergenceReport:
    """Run the whole ladder sequentially and collect one row per solve.

    Rows appear in (alpha, N) iteration order, so repeated runs produce
    identical numeric columns; only ``wall_seconds`` varies between runs.
    The report is returned, not written: render it with ``to_csv`` or
    ``to_text``.
    """
    grid = SpatialGrid(config.M)
    rows: list[ReportRow] = []
    grading = parse_mesh_kind(config.mesh_kind)
    for alpha in config.alphas:
        problem = get_problem(config.problem_label, alpha)
        if problem.exact_u is None:
            raise ValueError(
                f"problem {config.problem_label!r} has no exact solution to sweep against"
            )
        prev: Optional[ReportRow] = None
        for N in config.Ns:
            mesh = graded_time_mesh(config.T, N, grading)
            start = time.perf_counter()
            lattice = solve(problem, grid, mesh, config.scheme)
            wall = time.perf_counter() - start
            err = lattice_error(lattice, problem.exact_u, config.norm)
            rate = None
            if prev is not None and N == 2 * prev.N and err > 0.0 and prev.E1 > 0.0:
                rate = float(np.log2(prev.E1 / err))
            row = ReportRow(
                alpha=alpha,
                N=N,
                E1=err,
                rate=rate,
                wall_seconds=wall,
            )
            rows.append(row)
            prev = row
    return ConvergenceReport(config=config, rows=tuple(rows))
