"""The benchmark's workloads.

Each workload builds its inputs from a seed (``build``), then runs one
*pass*, the unit of work a user does once (``run_pass``), and returns the
outputs the reference check needs.  Passes call the library only through
attribute lookups on ``fracheat`` modules at call time, so the tracer can
rebind those names.

Importing this module puts the checkout's ``src/`` first on ``sys.path``
and imports ``fracheat`` from there; that import is part of ``setup_s``.
"""

from __future__ import annotations

import dataclasses
import os
import random
import sys
from pathlib import Path
from typing import Any, Callable, Optional

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import fracheat  # noqa: E402
import fracheat.cli  # noqa: E402
import fracheat.harness  # noqa: E402

# The seed picks one of these for every single-solve workload.
ALPHAS = (0.25, 0.5, 0.75)


def pick_alpha(seed: int) -> float:
    return random.Random(seed).choice(ALPHAS)


@dataclasses.dataclass(frozen=True)
class SolveInputs:
    alpha: float
    problem: Any
    grid: Any
    mesh: Any


@dataclasses.dataclass(frozen=True)
class SolveOutput:
    """Final profile and E1 of one solve, keyed by its scheme value."""

    scheme: str
    profile: np.ndarray
    e1: float


@dataclasses.dataclass(frozen=True)
class SingleSolve:
    """``manufactured_sin`` solved once per scheme, with E1 against exact_u."""

    name: str
    M: int
    N: int
    schemes: tuple[str, ...]
    grading: float = 1.0
    quadrature_forcing: bool = False  # drop exact_f_conv so the solver integrates f

    @property
    def solves_per_pass(self) -> int:
        return len(self.schemes)

    @property
    def cells_per_pass(self) -> int:
        return len(self.schemes) * self.N * (self.M - 1)

    def build(self, seed: int) -> SolveInputs:
        return self.inputs_for(pick_alpha(seed))

    def inputs_for(self, alpha: float) -> SolveInputs:
        problem = fracheat.manufactured_sin(alpha)
        if self.quadrature_forcing:
            problem = dataclasses.replace(problem, exact_f_conv=None)
        grid = fracheat.SpatialGrid(self.M)
        mesh = fracheat.graded_time_mesh(1.0, self.N, self.grading)
        return SolveInputs(alpha=alpha, problem=problem, grid=grid, mesh=mesh)

    def traced_inputs(self, inputs: SolveInputs, wrap_problem: Callable) -> SolveInputs:
        return dataclasses.replace(inputs, problem=wrap_problem(inputs.problem))

    def run_pass(self, inputs: SolveInputs) -> list[SolveOutput]:
        out = []
        for scheme in self.schemes:
            lattice = fracheat.solve(
                inputs.problem, inputs.grid, inputs.mesh, fracheat.SchemeKind(scheme)
            )
            e1 = fracheat.harness.max_lattice_error(lattice, inputs.problem.exact_u)
            out.append(SolveOutput(scheme, np.array(lattice.values[-1]), float(e1)))
        return out


@dataclasses.dataclass(frozen=True)
class CliInputs:
    converge_path: Path
    dump_path: Path


@dataclasses.dataclass(frozen=True)
class CliOutput:
    """Exit codes and the text each command wrote (None if it wrote nothing)."""

    codes: tuple[int, int]
    converge_csv: Optional[str]
    lattice_csv: Optional[str]


@dataclasses.dataclass(frozen=True)
class CliSweep:
    """``fracheat converge`` over a ladder, then one ``fracheat run --dump lattice``.

    Both commands run in-process through ``fracheat.cli.main`` and write
    their report to a file, as a user would with ``--output``.  The inputs
    are fixed by the paper's table, so the seed does not change them.
    """

    name: str
    alphas: str
    M: int
    ladder: str
    dump_alpha: str
    dump_N: int

    def _steps(self) -> list[int]:
        lo, hi, _ = self.ladder.split(":")
        steps = [int(lo)]
        while steps[-1] < int(hi):
            steps.append(2 * steps[-1])
        return steps

    @property
    def solves_per_pass(self) -> int:
        return len(self.alphas.split(",")) * len(self._steps()) + 1

    @property
    def cells_per_pass(self) -> int:
        sweep = len(self.alphas.split(",")) * sum(self._steps())
        return (sweep + self.dump_N) * (self.M - 1)

    def build(self, seed: int) -> CliInputs:
        WORK.mkdir(exist_ok=True)
        tag = f"{self.name}-{os.getpid()}"
        return CliInputs(
            converge_path=WORK / f"{tag}-converge.csv",
            dump_path=WORK / f"{tag}-lattice.csv",
        )

    def traced_inputs(self, inputs: CliInputs, wrap_problem: Callable) -> CliInputs:
        return inputs  # the tracer reaches these problems through get_problem

    def run_pass(self, inputs: CliInputs) -> CliOutput:
        common = ["--spatial-cells", str(self.M)]
        converge = fracheat.cli.main(
            ["converge", "--alpha", self.alphas, "--time-steps", self.ladder]
            + common + ["--output", str(inputs.converge_path)]
        )
        run = fracheat.cli.main(
            ["run", "--alpha", self.dump_alpha, "--time-steps", str(self.dump_N),
             "--dump", "lattice"] + common + ["--output", str(inputs.dump_path)]
        )
        return CliOutput(
            codes=(converge, run),
            converge_csv=_take_text(inputs.converge_path),
            lattice_csv=_take_text(inputs.dump_path),
        )


def _take_text(path: Path) -> Optional[str]:
    """Read and delete a report, so a later pass never sees a stale one."""
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None
    path.unlink()
    return text


# Why each workload is here is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        CliSweep("golden-sweep", alphas="0.25,0.5,0.75", M=100, ladder="10:640:x2",
                 dump_alpha="0.5", dump_N=640),
        SingleSolve("long-history", M=100, N=2048, schemes=("transformed",)),
        SingleSolve("wide-space", M=2000, N=128, schemes=("transformed", "l1")),
        SingleSolve("graded-fallback", M=100, N=640, schemes=("transformed",),
                    grading=2.0, quadrature_forcing=True),
    )
}
