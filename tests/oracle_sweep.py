"""Seeded whole solves checked against the per-mode oracle.

    PYTHONPATH=src python tests/oracle_sweep.py [--draws 1000] [--seed 0]

Each draw picks a fractional order, a final time, a uniform or graded
mesh, N, M, a scheme and a problem (``manufactured-sin`` with closed-form
or quadrature forcing, or ``sine-decay``).  Its solve must agree with
``oracles.per_mode_march`` within ``TOL`` of the lattice's largest value,
or raise ValueError naming a cause: graded levels that collide, a kernel
weight that underflows or a level that is not finite, each of which
T*(n/N)**r or the oracle must confirm.  A draw that agrees is solved once
more with its forcing NaN from a drawn level n on, and must name level
max(n, 1), the first to read that forcing.  The script prints each draw
that fails and a summary, and exits 1 if any failed;
``tests/test_per_mode_oracle.py`` runs a sample of the same draws.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import sys
import time
from typing import Optional

import numpy as np

from fracheat import SpatialGrid, graded_time_mesh, manufactured_sin, sine_decay, solve
from fracheat.solver import _BLOCK, _WINDOW, SchemeKind
from oracles import kernel_step_integrals, per_mode_march

TOL = 1e-10
ALPHAS = (1e-9, 1e-4, 0.1, 0.5, 0.9, 1.0 - 1e-4, 1.0 - 1e-9)
TIMES = (1e-8, 1e-2, 1.0, 1e2, 1e6)
# Uniform, graded, and graded by r = (2 - alpha) / alpha, the grading of
# Stynes, O'Riordan & Gracia for L1 (None).
GRADINGS = (1.0, 1.5, 3.0, 8.0, None)
# Across one block, and across the window plus a block, past which the far
# history goes through the exponential sums.
NS = (1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, _WINDOW + _BLOCK, _WINDOW + _BLOCK + 1, 300, 700)
# Sine transforms by matrix product up to M = 255, by FFT from 256.
MS = (2, 3, 16, 255, 256)
PROBLEMS = ("manufactured-sin", "manufactured-sin-quadrature", "sine-decay")

_WEIGHT = re.compile(r"kernel weight a_(\d+) of level (\d+) is not positive and finite")
_LEVEL = re.compile(r"solution level (\d+) \(t = .*\) is not finite")
# Either cause of colliding levels: the grading, or a final time too small
# for the uniform levels T*(n/N) as well (group 1 is then "T").
_MESH = re.compile(
    r"(?:grading r=\S+ is too strong|final time (T)=\S+ is too small) for N=\d+ steps: t_(\d+) = "
)


@dataclasses.dataclass(frozen=True)
class Case:
    alpha: float
    T: float
    r: float
    N: int
    M: int
    scheme: SchemeKind
    problem: str
    # The level from which the forcing of the poisoned re-solve is NaN.
    poison: int

    def __str__(self) -> str:
        return (
            f"{self.problem} {self.scheme.value} alpha={self.alpha!r} T={self.T:g} "
            f"r={self.r!r} N={self.N} M={self.M}"
        )

    def build(self):
        """The problem and the mesh; the mesh raises if its levels collide."""
        p = (sine_decay if self.problem == "sine-decay" else manufactured_sin)(self.alpha)
        if self.problem.endswith("quadrature"):
            p = dataclasses.replace(p, exact_f_conv=None)
        return p, graded_time_mesh(self.T, self.N, self.r)


def draw(rng: np.random.Generator, levels: np.random.Generator) -> Case:
    """One case from ``rng``, and its poisoned level from ``levels``."""
    alpha = float(rng.choice(ALPHAS))
    r = GRADINGS[rng.integers(len(GRADINGS))]
    T = float(rng.choice(TIMES))
    N = int(rng.choice(NS))
    return Case(
        alpha=alpha,
        T=T,
        r=(2.0 - alpha) / alpha if r is None else r,
        N=N,
        M=int(rng.choice(MS)),
        scheme=list(SchemeKind)[rng.integers(2)],
        problem=str(rng.choice(PROBLEMS)),
        poison=int(levels.integers(N + 1)),
    )


def cases(seed: int, count: int) -> list[Case]:
    # The poisoned levels come from a stream of their own, so that the
    # cases are drawn from ``seed`` as they were before it.
    rng, levels = np.random.default_rng(seed), np.random.default_rng([seed, 1])
    return [draw(rng, levels) for _ in range(count)]


def _require(ok: bool, message: str) -> None:
    # Not an assert, which ``python -O`` would strip outside test modules.
    if not ok:
        raise AssertionError(message)


def check(case: Case) -> tuple[str, object]:
    """Solve ``case``: ("agrees", its error relative to the lattice's largest
    value) or ("refused", the message); AssertionError if it did neither.

    A refused kernel weight must underflow in the oracle too, and a level
    refused as not finite must not be finite there either.
    """
    l1 = case.scheme is SchemeKind.L1
    try:
        p, mesh = case.build()
        got = solve(p, SpatialGrid(case.M), mesh, case.scheme).values
    except ValueError as exc:
        message = str(exc)
        weight, level, collide = (cause.search(message) for cause in (_WEIGHT, _LEVEL, _MESH))
        if collide:
            n, power = int(collide[2]), 1.0 if collide[1] else case.r
            t = [case.T * (k / case.N) ** power for k in (n - 1, n)]
            _require(not t[1] > t[0], f"{case}: refused, but t_{n - 1}, t_{n} are {t}")
            return "refused", message
        if weight:
            k, n = int(weight[1]), int(weight[2])
            c = kernel_step_integrals(1.0 - case.alpha if l1 else case.alpha, mesh.t, n)
            _require(not c[k - 1] > 0.0, f"{case}: refused, but the oracle's a_{k} is {c[k - 1]}")
            return "refused", message
        if level:
            with np.errstate(all="ignore"):
                ref = per_mode_march(p, case.M, mesh.t, l1)
            n = int(level[1])
            finite = np.isfinite(ref[: n + 1]).all()
            _require(not finite, f"{case}: refused, but the oracle is finite")
            return "refused", message
        raise AssertionError(f"{case}: refused for no named cause: {message}") from exc
    ref = per_mode_march(p, case.M, mesh.t, l1)
    scale = np.max(np.abs(ref))
    err = np.max(np.abs(got - ref)) / scale
    _require(err <= TOL, f"{case}: off the oracle by {err:.3g} of the largest value {scale:.3g}")
    _check_poisoned(case, p, mesh)
    return "agrees", err


def _check_poisoned(case: Case, p, mesh) -> None:
    """Solve ``case`` with its forcing, and closed form if any, NaN from
    level ``case.poison`` on: the solve must name level max(poison, 1)."""
    t_bad, named = mesh.t[case.poison], max(case.poison, 1)

    def poisoned(fn):
        return lambda x, t: fn(x, t) + np.where(t >= t_bad, np.nan, 0.0)

    p = dataclasses.replace(p, f=poisoned(p.f))
    if p.exact_f_conv is not None:
        p = dataclasses.replace(p, exact_f_conv=poisoned(p.exact_f_conv))
    try:
        solve(p, SpatialGrid(case.M), mesh, case.scheme)
    except ValueError as exc:
        level = _LEVEL.search(str(exc))
        _require(
            level is not None and int(level[1]) == named,
            f"{case}: forcing NaN from level {case.poison} refused as: {exc}",
        )
    else:
        raise AssertionError(f"{case}: forcing NaN from level {case.poison} solved")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    start, failed, refused, worst = time.perf_counter(), 0, 0, 0.0
    for i, case in enumerate(cases(args.seed, args.draws)):
        try:
            kind, detail = check(case)
        except AssertionError as exc:
            failed += 1
            print(f"draw {i}: {exc}", flush=True)
            continue
        if kind == "refused":
            refused += 1
        else:
            worst = max(worst, detail)
    print(
        f"{args.draws} draws (seed {args.seed}): {failed} failed, {refused} refused "
        f"with a cause, the others agree to {worst:.2g}, in {time.perf_counter() - start:.1f} s"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
