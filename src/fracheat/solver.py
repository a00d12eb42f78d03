"""Time stepping for the fractional diffusion problem.

Both schemes are one linear Volterra march.  With H the compact average
(v[i-1] + 10 v[i] + v[i+1]) / 12 and D2 the centered second difference,
level n solves

    (p H - r D2) u^n = rhs^n,    u^n_0 = u^n_M = 0,

by two O(M) substitution sweeps, after one weighted sum over the history.
The level matrix p H - r D2 is factored only when (p, r) changes: once
per solve for L1 and for transformed meshes whose steps are bitwise
equal, once per level on graded meshes.  The schemes are:

* ``SchemeKind.TRANSFORMED`` discretizes the integrated (Volterra) form of
  the problem with the exact kernel step weights a_1..a_n of level n
  (a_0 = 0) and endpoint averages of the integrand.  Here (p, r) =
  (1, a_n/2) and

      rhs^n = H phi + H q^n + D2 sum_{j<n} w_j u^j,   w_j = (a_j + a_{j+1})/2,

  where q^n is the fractional integral of the forcing at t_n, either in
  closed form or by the same product quadrature over samples of f taken
  once per level.  Spatial accuracy is fourth order thanks to the compact
  stencil; the temporal error comes only from averaging the integrand over
  steps, so no time derivative of the solution is ever formed and graded
  meshes are supported directly.

* ``SchemeKind.L1`` is the classical baseline on a uniform mesh: the
  Caputo derivative is replaced by the L1 difference quotient, so (p, r) =
  (lambda, 1) with lambda = 1 / (Gamma(2 - alpha) tau**alpha), and
  rhs^n = lambda H (L1 history combination) + H f(t_n).

Every interior row has dominance gap min(p, 8p/12 + 4r/h**2) >= 2p/3 for
both schemes, so the pivot-free Thomas solve is safe; the factorization
checks the dominance of every matrix it factors.  A non-finite level can
only come from non-finite (or overflowing) forcing or initial data, and
``solve`` names the first one instead of returning it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .meshes import SpatialGrid, TemporalMesh
from .operators import (
    TridiagonalFactors,
    apply_compact,
    apply_second_diff,
    factor_tridiagonal,
)
from .problems import ProblemSpec
from .quadrature import weights_row
from .special import gamma

__all__ = ["SchemeKind", "SolutionLattice", "solve"]


class SchemeKind(enum.Enum):
    TRANSFORMED = "transformed"
    L1 = "l1"


@dataclass(frozen=True)
class SolutionLattice:
    """All computed levels: ``values[n, i]`` approximates u(x_i, t_n)."""

    values: np.ndarray
    grid: SpatialGrid
    mesh: TemporalMesh

    def __post_init__(self) -> None:
        v = np.ascontiguousarray(self.values, dtype=float)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        if v.shape != (self.mesh.N + 1, self.grid.M + 1):
            raise ValueError(
                f"lattice shape {v.shape} does not match "
                f"(N+1, M+1) = {(self.mesh.N + 1, self.grid.M + 1)}"
            )
        if v.shape[0] > 1 and np.any(v[1:, [0, -1]] != 0.0):
            raise ValueError("computed levels must satisfy the boundary pinning")


def _dirichlet_factors(off: float, diag_val: float, m: int) -> TridiagonalFactors:
    """Factors of constant-coefficient interior rows with pinned boundary rows."""
    lower = np.full(m, off)
    upper = np.full(m, off)
    diag = np.full(m + 1, diag_val)
    diag[0] = diag[-1] = 1.0
    upper[0] = 0.0
    lower[-1] = 0.0
    return factor_tridiagonal(lower, diag, upper)


def solve(
    problem: ProblemSpec,
    grid: SpatialGrid,
    mesh: TemporalMesh,
    scheme: SchemeKind = SchemeKind.TRANSFORMED,
) -> SolutionLattice:
    """March the chosen scheme over the whole mesh.

    Row 0 of the result is the initial data sampled on the grid; row n is
    the solution of the level-n system described in the module docstring.
    Raises ValueError naming the first level that is not finite.
    """
    alpha, x, h = problem.alpha, grid.x, grid.h
    u = np.empty((mesh.N + 1, grid.M + 1))
    u[0] = np.asarray(problem.phi(x), dtype=float)
    l1 = scheme is SchemeKind.L1
    f_samples = None
    if l1:
        steps = mesh.steps
        if steps.max() - steps.min() > 1e-12 * steps.mean():
            raise ValueError("the L1 scheme requires a uniform time mesh")
        lam = 1.0 / (gamma(2.0 - alpha) * (mesh.T / mesh.N) ** alpha)
        j = np.arange(mesh.N, dtype=float)
        b = (j + 1.0) ** (1.0 - alpha) - j ** (1.0 - alpha)
    elif problem.exact_f_conv is None:
        f_samples = np.empty_like(u)
        f_samples[0] = problem.f(x, mesh.t[0])
    matrix, factors = None, None

    for n in range(1, mesh.N + 1):
        t_n = mesh.t[n]
        if l1:
            p, r = lam, 1.0
            combo = b[n - 1] * u[0]
            if n > 1:
                combo = combo + (b[n - 2 :: -1] - b[n - 1 : 0 : -1]) @ u[1:n]
            forcing = problem.f(x, t_n)
            history = 0.0
        else:
            a = weights_row(alpha, mesh, n).weights
            p, r = 1.0, 0.5 * a[-1]
            combo = u[0]
            if f_samples is None:
                forcing = problem.exact_f_conv(x, t_n)
            else:
                f_samples[n] = problem.f(x, t_n)
                forcing = a @ (f_samples[1 : n + 1] + f_samples[:n]) / 2.0
            # a[k - 1] holds a_k; w[j] = (a_j + a_{j+1}) / 2 with a_0 = 0.
            w = 0.5 * a
            w[1:] += 0.5 * a[:-1]
            history = apply_second_diff(w @ u[:n], h)
        forcing = np.asarray(forcing, dtype=float)
        rhs = p * apply_compact(combo) + apply_compact(forcing) + history

        # Rows stay unscaled so L1 keeps its reference rounding: dividing by
        # p avoids the cancellation in p/12 - q at fine h but moves L1
        # lattices by about 4e-11.
        q = r / (h * h)
        off = p / 12.0 - q
        diag_val = 10.0 * p / 12.0 + 2.0 * q
        if (off, diag_val) != matrix:
            matrix = (off, diag_val)
            factors = _dirichlet_factors(off, diag_val, grid.M)
        rhs[0] = rhs[-1] = 0.0
        u[n] = factors.solve(rhs)

    # A NaN or infinity in a level shows in that level's max or min.
    finite = np.isfinite(u.max(axis=1)) & np.isfinite(u.min(axis=1))
    if not finite.all():
        n = int(np.argmin(finite))
        raise ValueError(
            f"solution level {n} (t = {mesh.t[n]:g}) is not finite: the forcing "
            "or the initial data is not finite, or too large, up to that time"
        )
    return SolutionLattice(values=u, grid=grid, mesh=mesh)
