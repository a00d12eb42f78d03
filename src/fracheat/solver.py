"""Time stepping for the fractional diffusion problem.

Both schemes are one linear Volterra march.  With H the compact average
(v[i-1] + 10 v[i] + v[i+1]) / 12 and D2 the centered second difference,
level n solves

    (p H - r D2) u^n = rhs^n,    u^n_0 = u^n_M = 0,

by two O(M) substitution sweeps, after one weighted sum over the history.
The level matrix p H - r D2 is factored only when (p, r) changes: once
per solve on a uniform mesh, once per level on a graded one.

On a uniform mesh (steps equal to 1e-12 relative) every weight of either
scheme depends only on the lag n - j, so the history is a causal Toeplitz
convolution in time and one kernel row serves the whole solve.  The
march runs in blocks of ``_LEAF`` levels, summing the history from inside
the block directly.  When a block of B = _LEAF, 2 _LEAF, 4 _LEAF, ...
levels is done and is the first half of a block of 2B, its history for
the second half is added at once by FFT (Hairer, Lubich & Schlichte,
SIAM J. Sci. Stat. Comput. 6(3), 1985): O(M N log^2 N) in all instead of
O(M N^2).  Rows of levels not yet solved hold the history added so far,
starting with the u^0 term.  Graded meshes build their weights per level
and sum the whole history directly.  The schemes are:

* ``SchemeKind.TRANSFORMED`` discretizes the integrated (Volterra) form of
  the problem with the exact kernel step weights a_1..a_n of level n
  (a_0 = 0) and endpoint averages of the integrand.  Here (p, r) =
  (1, a_n/2) and

      rhs^n = H phi + H q^n + D2 sum_{j<n} w_j u^j,   w_j = (a_j + a_{j+1})/2,

  where q^n is the fractional integral of the forcing at t_n, either in
  closed form or by the same product quadrature over samples of f taken
  once per level.  On a uniform mesh a_k = A_{n-k+1}, with A_1..A_N the
  weights of level N reversed, and the quadrature of f is a Toeplitz sum
  too.  Spatial accuracy is fourth order thanks to the compact
  stencil; the temporal error comes only from averaging the integrand over
  steps, so no time derivative of the solution is ever formed and graded
  meshes are supported directly.

* ``SchemeKind.L1`` is the classical baseline on a uniform mesh: the
  Caputo derivative is replaced by the L1 difference quotient, so (p, r) =
  (lambda, 1) with lambda = 1 / (Gamma(2 - alpha) tau**alpha), and

      rhs^n = lambda H (b_{n-1} u^0 + sum_{0<j<n} (b_{n-j-1} - b_{n-j}) u^j)
              + H f(t_n),    b_j = (j + 1)**(1 - alpha) - j**(1 - alpha).

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

# Levels per directly summed block of a uniform march: below this the
# direct weighted sums are cheaper than one more level of FFT merges.
_LEAF = 128
# Working memory of one column chunk of an FFT merge, in bytes.
_MERGE_BYTES = 512 * 1024


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


def _is_uniform(mesh: TemporalMesh) -> bool:
    """Whether all steps agree to rounding: max - min <= 1e-12 * mean."""
    steps = mesh.steps
    return bool(steps.max() - steps.min() <= 1e-12 * steps.mean())


def _add_far_history(dst: np.ndarray, src: np.ndarray, kernel: np.ndarray) -> None:
    """Add a finished block's Toeplitz history to the next block's rows.

    ``src`` holds the B rows j = 0..B-1 just solved and ``dst`` the (at
    most B) rows i = 0.. after them; row i gains sum_j kernel[B + i - j]
    src[j], with ``kernel`` indexed by the level lag.  The causal sum is
    one linear convolution along time, taken by FFT of length 2B in column
    chunks whose working memory stays near ``_MERGE_BYTES``.
    """
    half = len(src)
    size = 2 * half
    kernel_fft = np.fft.rfft(kernel[:size], size)
    width = max(1, _MERGE_BYTES // (16 * size))
    for c in range(0, src.shape[1], width):
        spec = np.fft.rfft(src[:, c : c + width], size, axis=0)
        spec *= kernel_fft[:, None]
        dst[:, c : c + width] += np.fft.irfft(spec, size, axis=0)[half : half + len(dst)]


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
    alpha, x, h, N = problem.alpha, grid.x, grid.h, mesh.N
    u = np.zeros((N + 1, grid.M + 1))
    u[0] = np.asarray(problem.phi(x), dtype=float)
    l1 = scheme is SchemeKind.L1
    uniform = _is_uniform(mesh)
    if l1 and not uniform:
        raise ValueError("the L1 scheme requires a uniform time mesh")
    # Quadrature forcing: g[k] = (f_k + f_{k-1}) / 2 once level k is
    # reached, and the forcing integral at level n is sum_k a_k g[k].
    g = None
    if not l1 and problem.exact_f_conv is None:
        g = np.zeros_like(u)
        f_prev = problem.f(x, mesh.t[0])
    if uniform:
        # Coefficients depend on the lag n - j only: ``lag`` weighs u^j in
        # level n's history, ``seed`` u^0, and the reversed kernel row
        # ``row`` = (A_N, ..., A_1) weighs g.  Rows not yet solved hold
        # their history from earlier blocks, starting with the u^0 term.
        if l1:
            p, r = 1.0 / (gamma(2.0 - alpha) * (mesh.T / N) ** alpha), 1.0
            j = np.arange(N, dtype=float)
            seed = (j + 1.0) ** (1.0 - alpha) - j ** (1.0 - alpha)
            lag = np.concatenate(([0.0], seed[:-1] - seed[1:]))
        else:
            row = weights_row(alpha, mesh, N)
            A = row[::-1]
            p, r = 1.0, 0.5 * A[0]
            seed = 0.5 * A
            lag = np.concatenate(([0.0], 0.5 * (A[:-1] + A[1:])))
        np.multiply(seed[:, None], u[0], out=u[1:])
        # A contiguous copy: a reversed view takes another matmul path,
        # which rounds the L1 sums differently from the direct reference.
        lag_rev = lag[::-1].copy()
    matrix, factors = None, None

    lo = 1  # first level of the current block, summed directly
    for n in range(1, N + 1):
        done = n - 1
        if uniform and done and done % _LEAF == 0:
            # Levels [n - half, n) finished the first half of a block of
            # 2 * half levels; add their history to the second half.
            half = done & -done
            _add_far_history(u[n : n + half], u[n - half : n], lag)
            if g is not None:
                _add_far_history(g[n : n + half], g[n - half : n], A)
            lo = n
        t_n = mesh.t[n]
        if uniform:
            weights, first = lag_rev[N - 1 - n + lo : N - 1], lo
        else:
            row = weights_row(alpha, mesh, n)
            p, r = 1.0, 0.5 * row[-1]
            # w_j = (a_j + a_{j+1}) / 2 with a_0 = 0 weighs u^j, j < n.
            weights = 0.5 * row
            weights[1:] += 0.5 * row[:-1]
            first = 0
        total = u[n] + weights @ u[first:n]
        if g is None:
            forcing = problem.f(x, t_n) if l1 else problem.exact_f_conv(x, t_n)
        else:
            far = g[n].copy()
            f_n = problem.f(x, t_n)
            np.add(f_n, f_prev, out=g[n])
            g[n] /= 2.0
            f_prev = f_n
            # The row's last n - lo + 1 weights pair with g[lo..n].
            forcing = far + row[len(row) - 1 - n + lo :] @ g[lo : n + 1]
        forcing = np.asarray(forcing, dtype=float)
        if l1:
            combo, history = total, 0.0
        else:
            combo, history = u[0], apply_second_diff(total, h)
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
