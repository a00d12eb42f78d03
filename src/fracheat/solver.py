"""Time stepping for the fractional diffusion problem.

Both schemes are one linear Volterra march.  With H the compact average
(v[i-1] + 10 v[i] + v[i+1]) / 12 and D2 the centered second difference,
level n solves

    (p H - r D2) u^n = rhs^n,    u^n_0 = u^n_M = 0,

after one weighted sum over the history.  On the unit interval with
pinned ends, H and D2 are both diagonal in the discrete sine basis
sin(m pi x_i), m = 1..M-1, with eigenvalues eta_m = 1 - s_m / 3 and
-mu_m = -4 s_m / h**2, s_m = sin(m pi h / 2)**2.  So the whole march runs
on sine coefficients, and each level is M - 1 scalar divisions.  The
initial data and the forcing are transformed in (a DST-I by FFT of the
odd extension), and the finished levels are transformed out once.  The
odd extension drops the boundary values of phi, which ``ProblemSpec``
bounds by 1e-12; the forcing is averaged by H in physical space first, so
its boundary values still reach rows 1 and M-1.

Everything on a level's right-hand side that does not depend on the
solution is filled into its row before the march: the forcing is sampled
once per level, in increasing t, then averaged and transformed in blocks
of rows.  The march itself only adds history to those rows and divides,
with no forcing call and no transform.

The history of a level is one weighted sum over one source: u, or z with
quadrature forcing (see below).  On a uniform mesh (steps equal to 1e-12
relative) every weight of either scheme depends only on the lag n - j, so
the history is a causal Toeplitz convolution in time and one kernel row
serves the whole solve.  When a run of L = _LEAF, 2 _LEAF, 4 _LEAF, ...
levels is done and is the first half of a run of 2L, its history for the
second half is added at once by FFT (Hairer, Lubich & Schlichte, SIAM J.
Sci. Stat. Comput. 6(3), 1985): O(M N log^2 N) in all instead of
O(M N^2).  The merges add into the right-hand-side rows of the levels not
yet solved.

The history from inside the current leaf of ``_LEAF`` levels (on a graded
mesh, all of it) is summed in blocks of ``_BLOCK`` levels: one matrix
product adds the part from before a block to all its levels, with weights
sliced from one lower-triangular Toeplitz matrix of a leaf or built from
one ``weights_row`` block, and then the levels are solved in turn, each
adding the rows solved before it in the block, so no level reads a later
one.  The schemes are:

* ``SchemeKind.TRANSFORMED`` discretizes the integrated (Volterra) form of
  the problem with the exact kernel step weights a_1..a_n of level n
  (a_0 = 0) and endpoint averages of the integrand.  Here (p, r) =
  (1, a_n/2) and

      rhs^n = H phi + H q^n + D2 sum_{j<n} w_j u^j,   w_j = (a_j + a_{j+1})/2,

  where q^n is the fractional integral of the forcing at t_n, either in
  closed form or by the same product quadrature over samples f_k of f
  taken once per level, sum_k a_k (f_k + f_{k-1})/2.  That weighs f_j,
  j < n, with the same w_j as u^j and f_n with r, so the quadrature
  history is no separate sum: its source is z_j = F_j - mu u^j, with F_j
  the transformed H f_j, and level n adds r F_n.  On a uniform mesh
  a_k = A_{n-k+1}, with A_1..A_N the weights of level N reversed.
  Spatial accuracy is fourth order thanks to the compact stencil; the
  temporal error comes only from averaging the integrand over steps, so
  no time derivative of the solution is ever formed and graded meshes
  are supported directly.

* ``SchemeKind.L1`` is the classical baseline on a uniform mesh: the
  Caputo derivative is replaced by the L1 difference quotient, so (p, r) =
  (lambda, 1) with lambda = 1 / (Gamma(2 - alpha) tau**alpha), and

      rhs^n = lambda H (b_{n-1} u^0 + sum_{0<j<n} (b_{n-j-1} - b_{n-j}) u^j)
              + H f(t_n),    b_j = (j + 1)**(1 - alpha) - j**(1 - alpha).

The transforms mix nodes within a level but never across levels, so a
non-finite level can still only come from non-finite (or overflowing)
forcing or initial data, and ``solve`` names the first one instead of
returning it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .meshes import SpatialGrid, TemporalMesh
from .operators import apply_compact
from .problems import ProblemSpec
from .quadrature import weights_row
from .special import gamma

__all__ = ["SchemeKind", "SolutionLattice", "solve"]

# Levels per leaf of a uniform march, whose history from inside the leaf is
# summed without FFT: below this that is cheaper than one more merge level.
_LEAF = 128
# Levels per block of the march, capped at a leaf: one matrix product adds
# the history from before the block to all of its levels.
_BLOCK = 32
# Working memory of one chunk of an FFT merge or of the final sine
# transform, in bytes.
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


def _sine(v: np.ndarray) -> np.ndarray:
    """DST-I of the interior entries of ``v`` along its last axis.

    Entry m of the result, 0 < m < M, is sum_{0<i<M} v_i sin(pi m i / M):
    minus half the imaginary part of the real FFT of the odd extension
    (0, v_1, ..., v_{M-1}, 0, -v_{M-1}, ..., -v_1).  Boundary entries of
    ``v`` are ignored and come out as +0.0.  The transform is its own
    inverse up to a factor: ``_sine(_sine(v)) * (2 / M)`` restores the
    interior of ``v``.
    """
    m = v.shape[-1] - 1
    odd = np.zeros(v.shape[:-1] + (2 * m,))
    odd[..., 1:m] = v[..., 1:m]
    odd[..., m + 1 :] = -v[..., m - 1 : 0 : -1]
    out = np.zeros(v.shape)
    # Adding +0.0 turns the -0.0 that an all-zero input gives into +0.0.
    out[..., 1:m] = np.fft.rfft(odd)[..., 1:m].imag * -0.5 + 0.0
    return out


def _denominators(p: float, r: float, h: float, s: np.ndarray) -> np.ndarray:
    """Eigenvalues of p H - r D2 on the sine modes, from its rounded rows.

    The interior rows are (off, diag, off) with off = p/12 - q,
    diag = 10p/12 + 2q and q = r/h**2; mode m has the eigenvalue
    (diag + 2 off) - 4 off s_m, s_m = sin(m pi h / 2)**2.  Taking it from
    the rows as they round reproduces a banded solve of those rows: at
    fine h, p/12 - q loses digits, and the plain p eta_m + r mu_m would
    move L1 lattices at M = 2000 by up to 4.4e-11.  The value lies
    between diag + 2 off = p and diag - 2 off = 2p/3 + 4q, so it is positive
    for every p > 0 and r >= 0.  When off < 0 both terms are nonnegative
    (rounding keeps diag >= -2 off), so the low modes suffer no
    cancellation.  Entries 0 and M, whose coefficients are zero, are 1.
    """
    q = r / (h * h)
    off = p / 12.0 - q
    diag = 10.0 * p / 12.0 + 2.0 * q
    den = (diag + 2.0 * off) - 4.0 * off * s
    den[..., [0, -1]] = 1.0
    return den


def _is_uniform(mesh: TemporalMesh) -> bool:
    """Whether all steps agree to rounding: max - min <= 1e-12 * mean."""
    steps = mesh.steps
    return bool(steps.max() - steps.min() <= 1e-12 * steps.mean())


def _add_far_history(dst: np.ndarray, src: np.ndarray, kernel: np.ndarray, scale: np.ndarray) -> None:
    """Add a finished block's Toeplitz history to the next block's rows.

    ``src`` holds the B rows j = 0..B-1 just solved and ``dst`` the (at
    most B) rows i = 0.. after them; row i gains sum_j kernel[B + i - j]
    src[j], with ``kernel`` indexed by the level lag, times ``scale`` per
    column.  The causal sum is one linear convolution along time, taken by
    FFT of length 2B in column chunks whose working memory stays near
    ``_MERGE_BYTES``.
    """
    half = len(src)
    size = 2 * half
    kernel_fft = np.fft.rfft(kernel[:size], size)
    width = max(1, _MERGE_BYTES // (16 * size))
    for c in range(0, src.shape[1], width):
        spec = np.fft.rfft(src[:, c : c + width], size, axis=0)
        spec *= kernel_fft[:, None]
        hist = np.fft.irfft(spec, size, axis=0)[half : half + len(dst)]
        hist *= scale[c : c + width]
        dst[:, c : c + width] += hist


def _add_products(dst: np.ndarray, weights: np.ndarray, src: np.ndarray, scale: np.ndarray) -> None:
    """Add ``weights @ src``, times ``scale`` per column, to ``dst``.

    One matrix product per chunk of columns (a slice of ``src`` near
    ``_MERGE_BYTES / 8``) into one output buffer.
    """
    if not len(src):
        return
    width = max(len(dst), _MERGE_BYTES // (64 * len(src)))
    out = np.empty((len(dst), min(width, src.shape[1])))
    for c in range(0, src.shape[1], width):
        part = out[:, : src.shape[1] - c]
        np.matmul(weights, src[:, c : c + width], out=part)
        part *= scale[c : c + width]
        dst[:, c : c + width] += part


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
    alpha, x, h, M, N = problem.alpha, grid.x, grid.h, grid.M, mesh.N
    phi = np.asarray(problem.phi(x), dtype=float)
    s = np.sin(0.5 * np.pi * h * np.arange(M + 1)) ** 2
    eta = 1.0 - s / 3.0
    # Rows hold sine coefficients until the march is done.  Row 0 holds
    # those of phi, which graded meshes sum from j = 0.
    u = np.zeros((N + 1, M + 1))
    u[0] = _sine(phi)
    l1 = scheme is SchemeKind.L1
    uniform = _is_uniform(mesh)
    if l1 and not uniform:
        raise ValueError("the L1 scheme requires a uniform time mesh")
    if uniform:
        # Coefficients depend on the lag n - j only: ``lag`` weighs row j
        # of the history source in level n, and ``seed`` its row 0.
        if l1:
            p, r = 1.0 / (gamma(2.0 - alpha) * (mesh.T / N) ** alpha), 1.0
            j = np.arange(N, dtype=float)
            seed = (j + 1.0) ** (1.0 - alpha) - j ** (1.0 - alpha)
            lag = np.concatenate(([0.0], seed[:-1] - seed[1:]))
        else:
            A = weights_row(alpha, mesh, N)[::-1]
            p, r = 1.0, 0.5 * A[0]
            seed = 0.5 * A
            lag = np.concatenate(([0.0], 0.5 * (A[:-1] + A[1:])))
        # near[n - lo, j - lo] weighs row j in level n of a leaf from lo;
        # lag[0] = 0 covers j >= n.
        k = np.arange(min(_LEAF, N))
        near = lag[np.maximum(k[:, None] - k, 0)]
        den = np.broadcast_to(_denominators(p, r, h, s), (_BLOCK, M + 1))
    # Level n's coefficients are (base + F^n + T^n) / den, with T^n its
    # history sum and F^n the transformed H forcing (r F_n for quadrature).
    if l1:
        gain, base = p * eta, 0.0
    else:
        gain, base = -4.0 * s / (h * h), eta * u[0]

    # The history source is u, scaled by ``gain``, or with quadrature
    # forcing z, which holds F_j (the transformed H f_j) before the march
    # and F_j + gain u^j once level j is solved.  The forcing is sampled
    # once per level in increasing t, into row n of u (closed forms, from
    # n = 1) or of z (from n = 0); H and the transform run on blocks of
    # rows whose temporaries (odd extension, spectrum, result: about 64 M
    # bytes a row) stay near ``_MERGE_BYTES``.
    rows = max(1, _MERGE_BYTES // (64 * M))
    z = None if l1 or problem.exact_f_conv is not None else np.zeros_like(u)
    src, scale = (u, gain) if z is None else (z, np.ones(M + 1))
    sample = problem.exact_f_conv if z is None and not l1 else problem.f
    for c in range(1 if z is None else 0, N + 1, rows):
        block = src[c : c + rows]
        for i, t in enumerate(mesh.t[c : c + rows]):
            block[i] = sample(x, t)
        block[:] = _sine(apply_compact(block))
    if z is not None:
        z[0] += gain * u[0]
    # Row n of u then gets the rest of level n's right-hand side known in
    # advance: base, plus seed_n times the source's row 0 on a uniform mesh.
    for c in range(1, N + 1, rows):
        rhs = u[c : c + rows]
        rhs += base
        if uniform:
            rhs += seed[c - 1 : c - 1 + len(rhs), None] * (scale * src[0])

    # Blocks [b, e) within leaves: row i of ``w`` weighs row j of the
    # source in level b + i at column j - j0.
    for lo in range(1, N + 1, _LEAF):
        j0 = lo if uniform else 0
        if uniform and lo > 1:
            # Levels [lo - half, lo) finished the first half of a run of
            # 2 * half levels; add their history to the second half.
            half = (lo - 1) & (1 - lo)
            _add_far_history(u[lo : lo + half], src[lo - half : lo], lag, scale)
        for b in range(lo, min(lo + _LEAF, N + 1), _BLOCK):
            e = min(b + _BLOCK, lo + _LEAF, N + 1)
            if uniform:
                w = near[b - lo : e - lo, : e - lo]
            else:
                a = weights_row(alpha, mesh, b, e)
                r = 0.5 * np.diagonal(a, b - 1)[:, None]
                den = _denominators(1.0, r, h, s)
                # w_j = (a_j + a_{j+1}) / 2 with a_0 = 0 weighs row j < n.
                w = a * 0.5
                w[:, 1:] += 0.5 * a[:, :-1]
            _add_products(u[b:e], w[:, : b - j0], src[j0:b], scale)
            if z is not None:
                # Each level's own forcing sample, weighed by r = a_n / 2.
                u[b:e] += r * z[b:e]
            for i, n in enumerate(range(b, e)):
                u[n] = (u[n] + scale * (w[i, b - j0 : n - j0] @ src[b:n])) / den[i]
                if z is not None:
                    z[n] += gain * u[n]

    # Back to nodal values, in the same blocks of rows.  Row 0 gets phi as
    # sampled.
    for c in range(1, N + 1, rows):
        u[c : c + rows] = _sine(u[c : c + rows]) * (2.0 / M)
    u[0] = phi
    # A NaN or infinity in a level shows in that level's max or min.
    finite = np.isfinite(u.max(axis=1)) & np.isfinite(u.min(axis=1))
    if not finite.all():
        n = int(np.argmin(finite))
        raise ValueError(
            f"solution level {n} (t = {mesh.t[n]:g}) is not finite: the forcing "
            "or the initial data is not finite, or too large, up to that time"
        )
    return SolutionLattice(values=u, grid=grid, mesh=mesh)
