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

The forcing is filled into each level's row before the march, in blocks
of rows: a closed-form forcing integral is sampled once per block, with
the block's times as a column, and f once per level, in increasing t;
each block is then averaged and transformed at once.  The march itself
adds the initial data's share and the history to those rows and divides,
with no forcing call and no transform.

The history of a level is one weighted sum over one source: u, or z with
quadrature forcing (see below).  Its weights come in two parts.  The rows
of the W = ``_WINDOW`` levels before a block of ``_BLOCK`` levels, and the
block's own rows, get their exact weights: on a uniform mesh (steps
equal to the rounding of the levels) every weight of either scheme
depends only on the lag n - j, so one kernel row serves the whole solve;
on a graded mesh one ``weights_row`` block per block of levels holds
them.  Every older row reaches level n through a sum of exponentials.
Its weights are integrals
of a kernel that is smooth at lags past the window, t**(alpha-1) for the
transformed scheme and, in units of the step, t**(-1-alpha) for L1, and
``_exp_sum`` fits that kernel by sum_l w_l exp(-s_l t) to about 1e-13
relative on [delta, t_N - t_0], with delta the shortest span of W steps
(t_W - t_0 on the meshes of ``meshes``).  So the older history is sum_l
exp(-s_l (t_n - t_ref)) S_l, with S_l one row of M + 1 states per term,
referenced to the start t_ref of the window: when a block is done, the
states decay to the next window start and absorb the rows that leave the
window.  A block then costs three matrix products (window rows, states,
absorption) and the solve O(M N (W + N_exp)), with N_exp about 80 to
250 terms, on either mesh; solves of at most W levels build no states.

Within a block, level i still needs the block's earlier levels: per mode
m, u_i = c_i + f_m sum_{j<i} lag_{i-j} u_j, with f_m = gain_m / den_m.
On a uniform mesh that system is the same lower-triangular Toeplitz one
in every block, so its inverse, G_0 = 1 and G_d = f_m sum_{k=1..d} lag_k
G_{d-k}, is built once per solve for leaves of ``_LEAF`` levels.  A block
is then solved a leaf at a time: one product adds the earlier leaves'
rows and one batched product applies the inverse.  Graded meshes, whose
system changes from block to block, wide grids (M > 255), where the
inverse outgrows ``_CHUNK_BYTES`` (and by M = 2000 its per-mode products
are slower than the loop's row products), and blocks whose right-hand
side is not finite (the inverse's zeros would carry a NaN into earlier
levels) are solved level by level instead, each level adding the rows
solved before it in the block.  Either way no level reads a later one.
The schemes are:

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

  The weight b_{k-1} - b_k of lag k is alpha (1 - alpha) times the double
  integral of (k - 1 + x + y)**(-1-alpha) over the unit square, so with
  the fit it is alpha (1 - alpha) sum_l w_l exp(-s_l (k - 1))
  ((1 - exp(-s_l)) / s_l)**2.

The transforms mix nodes within a level but never across levels, so a
non-finite level can still only come from non-finite (or overflowing)
forcing or initial data, and ``solve`` names the first one instead of
returning it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .meshes import SpatialGrid, TemporalMesh
from .operators import apply_compact
from .problems import ProblemSpec
from .quadrature import _exp_sum, weights_row

__all__ = ["SchemeKind", "SolutionLattice", "solve"]

# Levels before a block whose history weights are exact; older levels
# reach it through the sum-of-exponentials states.  Solves of at most this
# many levels build no states, whose setup and products cost more than the
# exact weights they replace on short, wide solves.
_WINDOW = 128
# Levels per block of the march: one matrix product adds the history from
# before the block to all of its levels, which are then solved a leaf at a
# time on a uniform mesh and one at a time otherwise (see the module
# docstring).
_BLOCK = 32
# Levels per leaf of a block on a uniform mesh, which the per-mode inverse
# solves at once.  The inverse holds (M + 1) * _LEAF**2 doubles and is used
# only while that fits in ``_CHUNK_BYTES`` (M <= 255); at 32 levels it
# would outgrow the working memory ``solve`` is allowed.
_LEAF = 16
# Working memory of one block of rows of the forcing transform or of the
# final sine transform, in bytes.
_CHUNK_BYTES = 512 * 1024
# Exponents of the decay factors are clipped here, so that no subnormal
# number enters a product: exp(-600) is 2.6e-261.
_EXP_CLIP = 600.0


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


def _is_uniform(t: np.ndarray) -> bool:
    """Whether all steps of the levels ``t`` agree to the rounding of ``t``.

    A level T * (n / N) is within 1.5 ulps of T of its exact value (the
    quotient's relative error times T, then half an ulp of the product),
    and neighbouring levels subtract exactly, so the steps of a uniform
    mesh spread by at most 6 ulps of T.  A tolerance relative to the step
    would reject uniform meshes from N = 3,604 on at T = 0.2.
    """
    steps = np.diff(t)
    return bool(steps.max() - steps.min() <= 8.0 * np.spacing(t[-1]))


def _leaf_inverse(lag: np.ndarray, f: np.ndarray, size: int) -> np.ndarray:
    """Per-mode inverses of u_i - f sum_{j<i} lag[i-j] u_j = c_i, i < ``size``.

    Each is lower-triangular Toeplitz, G_0 = 1 and G_d = f sum_{k=1..d}
    lag[k] G_{d-k}.  Entry [m, j, i] of the result is G_{i-j} of mode m
    for i >= j and 0 otherwise, so that a row c of levels solves as
    c @ result[m].  Entries 0 and M, whose coefficients are 0 and whose
    denominators are a placeholder 1, get f = 0: their G would grow like
    (f lag[1])**d, and 0 times an overflowed G is NaN.
    """
    f = f.copy()
    f[[0, -1]] = 0.0
    # Row size - 1 + d holds G_d after size - 1 rows of zeros, so row
    # size - 1 + i - j holds entry [j, i].
    g = np.zeros((2 * size - 1, f.size))
    g[size - 1] = 1.0
    for d in range(1, size):
        row = g[size - 1 + d]
        np.dot(lag[d:0:-1], g[size - 1 : size - 1 + d], out=row)
        row *= f
    i = np.arange(size)
    return np.take(np.ascontiguousarray(g.T), size - 1 + i - i[:, None], axis=1)


def _decay(rate: np.ndarray, dt) -> np.ndarray:
    """exp(-rate * dt) for each rate (rows) and time dt >= 0 (columns).

    Exponents are clipped at ``_EXP_CLIP``.
    """
    return np.exp(-np.minimum(np.multiply.outer(rate, dt), _EXP_CLIP))


def _add_products(dst: np.ndarray, weights: np.ndarray, src: np.ndarray, scale) -> None:
    """Add ``weights @ src``, times ``scale`` (a float or one per column), to ``dst``.

    One matrix product over all columns: ``src`` is at most W + B window
    rows, the states or one block of rows, so its product stays small.
    """
    part = weights @ src
    part *= scale
    dst += part


# A level that overflows or turns NaN is reported by name below, so numpy's
# warnings about it (from the forcing, the products or the transforms)
# would only repeat that.
@np.errstate(over="ignore", invalid="ignore")
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
    uniform = _is_uniform(mesh.t)
    if l1 and not uniform:
        raise ValueError("the L1 scheme requires a uniform time mesh")
    if uniform:
        # Coefficients depend on the lag n - j only: ``lag`` weighs row j
        # of the history source in level n, and ``seed`` its row 0.
        if l1:
            p, r = 1.0 / (math.gamma(2.0 - alpha) * (mesh.T / N) ** alpha), 1.0
            j = np.arange(N, dtype=float)
            seed = (j + 1.0) ** (1.0 - alpha) - j ** (1.0 - alpha)
            lag = np.concatenate(([0.0], seed[:-1] - seed[1:]))
        else:
            A = weights_row(alpha, mesh, N)[::-1]
            p, r = 1.0, 0.5 * A[0]
            seed = 0.5 * A
            lag = np.concatenate(([0.0], 0.5 * (A[:-1] + A[1:])))
        # In level b + i of a block from b, near[i, c] weighs row b - W + c:
        # near[i, c] = lag[W + i - c], and lag[0] = 0 from c = W + i on.
        near = np.zeros((_BLOCK, _WINDOW + _BLOCK))
        for i in range(_BLOCK):
            k = min(_WINDOW + i, N - 1)
            near[i, _WINDOW + i - k : _WINDOW + i] = lag[k:0:-1]
        den = _denominators(p, r, h, s)
    # Level n's coefficients are (base + F^n + T^n) / den, with T^n its
    # history sum and F^n the transformed H forcing (r F_n for quadrature).
    if l1:
        gain, base = p * eta, 0.0
    else:
        gain, base = -4.0 * s / (h * h), eta * u[0]

    # The history source is u, scaled by ``gain``, or with quadrature
    # forcing z, which holds F_j (the transformed H f_j) before the march
    # and F_j + gain u^j once level j is solved.  The forcing is sampled
    # into row n of u (closed forms, from n = 1) or of z (from n = 0) in
    # blocks of rows whose temporaries (odd extension, spectrum, result:
    # about 64 M bytes a row) stay near ``_CHUNK_BYTES``; H and the
    # transform then run on the whole block.
    rows = max(1, _CHUNK_BYTES // (64 * M))
    z = None if l1 or problem.exact_f_conv is not None else np.zeros_like(u)
    src, scale = (u, gain) if z is None else (z, 1.0)
    for c in range(1 if z is None else 0, N + 1, rows):
        block = src[c : c + rows]
        if z is None and not l1:
            # One call per block, with the block's times as a column.
            block[:] = problem.exact_f_conv(x, mesh.t[c : c + rows, None])
        else:
            # f stays one call per level, in increasing t, with a Python
            # float t, until the benchmark's tracer (perfbench/tracing.py),
            # which converts each f call's t with float(), takes a column.
            for i, t in enumerate(mesh.t[c : c + rows].tolist()):
                block[i] = problem.f(x, t)
        block[:] = _sine(apply_compact(block))
    if z is not None:
        z[0] += gain * u[0]
    inverse = None
    if uniform:
        # Level n solves (rhs + scale T^n) / den: ``factor`` = scale / den.
        factor = np.broadcast_to(scale / den, (_BLOCK, M + 1))
        if (M + 1) * _LEAF * _LEAF * 8 <= _CHUNK_BYTES:
            leaf = min(_LEAF, _BLOCK, N)
            inverse = _leaf_inverse(lag, gain / den, leaf)
        den = np.broadcast_to(den, (_BLOCK, M + 1))

    # The history of rows j0..ref-1 is in ``states``, referenced to t_ref:
    # with the fit, row j weighs sum_l exp(-s_l (t_n - t_ref)) G_lj in
    # level n.  They are set up only if some row leaves the window before
    # the last block.
    t = mesh.t
    j0 = 1 if uniform else 0
    ref, states = j0, None
    ends = range(1 + _BLOCK, N + 1, _BLOCK)
    if ends and ends[-1] - _WINDOW > j0:
        if uniform:
            # In steps, the kernel of the lag weights is t**-beta on [W, N].
            rate, weight = _exp_sum(1.0 + alpha if l1 else 1.0 - alpha, _WINDOW, N)
            if l1:
                coef = alpha * (1.0 - alpha) * weight * (np.expm1(-rate) / rate) ** 2
            else:
                coef = weight * (mesh.T / N) ** alpha / (2.0 * math.gamma(alpha))
                coef *= -np.expm1(-2.0 * rate) / rate
            # Lag k weighs sum_l coef_l exp(-s_l (k - 1)).  Level b + i is
            # W + i steps after the window start of its block, and row
            # out - B + c leaves the window B - c steps before the next
            # window start, out.
            levels = _decay(rate, np.arange(_WINDOW, _WINDOW + _BLOCK)).T
            leaving = coef[:, None] * _decay(rate, np.arange(_BLOCK - 1, -1, -1))
            decay = _decay(rate, [_BLOCK])
        else:
            rate, weight = _exp_sum(1.0 - alpha, np.min(t[_WINDOW:] - t[:-_WINDOW]), mesh.T)
            coef = weight / (2.0 * math.gamma(alpha))
            # tau[k] is step k, with tau[0] = 0 for the a_0 = 0 of row 0.
            tau = np.diff(t, prepend=0.0)
        states = np.zeros((len(rate), M + 1))

    # Blocks [b, e): row i of ``w`` weighs row j >= lo of the source in
    # level b + i at column j - lo.
    for b in range(1, N + 1, _BLOCK):
        e = min(b + _BLOCK, N + 1)
        lo = max(j0, b - _WINDOW)
        if uniform:
            w = near[: e - b, _WINDOW - (b - lo) :]
        else:
            # w_j = (a_j + a_{j+1}) / 2 with a_0 = 0 weighs row j < n, so
            # the weights start one step before the window.
            first = max(lo - 1, 0)
            a = weights_row(alpha, mesh, b, e, first)
            r = 0.5 * np.diagonal(a, b - 1 - first)[:, None]
            den = _denominators(1.0, r, h, s)
            factor = scale / den
            w = a * 0.5
            w[:, 1:] += 0.5 * a[:, :-1]
            w = w[:, lo - first :]
        # The known rest of the right-hand side: base, and seed_n times the
        # source's row 0 on a uniform mesh.
        u[b:e] += base
        if uniform:
            u[b:e] += seed[b - 1 : e - 1, None] * (scale * src[0])
        _add_products(u[b:e], w[:, : b - lo], src[lo:b], scale)
        if ref > j0:
            lev = levels[: e - b] if uniform else _decay(rate, t[b:e] - t[ref]).T
            _add_products(u[b:e], lev, states, scale)
        if z is not None:
            # Each level's own forcing sample, weighed by r = a_n / 2.
            u[b:e] += r * z[b:e]
        u[b:e] /= den[: e - b]
        if inverse is not None and np.isfinite(u[b:e]).all():
            for c in range(b, e, leaf):
                d = min(c + leaf, e)
                # The block's rows before the leaf, solved, and with
                # quadrature forcing also the leaf's own z rows, which
                # still hold F_j.
                hi = c if z is None else d
                if hi > b:
                    _add_products(
                        u[c:d], w[c - b : d - b, b - lo : hi - lo], src[b:hi], factor[c - b : d - b]
                    )
                u[c:d] = np.matmul(u[c:d].T[:, None, :], inverse[:, : d - c, : d - c])[:, 0].T
                if z is not None:
                    z[c:d] += gain * u[c:d]
        else:
            for i, n in enumerate(range(b, e)):
                if i:
                    u[n] += factor[i] * (w[i, b - lo : n - lo] @ src[b:n])
                if z is not None:
                    z[n] += gain * u[n]
        out = e - _WINDOW
        if states is not None and out > j0 and e <= N:
            # Rows ref..out-1 leave the window: the states decay to t_out
            # and absorb them.
            if uniform:
                states *= decay
                g = leaving[:, ref - out :]
            else:
                states *= _decay(rate, t[out] - t[ref])[:, None]
                # Row j weighs coef (h_j + h_{j+1}) in the states, with
                # h_k = exp(-s (t_out - t_k)) (1 - exp(-s tau_k)) / s.
                hk = _decay(rate, t[out] - t[ref : out + 1])
                hk *= np.expm1(-np.multiply.outer(rate, tau[ref : out + 1]))
                hk *= -coef[:, None] / rate[:, None]
                g = hk[:, :-1] + hk[:, 1:]
            _add_products(states, g, src[ref:out], 1.0)
            ref = out

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
