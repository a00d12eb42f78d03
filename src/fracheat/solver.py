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

Both schemes weigh one source per step k = 1..n of level n, with the
exact step integrals c_k of the kernel (t_n - s)**(kappa-1) / Gamma(kappa)
(``weights_row``): step k weighs theta (g^(k-1) +- g^k), with g the
history source, by e_k = c_k, or c_k / tau_k for L1.  So row j of the
source weighs theta (e_(j+1) +- e_j), and the own term +-theta e_n g^n
joins the left-hand side.  The schemes are:

* ``SchemeKind.TRANSFORMED`` discretizes the integrated (Volterra) form of
  the problem with kappa = alpha and endpoint averages, theta (g^(k-1) +
  g^k) with theta = 1/2, of g = D2 u.  Here (p, r) = (1, e_n/2) and
  rhs^n = H phi + H q^n + the history, where q^n is the fractional
  integral of the forcing at t_n, either in closed form or by the same
  product quadrature over samples f_k of f taken once per level,
  sum_k c_k (f_k + f_{k-1})/2.  That weighs f_j like u^j, so the
  quadrature history is no separate sum: its source is z_j = F_j - mu u^j,
  with F_j the transformed H f_j, and level n adds its own e_n F_n / 2
  while z_n still holds F_n.  Spatial accuracy is fourth order thanks to
  the compact stencil; the temporal error comes only from averaging the
  integrand over steps, so no time derivative of the solution is formed.

* ``SchemeKind.L1`` is the classical baseline, in the nonuniform form of
  Stynes, O'Riordan & Gracia (SIAM J. Numer. Anal. 55(2), 2017): the
  Caputo derivative at t_n is sum_k d_(n,k) (u^k - u^(k-1)), with
  d_(n,k) = e_k at kappa = 1 - alpha.  So g = H u, the step source is
  g^(k-1) - g^k (theta = 1), (p, r) = (e_n, 1) and rhs^n = H f(t_n) + the
  history.  On a uniform mesh d_(n,k) = lambda b_(n-k), with
  lambda = 1 / (Gamma(2 - alpha) tau**alpha) and
  b_j = (j + 1)**(1 - alpha) - j**(1 - alpha).

A block of ``_BLOCK`` levels from b gets the exact weights of its own rows
and of the W = ``_WINDOW`` rows lo = b - W..b-1 before it (lo = 1 while
b <= W + 1), and row lo - 1 its share theta e_lo of step lo.  The older
steps reach it through a sum of exponentials: ``_exp_sum`` fits
t**(kappa-1) by sum_l w_l exp(-s_l t) to about 1e-13 relative on
[delta, t_N], delta the shortest span of W steps, so step k weighs
sum_l w_l exp(-s_l (t_n - t_k)) (-expm1(-s_l tau_k) / s_l) / Gamma(kappa)
(over tau_k for L1).  The states S_l, one row of M + 1 per term, hold
those steps referenced to t_(lo-1): when a block is done they decay to
the next window start and absorb the steps that leave, each as its
source.  So every step is weighed whole, by the fit or exactly, in one
form for both schemes.  A block costs three matrix products (window rows,
states, absorption) and the solve O(M N (W + N_exp)), with N_exp about 80
to 250 terms; solves that no step leaves before their last block build no
states.  ``_block_weights`` builds a block's weights, denominators, the
states' decay to its levels and their absorption weights.  A graded mesh
calls it once per block.  On a uniform mesh (steps equal to the rounding
of the levels) they depend only on lags, so it runs once, in units of the
step (integer levels, weights times tau**kappa, or tau**(kappa-1) for
L1), on one block a full window past the start, and every block slices
that block; the shares of row lo - 1 by lag come from its last level.

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

# Levels before a block whose history weights are exact; older steps reach
# it through the sum-of-exponentials states.  Solves of at most this many
# levels plus a block build no states, whose setup and products cost more
# than the exact weights they replace on short, wide solves.
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


# Step k's source is theta (g^(k-1) + g^k) for the transformed scheme and
# theta (g^(k-1) - g^k) for L1: (theta, the ufunc that joins the two rows).
_ENDS = {SchemeKind.TRANSFORMED: (0.5, np.add), SchemeKind.L1: (1.0, np.subtract)}


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


def _block_weights(levels, b, e, lo, scheme, kappa, unit, fit, h, s):
    """The weights of levels b..e-1 on ``levels``, from the window start lo >= 1.

    Returns (step, w, den, lev, absorb):

    * step[i, k], the weight e_(lo+k) of step lo + k in level n = b + i,
      ``unit`` times c_(lo+k) (divided by tau_(lo+k) for L1), zero past n;
    * w[i, c], the weight of row j = lo - 1 + c in level n: theta e_lo for
      c = 0, then theta (e_(j+1) +- e_j) through row n (its own term) and
      zero past it;
    * den, the levels' denominators: a broadcast row if their own weights
      e_n agree, as on a uniform mesh in units of its step;
    * with a ``fit`` (rates, coefficients), lev[i, l] = exp(-rate_l (t_n -
      t_(lo-1))), the decay of states referenced to t_(lo-1), and absorb,
      which refers them to t_(out-1), out = e - W: absorb[l, 0] decays them
      and absorb[l, 1 + k] weighs step lo + k, for the steps lo..out-1 that
      leave the window.  Without a fit, both are None.
    """
    theta, combine = _ENDS[scheme]
    t, l1 = levels.t, scheme is SchemeKind.L1
    tau = np.diff(t[lo - 1 : e])
    step = weights_row(kappa, levels, b, e, lo - 1) * unit
    if l1:
        step /= tau
    w = np.zeros((e - b, step.shape[1] + 1))
    w[:, :-1] = step
    combine(w[:, 1:], step, out=w[:, 1:])
    w *= theta
    own = np.diagonal(step, b - lo)
    same = own[0] == own[-1] and own.min() == own.max()
    own = own[0] if same else own[:, None]
    den = _denominators(*((own, 1.0) if l1 else (1.0, 0.5 * own)), h, s)
    den = np.broadcast_to(den, (e - b, len(s))) if same else den
    if fit is None:
        return step, w, den, None, None
    rate, coef = fit
    out = max(e - _WINDOW, lo)
    tau = tau[: out - lo]
    absorb = _decay(rate, t[out - 1] - t[lo - 1 : out])
    absorb[:, 1:] *= np.expm1(-np.multiply.outer(rate, tau))
    absorb[:, 1:] *= (-theta * coef / rate)[:, None]
    if l1:
        absorb[:, 1:] /= tau
    return step, w, den, _decay(rate, t[b:e] - t[lo - 1]).T, absorb


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
    # Rows hold sine coefficients until the march is done, row 0 those of
    # phi.
    u = np.zeros((N + 1, M + 1))
    u[0] = _sine(phi)
    l1 = scheme is SchemeKind.L1
    kappa = 1.0 - alpha if l1 else alpha
    theta, combine = _ENDS[scheme]
    # Level n's coefficients are (base + F^n + T^n) / den, with T^n its
    # history sum and F^n the transformed H forcing.
    gain, base = (eta, 0.0) if l1 else (-4.0 * s / (h * h), eta * u[0])

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

    # Blocks [b, e) start at 1, the last at last + 1.  The states are set
    # up only if a step leaves the window before the last block; a uniform
    # mesh slices blocks of ``width`` window rows and ``height`` levels.
    last = (N - 1) // _BLOCK * _BLOCK
    width, height = min(_WINDOW, last), min(_BLOCK, N)
    uniform = _is_uniform(mesh.t)
    if uniform:
        levels = TemporalMesh(np.arange(max(N, width + height) + 1.0))
        unit = (mesh.T / N) ** (kappa - 1.0 if l1 else kappa)
    else:
        levels, unit = mesh, 1.0
    t, fit, states = levels.t, None, None
    if last > _WINDOW:
        delta = np.min(t[_WINDOW : N + 1] - t[: N + 1 - _WINDOW])
        rate, weight = _exp_sum(1.0 - kappa, delta, t[N])
        fit = rate, weight * (unit / math.gamma(kappa))
        states = np.zeros((len(rate), M + 1))
    inverse = None
    if uniform:
        step, near, den, lev, absorb = _block_weights(
            levels, width + 1, width + height + 1, 1, scheme, kappa, unit, fit, h, s
        )
        # Row lo - 1 weighs share[n - lo] in level n, and a row k levels
        # back weighs lag[k].  Level n solves (rhs + scale T^n) / den.
        share, near = theta * step[-1, ::-1], near[:, 1:]
        lag, factor = near[-1, ::-1], np.broadcast_to(scale / den[:1], (height, M + 1))
        if (M + 1) * _LEAF * _LEAF * 8 <= _CHUNK_BYTES:
            leaf = min(_LEAF, height)
            inverse = _leaf_inverse(lag, gain / den[0], leaf)

    # In a block [b, e), row i of ``w`` weighs row j >= lo of the source in
    # level b + i at column j - lo, and part[i] row lo - 1.  The states
    # hold the steps before lo, referenced to t_(lo-1).
    for b in range(1, N + 1, _BLOCK):
        e = min(b + _BLOCK, N + 1)
        lo = max(1, b - _WINDOW)
        if uniform:
            part, w = share[b - lo : e - lo], near[: e - b, width - (b - lo) :]
        else:
            _, w, den, lev, absorb = _block_weights(mesh, b, e, lo, scheme, kappa, 1.0, fit, h, s)
            part, w, factor = w[:, 0], w[:, 1:], scale / den
        u[b:e] += base
        u[b:e] += part[:, None] * (scale * src[lo - 1])
        _add_products(u[b:e], w[:, : b - lo], src[lo:b], scale)
        if lo > 1:
            _add_products(u[b:e], lev[: e - b], states, scale)
        u[b:e] /= den[: e - b]
        # A NaN in the block's rows, or in its F rows that the leaf
        # products read, would reach earlier levels through zero weights.
        leaves = inverse is not None and np.isfinite(u[b:e]).all()
        if leaves and (z is None or np.isfinite(z[b:e]).all()):
            for c in range(b, e, leaf):
                d = min(c + leaf, e)
                # The block's rows before the leaf, solved, and with
                # quadrature forcing also the leaf's own z rows, which
                # still hold F_j: each level's own F_n with weight e_n / 2.
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
                # With quadrature forcing, row n's own F_n too.
                hi = n if z is None else n + 1
                if hi > b:
                    u[n] += factor[i] * (w[i, b - lo : hi - lo] @ src[b:hi])
                if z is not None:
                    z[n] += gain * u[n]
        out = e - _WINDOW
        if out > lo and e <= N:
            # Steps lo..out-1 leave the window: the states decay to
            # t_(out-1) and absorb them, each as its source.
            states *= absorb[:, :1]
            leaving = combine(src[lo - 1 : out - 1], src[lo:out])
            _add_products(states, absorb[:, lo - out :], leaving, 1.0)

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
