"""Product quadrature for the weakly singular fractional integral.

The Caputo problem is advanced in its integrated (Volterra) form, so the
time discretization reduces to approximating

    I(t_n) = (1/Gamma(alpha)) * integral_0^{t_n} (t_n - s)**(alpha-1) g(s) ds.

On each step [t_{k-1}, t_k] the kernel factor is integrated exactly,

    a_k = ((t_n - t_{k-1})**alpha - (t_n - t_k)**alpha) / Gamma(1 + alpha),

and g is replaced by its endpoint average (g_k + g_{k-1}) / 2.  The kernel
singularity at s = t_n therefore never has to be sampled, and the weights
telescope to t_n**alpha / Gamma(1 + alpha) exactly, which is the quadrature
applied to g = 1.

Far from s = t_n the kernel is smooth, and the solver replaces it there by
a sum of exponentials (``_exp_sum``), whose terms it can carry forward in
time at a fixed cost per step.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Optional

import numpy as np

from .meshes import SpatialGrid, TemporalMesh

__all__ = [
    "weights_row",
    "midpoint_convolution",
    "forcing_convolution_profile",
]

# Largest relative error of ``_exp_sum`` against t**-beta on its interval,
# for 0 < beta < 2.
_SOE_TOL = 1e-13
# Past s = _SOE_TOP / delta, exp(-s t) < 1e-16 for every t >= delta.
_SOE_TOP = 37.0


def weights_row(
    alpha: float, mesh: TemporalMesh, n: int, stop: Optional[int] = None, start: int = 0
) -> np.ndarray:
    """Exact step integrals of the kernel (t_n - s)**(alpha-1) / Gamma(alpha).

    They serve both schemes of the solver: at the fractional order they
    weigh the transformed scheme's step averages, and at one minus it, over
    the step lengths, L1's difference quotients.  Returns the read-only row
    a_1, ..., a_n of level n.  Every weight is
    positive and finite for an admissible mesh, and the row sums to
    t_n**alpha / Gamma(1 + alpha); a weight that rounds to zero (a step
    too small against t_n) raises ValueError.  With ``stop``, returns the
    rows of levels n..stop-1 as one (stop - n, stop - 1) array whose row i
    is that of level n + i padded with zeros.  With ``start``, the steps
    1..start are left out (and not checked): column k holds a_{start+k+1}.

    Parameters
    ----------
    alpha : float
        Exponent of the kernel in (0, 1).
    mesh : TemporalMesh
        Time levels; may be graded.
    n : int
        Target level, 1 <= n <= N (the first one, with ``stop``).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    hi = n + 1 if stop is None else stop
    if not 1 <= n < hi <= mesh.N + 1:
        raise ValueError(f"levels n..stop-1 must lie in 1..{mesh.N}, got {n}..{hi - 1}")
    if not 0 <= start < n:
        raise ValueError(f"start must lie in 0..{n - 1}, got {start}")
    # Step k of level m takes (t_m - t_k)**alpha, clipped to 0 past t_m.
    powers = np.maximum(mesh.t[n:hi, None] - mesh.t[start:hi], 0.0)
    powers **= alpha
    w = (powers[:, :-1] - powers[:, 1:]) / math.gamma(1.0 + alpha)
    # Level m has m - start weights, and its padding past them is exactly 0.
    ok, rows = (w > 0.0) & (w < np.inf), hi - n
    if np.count_nonzero(ok) != rows * (n - start) + rows * (rows - 1) // 2:
        ok |= np.arange(start, hi - 1) >= np.arange(n, hi)[:, None]
        i, k = np.unravel_index(np.argmin(ok), ok.shape)
        step = start + k + 1
        raise ValueError(
            f"kernel weight a_{step} of level {n + i} is not positive and finite "
            f"({w[i, k]}): step {step} is too small against t_{n + i}"
        )
    w.flags.writeable = False
    return w if stop is not None else w[0]


def midpoint_convolution(
    alpha: float, mesh: TemporalMesh, values: np.ndarray, n: int
) -> float:
    """Approximate the fractional integral of g at level t_n.

    ``values`` holds samples g(t_0), ..., g(t_n) (longer arrays are allowed
    and the tail is ignored).  Each step contributes its exact kernel
    weight times the endpoint average of g, which is second order in the
    step away from the singular endpoint.  ``n = 0`` returns 0 since the
    integral is empty.
    """
    if n == 0:
        return 0.0
    g = np.asarray(values, dtype=float)
    if g.size < n + 1:
        raise ValueError(f"need samples at levels 0..{n}, got {g.size}")
    w = weights_row(alpha, mesh, n)
    return float(w @ (g[1 : n + 1] + g[:n]) / 2.0)


def forcing_convolution_profile(
    f: Callable[[np.ndarray, float], np.ndarray],
    grid: SpatialGrid,
    alpha: float,
    mesh: TemporalMesh,
    n: int,
) -> np.ndarray:
    """Fractional integral of the forcing at every grid node at once.

    Applies ``midpoint_convolution``'s rule at each node, with a single
    kernel-weight row and vectorized samples f(x, t_k), k = 0..n.
    """
    if n == 0:
        return np.zeros(grid.M + 1)
    samples = np.stack(
        [np.asarray(f(grid.x, t), dtype=float) for t in mesh.t[: n + 1]]
    )
    w = weights_row(alpha, mesh, n)
    return w @ (samples[1 : n + 1] + samples[:n]) / 2.0


@functools.lru_cache(maxsize=16)
def _gauss_jacobi(n: int, b: float) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss rule for the weight u**b on [0, 1], b > -1.

    Returns the read-only nodes, in increasing order, and their weights.
    The nodes are u = (1 + x) / 2 at the roots x = cos(theta) of the
    Jacobi polynomial P_n^(0,b); Newton's method runs on theta, with P_n
    and P_{n-1} from the three-term recurrence, so that u = cos(theta/2)**2
    and 1 - x**2 = sin(theta)**2 keep their relative accuracy near the
    ends.  The weight of a node is 1 / (sin(theta) P_n'(x))**2.
    """
    c = 2.0 * n + b
    # Asymptotic root angles, then Newton steps: from this start the steps
    # fall below 1e-16 within six iterations for n <= 30.
    theta = np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5 * (b + 1.0))
    for _ in range(8):
        x = np.cos(theta)
        prev, p = np.ones_like(x), 0.5 * ((b + 2.0) * x - b)
        for m in range(2, n + 1):
            d = 2.0 * m + b
            prev, p = p, (
                (d - 1.0) * (d * (d - 2.0) * x - b * b) * p
                - 2.0 * (m - 1.0) * (m + b - 1.0) * d * prev
            ) / (2.0 * m * (m + b) * (d - 2.0))
        slope = (2.0 * n * (n + b) * prev - n * (b + c * x) * p) / (c * np.sin(theta))
        theta += p / slope
    rule = np.cos(0.5 * theta) ** 2, slope**-2.0
    for a in rule:
        a.flags.writeable = False
    return rule


def _exp_sum(beta: float, delta: float, T: float) -> tuple[np.ndarray, np.ndarray]:
    """Rates s_l and weights w_l with t**-beta ~ sum_l w_l exp(-s_l t) on [delta, T].

    For 0 < beta < 2 and 0 < delta < T, to within ``_SOE_TOL`` relative.
    Every rate and weight is positive, so the sum has no cancellation.  It
    discretizes t**-beta = integral_0^inf s**(beta-1) exp(-s t) ds / Gamma(beta):
    an 8-point Gauss-Jacobi rule for the weight s**(beta-1) on [0, 1/T],
    then 10-point Gauss-Legendre panels of unit width in log s from 1/T
    until past ``_SOE_TOP`` / delta.  That is 8 + 10 ceil(log(37 T / delta))
    terms: 78 for delta / T = 1/16, 138 for 1e-4 and 238 for 1e-8.
    """
    u, w = _gauss_jacobi(8, beta - 1.0)
    y, v = _gauss_jacobi(10, 0.0)
    panels = math.ceil(math.log(_SOE_TOP * T / delta))
    s = np.exp(np.add.outer(np.arange(panels) - math.log(T), y).ravel())
    rates = np.concatenate((u / T, s))
    weights = np.concatenate((w * T**-beta, np.tile(v, panels) * s**beta))
    return rates, weights / math.gamma(beta)
