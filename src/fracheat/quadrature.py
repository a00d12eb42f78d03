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
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .meshes import SpatialGrid, TemporalMesh
from .special import gamma

__all__ = [
    "weights_row",
    "midpoint_convolution",
    "forcing_convolution_profile",
]


def weights_row(
    alpha: float, mesh: TemporalMesh, n: int, stop: Optional[int] = None
) -> np.ndarray:
    """Exact step integrals of the kernel (t_n - s)**(alpha-1) / Gamma(alpha).

    Returns the read-only row a_1, ..., a_n of level n.  Every weight is
    positive and finite for an admissible mesh, and the row sums to
    t_n**alpha / Gamma(1 + alpha); a weight that rounds to zero (a step
    too small against t_n) raises ValueError.  With ``stop``, returns the
    rows of levels n..stop-1 as one (stop - n, stop - 1) array whose row i
    is that of level n + i padded with zeros.

    Parameters
    ----------
    alpha : float
        Fractional order in (0, 1).
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
    # Step k of level m takes (t_m - t_k)**alpha, clipped to 0 past t_m.
    powers = np.maximum(mesh.t[n:hi, None] - mesh.t[:hi], 0.0)
    powers **= alpha
    w = (powers[:, :-1] - powers[:, 1:]) / gamma(1.0 + alpha)
    ok = (w > 0.0) & (w < np.inf) | (np.arange(hi - 1) >= np.arange(n, hi)[:, None])
    if not ok.all():
        i, k = np.unravel_index(np.argmin(ok), ok.shape)
        raise ValueError(
            f"kernel weight a_{k + 1} of level {n + i} is not positive and finite "
            f"({w[i, k]}): step {k + 1} is too small against t_{n + i}"
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
