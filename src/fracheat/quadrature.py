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

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .meshes import SpatialGrid, TemporalMesh
from .special import gamma

__all__ = [
    "WeightRow",
    "weights_row",
    "midpoint_convolution",
    "forcing_convolution_profile",
]


@dataclass(frozen=True)
class WeightRow:
    """Convolution weights a_k, k = 1..n, for one time level t_n.

    All weights are strictly positive for any admissible mesh, and their
    sum telescopes to t_n**alpha / Gamma(1 + alpha).
    """

    alpha: float
    t_n: float
    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.ascontiguousarray(self.weights, dtype=float)
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        if __debug__:
            if w.size == 0 or not np.all(w > 0.0):
                raise ValueError("weights must be a nonempty positive array")


def weights_row(alpha: float, mesh: TemporalMesh, n: int) -> WeightRow:
    """Exact step integrals of the kernel (t_n - s)**(alpha-1) / Gamma(alpha).

    Parameters
    ----------
    alpha : float
        Fractional order in (0, 1).
    mesh : TemporalMesh
        Time levels; may be graded.
    n : int
        Target level, 1 <= n <= N.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not 1 <= n <= mesh.N:
        raise ValueError(f"level must satisfy 1 <= n <= {mesh.N}, got {n}")
    t = mesh.t
    t_n = t[n]
    w = ((t_n - t[:n]) ** alpha - (t_n - t[1 : n + 1]) ** alpha) / gamma(1.0 + alpha)
    return WeightRow(alpha=alpha, t_n=float(t_n), weights=w)


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
    w = weights_row(alpha, mesh, n).weights
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
    w = weights_row(alpha, mesh, n).weights
    return w @ (samples[1 : n + 1] + samples[:n]) / 2.0
