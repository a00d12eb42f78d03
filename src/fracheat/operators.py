"""Spatial stencils, discrete norms, and the tridiagonal solve.

Grid functions are plain 1-D numpy arrays of length M+1 holding nodal
values on a ``SpatialGrid``; indices 0 and M are boundary nodes.  The
stencils and norms also take a stack of them, acting along the last axis.
All the spatial structure of the schemes lives in two stencils:

* the compact average  (v[i-1] + 10 v[i] + v[i+1]) / 12, which lifts the
  centered second difference to fourth-order accuracy, and
* the centered second difference  (v[i-1] - 2 v[i] + v[i+1]) / h**2.

Both act on interior nodes only; the compact average passes boundary
values through unchanged and the second difference returns zeros there.

``TridiagonalSystem`` and ``solve_tridiagonal`` solve a strictly
diagonally dominant tridiagonal system by the Thomas algorithm.  ``solve``
does not use them: with pinned ends both stencils are diagonal in the
discrete sine basis, so its levels are solved mode by mode (see
``solver``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "apply_compact",
    "apply_second_diff",
    "norm_l2",
    "seminorm_h1",
    "norm_energy",
    "TridiagonalSystem",
    "solve_tridiagonal",
]

def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis, each one as ``np.dot`` forms it."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def apply_compact(v: np.ndarray) -> np.ndarray:
    """Compact average: (v[i-1] + 10 v[i] + v[i+1]) / 12 at interior nodes.

    Acts along the last axis, so a 2-D stack is averaged row by row.
    Boundary entries are returned unchanged.
    """
    out = np.array(v, dtype=float)
    out[..., 1:-1] = (out[..., :-2] + 10.0 * out[..., 1:-1] + out[..., 2:]) / 12.0
    return out


def apply_second_diff(v: np.ndarray, h: float) -> np.ndarray:
    """Centered second difference at interior nodes, zero at the boundary."""
    out = np.zeros_like(v, dtype=float)
    out[..., 1:-1] = (v[..., :-2] - 2.0 * v[..., 1:-1] + v[..., 2:]) / (h * h)
    return out


def norm_l2(v: np.ndarray, h: float) -> float | np.ndarray:
    """Discrete L2 norm sqrt(h * sum_{i=1}^{M-1} v_i**2) over interior nodes."""
    w = v[..., 1:-1]
    return np.sqrt(h * _dot_rows(w, w))


def seminorm_h1(v: np.ndarray, h: float) -> float | np.ndarray:
    """Discrete H1 seminorm sqrt(h * sum_{i=1}^{M} ((v_i - v_{i-1})/h)**2)."""
    d = np.diff(v) / h
    return np.sqrt(h * _dot_rows(d, d))


def norm_energy(v: np.ndarray, h: float) -> float | np.ndarray:
    """Energy norm induced by the compact stencil.

    Defined by  |v|_E**2 = |grad v|**2 - (h**2/12) * h * sum (d2 v_i)**2
    where |grad v| is ``seminorm_h1`` and d2 the centered second difference.
    As (a - b)**2 <= 2 a**2 + 2 b**2, the subtraction keeps at least two
    thirds of the seminorm squared for every grid function, so a radicand
    below -1e-12 relative to it can only come from overflow; that is
    reported as an error instead of silently clamped.
    """
    semi2 = h * np.sum((np.diff(v) / h) ** 2, axis=-1)
    d2 = apply_second_diff(v, h)[..., 1:-1]
    rad = semi2 - (h * h / 12.0) * h * _dot_rows(d2, d2)
    bad = rad < -1e-12 * np.maximum(semi2, np.finfo(float).tiny)
    if np.any(bad):
        worst = np.min(np.where(bad, rad, 0.0))
        raise ValueError(f"energy norm radicand is negative: {worst}")
    return np.sqrt(np.maximum(rad, 0.0))


@dataclass(frozen=True)
class TridiagonalSystem:
    """A strictly diagonally dominant tridiagonal system A u = b.

    ``diag`` and ``rhs`` have length n; ``lower`` and ``upper`` have length
    n - 1 and hold A[i+1, i] and A[i, i+1].  Strict row dominance is what
    licenses the pivot-free elimination in ``solve_tridiagonal``, so it is
    checked at construction, along with finite bands.
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    rhs: np.ndarray

    def __post_init__(self) -> None:
        lower, diag, upper = self.lower, self.diag, self.upper
        n = diag.size
        if lower.size != n - 1 or upper.size != n - 1 or self.rhs.size != n:
            raise ValueError("inconsistent band lengths")
        for name, band in (("lower", lower), ("diag", diag), ("upper", upper)):
            bad = np.flatnonzero(~np.isfinite(band))
            if bad.size:
                i = int(bad[0])
                raise ValueError(f"{name} band entry {i} is not finite ({band[i]})")
        off = np.zeros(n)
        off[:-1] += np.abs(upper)
        off[1:] += np.abs(lower)
        gap = np.abs(diag) - off
        if not np.all(gap > 0.0):
            i = int(np.argmin(gap))
            raise ValueError(f"row {i} is not strictly diagonally dominant (gap {gap[i]})")


def solve_tridiagonal(system: TridiagonalSystem) -> np.ndarray:
    """Solve A u = b by the Thomas algorithm (no pivoting) on Python floats.

    Row dominance keeps every pivot away from zero; a vanishing pivot
    therefore means the bands changed after construction, and raises.
    """
    low, dia, up, b = (
        np.asarray(a, dtype=float).tolist()
        for a in (system.lower, system.diag, system.upper, system.rhs)
    )
    piv = dia[0]
    if abs(piv) < 1e-300:
        raise ValueError("zero pivot in row 0")
    ratios, u = [], [b[0] / piv]
    for i in range(1, len(dia)):
        ratios.append(up[i - 1] / piv)
        piv = dia[i] - low[i - 1] * ratios[-1]
        if abs(piv) < 1e-300:
            raise ValueError(f"zero pivot in row {i}")
        u.append((b[i] - low[i - 1] * u[-1]) / piv)
    for i in range(len(u) - 2, -1, -1):
        u[i] -= ratios[i] * u[i + 1]
    return np.array(u)
