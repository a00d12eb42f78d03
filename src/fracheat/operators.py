"""Spatial stencils, discrete norms, and the tridiagonal solve.

Grid functions are plain 1-D numpy arrays of length M+1 holding nodal
values on a ``SpatialGrid``; indices 0 and M are boundary nodes.  All the
spatial structure of the schemes lives in two stencils:

* the compact average  (v[i-1] + 10 v[i] + v[i+1]) / 12, which lifts the
  centered second difference to fourth-order accuracy, and
* the centered second difference  (v[i-1] - 2 v[i] + v[i+1]) / h**2.

Both act on interior nodes only; the compact average passes boundary
values through unchanged and the second difference returns zeros there.

Tridiagonal systems are solved by the Thomas algorithm in two steps: the
factorization (``factor_tridiagonal``) validates the bands and runs the
forward elimination once per matrix, and ``TridiagonalFactors.solve``
runs the forward and back substitution, two O(n) sweeps on Python floats,
per right-hand side.  ``solve_tridiagonal`` is the two steps in a row.
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
    "TridiagonalFactors",
    "factor_tridiagonal",
    "solve_tridiagonal",
]

def apply_compact(v: np.ndarray) -> np.ndarray:
    """Compact average: (v[i-1] + 10 v[i] + v[i+1]) / 12 at interior nodes.

    Boundary entries are returned unchanged.
    """
    out = np.array(v, dtype=float)
    out[1:-1] = (v[:-2] + 10.0 * v[1:-1] + v[2:]) / 12.0
    return out


def apply_second_diff(v: np.ndarray, h: float) -> np.ndarray:
    """Centered second difference at interior nodes, zero at the boundary."""
    out = np.zeros_like(v, dtype=float)
    out[1:-1] = (v[:-2] - 2.0 * v[1:-1] + v[2:]) / (h * h)
    return out


def norm_l2(v: np.ndarray, h: float) -> float:
    """Discrete L2 norm sqrt(h * sum_{i=1}^{M-1} v_i**2) over interior nodes."""
    w = v[1:-1]
    return float(np.sqrt(h * np.dot(w, w)))


def seminorm_h1(v: np.ndarray, h: float) -> float:
    """Discrete H1 seminorm sqrt(h * sum_{i=1}^{M} ((v_i - v_{i-1})/h)**2)."""
    d = np.diff(v) / h
    return float(np.sqrt(h * np.dot(d, d)))


def norm_energy(v: np.ndarray, h: float) -> float:
    """Energy norm induced by the compact stencil.

    Defined by  |v|_E**2 = |grad v|**2 - (h**2/12) * h * sum (d2 v_i)**2
    where |grad v| is ``seminorm_h1`` and d2 the centered second difference.
    The subtraction keeps at least two thirds of the seminorm for functions
    vanishing at the boundary, so the radicand is nonnegative up to
    rounding; a radicand below -1e-12 relative to the seminorm squared is
    reported as an error instead of silently clamped.
    """
    semi2 = h * np.sum((np.diff(v) / h) ** 2)
    d2 = apply_second_diff(v, h)[1:-1]
    rad = semi2 - (h * h / 12.0) * h * np.dot(d2, d2)
    if rad < 0.0:
        if rad < -1e-12 * max(semi2, np.finfo(float).tiny):
            raise ValueError(f"energy norm radicand is negative: {rad}")
        rad = 0.0
    return float(np.sqrt(rad))


def _check_bands(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray) -> None:
    """Band lengths, finiteness and strict row dominance, or ValueError."""
    n = diag.size
    if lower.size != n - 1 or upper.size != n - 1:
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
        if self.rhs.size != self.diag.size:
            raise ValueError("inconsistent band lengths")
        _check_bands(self.lower, self.diag, self.upper)


@dataclass(frozen=True)
class TridiagonalFactors:
    """Pivot-free LU factors of a tridiagonal matrix, as Python floats.

    ``pivots[i]`` is the i-th pivot of the forward sweep, ``ratios[i]`` the
    multiplier upper[i] / pivots[i], and ``lower`` the subdiagonal.  They
    depend on the bands only, so one factorization serves every right-hand
    side of the same matrix.
    """

    lower: list[float]
    pivots: list[float]
    ratios: list[float]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Forward and back substitution for one right-hand side."""
        piv, c = self.pivots, self.ratios
        b = np.asarray(rhs, dtype=float).tolist()
        if len(b) != len(piv):
            raise ValueError(f"right-hand side has {len(b)} rows, matrix has {len(piv)}")
        d = b[0] / piv[0]
        y = [d]
        for low, p, r in zip(self.lower, piv[1:], b[1:]):
            d = (r - low * d) / p
            y.append(d)
        for i in range(len(y) - 2, -1, -1):
            d = y[i] - c[i] * d
            y[i] = d
        return np.array(y)


def _eliminate(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray) -> TridiagonalFactors:
    """Forward sweep of the Thomas algorithm on the bands alone.

    Row dominance guarantees every pivot stays bounded away from zero; a
    vanishing pivot therefore indicates a corrupted system and raises.
    """
    low, dia, up = lower.tolist(), diag.tolist(), upper.tolist()
    piv = dia[0]
    if abs(piv) < 1e-300:
        raise ValueError("zero pivot in row 0")
    pivots, ratios = [piv], []
    for i in range(1, len(dia)):
        ratios.append(up[i - 1] / piv)
        piv = dia[i] - low[i - 1] * ratios[-1]
        if abs(piv) < 1e-300:
            raise ValueError(f"zero pivot in row {i}")
        pivots.append(piv)
    return TridiagonalFactors(lower=low, pivots=pivots, ratios=ratios)


def factor_tridiagonal(
    lower: np.ndarray, diag: np.ndarray, upper: np.ndarray
) -> TridiagonalFactors:
    """Validate the bands as ``TridiagonalSystem`` does, then factor them once."""
    _check_bands(lower, diag, upper)
    return _eliminate(lower, diag, upper)


def solve_tridiagonal(system: TridiagonalSystem) -> np.ndarray:
    """Solve A u = b by the Thomas algorithm (no pivoting): factor, then substitute."""
    return _eliminate(system.lower, system.diag, system.upper).solve(system.rhs)
