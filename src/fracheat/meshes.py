"""Spatial grids on [0, 1] and (possibly graded) temporal meshes on [0, T].

The time-stepping schemes read mesh geometry exclusively through these two
containers, so nonuniform meshes only ever have to be implemented here.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = ["SpatialGrid", "TemporalMesh", "uniform_time_mesh", "graded_time_mesh"]


def _count(name: str, value) -> int:
    """``value`` as an int if it is a Python or numpy integer, else ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {name}={value!r}") from None


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform grid x_i = i*h on [0, 1] with M cells, h = 1/M.

    Nodes 0 and M carry the Dirichlet boundary; 1..M-1 are interior.
    """

    M: int
    h: float = field(init=False)
    x: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "M", _count("M", self.M))
        if self.M < 2:
            raise ValueError(f"need at least 2 cells, got M={self.M}")
        object.__setattr__(self, "h", 1.0 / self.M)
        object.__setattr__(self, "x", _readonly(np.linspace(0.0, 1.0, self.M + 1)))


@dataclass(frozen=True)
class TemporalMesh:
    """Strictly increasing time levels 0 = t_0 < t_1 < ... < t_N = T."""

    t: np.ndarray

    def __post_init__(self) -> None:
        t = _readonly(self.t)
        object.__setattr__(self, "t", t)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("need at least the two levels t_0 and t_N")
        finite = np.isfinite(t)
        if not finite.all():
            n = int(np.argmin(finite))
            raise ValueError(f"time level t_{n}={t[n]} is not finite")
        if t[0] != 0.0:
            raise ValueError(f"mesh must start at 0, got t_0={t[0]}")
        if not np.all(np.diff(t) > 0.0):
            raise ValueError("time levels must be strictly increasing")

    @property
    def T(self) -> float:
        """Final time T = t_N; the last level is its only record."""
        return float(self.t[-1])

    @property
    def N(self) -> int:
        return self.t.size - 1

    @property
    def steps(self) -> np.ndarray:
        """Step sizes tau_n = t_n - t_{n-1}, length N."""
        return np.diff(self.t)


def uniform_time_mesh(T: float, N: int) -> TemporalMesh:
    """Uniform mesh t_n = T*n/N, the graded mesh of exponent r = 1.

    The levels are computed as T*(n/N) rather than by accumulating a step
    size, so t_N equals T exactly and refining N keeps shared levels
    bit-identical.
    """
    return graded_time_mesh(T, N, 1.0)


def _check_grading(r: float) -> None:
    if not 1.0 <= r < np.inf:
        raise ValueError(f"grading exponent must be finite and satisfy r >= 1, got r={r}")


def _first_collision(t: np.ndarray) -> int:
    """The first n with t_n <= t_{n-1}, or 0 if the levels increase."""
    n = int(np.argmin(np.diff(t) > 0.0)) + 1
    return 0 if t[n] > t[n - 1] else n


def graded_time_mesh(T: float, N: int, r: float) -> TemporalMesh:
    """Graded mesh t_n = T*(n/N)**r clustering levels near t = 0.

    r > 1 compresses early steps to compensate the kernel singularity; r < 1
    is rejected because it would do the opposite.  r = 1 is the uniform
    mesh: x**1.0 is exact, so its levels are T*(n/N).  N must be an integer:
    a fractional one would give int(N) + 1 steps of 1/N and move the last
    level past T.  A level that rounds to the one before it is rejected
    with a message naming N, the level and its cause: T when the uniform
    levels T*(n/N) collide too, else r.
    """
    _check_grading(r)
    if not 0.0 < T < np.inf:
        raise ValueError(f"final time must be positive and finite, got T={T}")
    N = _count("N", N)
    if N < 1:
        raise ValueError(f"need at least one step, got N={N}")
    frac = np.arange(N + 1, dtype=float) / N
    t = T * frac**r
    n = _first_collision(t)
    if n:
        # A uniform mesh that collides too is the final time's fault.
        uniform = T * frac
        m = _first_collision(uniform)
        if m:
            tail = "" if r == 1.0 else " even on the uniform mesh"
            raise ValueError(
                f"final time T={T:g} is too small for N={N} steps: t_{m} = T*({m}/{N}) "
                f"rounds to t_{m - 1} = {uniform[m - 1]:g}{tail}"
            )
        raise ValueError(
            f"grading r={r} is too strong for N={N} steps: t_{n} = T*({n}/{N})**r "
            f"rounds to t_{n - 1} = {t[n - 1]:g}"
        )
    return TemporalMesh(t=t)
