"""Independent reference computations used by the tests.

Everything here deliberately avoids the code paths under test: dense
matrices instead of banded stencils, adaptive quadrature after a
desingularizing substitution instead of product quadrature, and the Beta
identity for fractional integrals of monomials.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad


def dense_compact_matrix(M: int) -> np.ndarray:
    """The compact-average operator as a dense (M+1) x (M+1) matrix."""
    A = np.eye(M + 1)
    for i in range(1, M):
        A[i, i - 1] = 1.0 / 12.0
        A[i, i] = 10.0 / 12.0
        A[i, i + 1] = 1.0 / 12.0
    return A


def dense_second_diff_matrix(M: int, h: float) -> np.ndarray:
    """Centered second difference as a dense matrix, zero boundary rows."""
    A = np.zeros((M + 1, M + 1))
    for i in range(1, M):
        A[i, i - 1] = 1.0 / (h * h)
        A[i, i] = -2.0 / (h * h)
        A[i, i + 1] = 1.0 / (h * h)
    return A


def dense_tridiagonal(lower, diag, upper) -> np.ndarray:
    n = len(diag)
    A = np.zeros((n, n))
    A[np.arange(n), np.arange(n)] = diag
    A[np.arange(1, n), np.arange(n - 1)] = lower
    A[np.arange(n - 1), np.arange(1, n)] = upper
    return A


def thomas_elementwise(lower, diag, upper, rhs) -> np.ndarray:
    """The Thomas algorithm indexing numpy scalars, one row at a time.

    Factorization and substitution interleaved in a single forward sweep;
    the library's factor-then-substitute solve must reproduce it bit for
    bit.
    """
    n = diag.size
    piv = diag[0]
    if n == 1:
        return np.array([rhs[0] / piv])
    c = np.empty(n - 1)
    d = np.empty(n)
    c[0] = upper[0] / piv
    d[0] = rhs[0] / piv
    for i in range(1, n):
        piv = diag[i] - lower[i - 1] * c[i - 1]
        if i < n - 1:
            c[i] = upper[i] / piv
        d[i] = (rhs[i] - lower[i - 1] * d[i - 1]) / piv
    u = np.empty(n)
    u[-1] = d[-1]
    for i in range(n - 2, -1, -1):
        u[i] = d[i] - c[i] * u[i + 1]
    return u


def fractional_integral_monomial(alpha: float, beta: float, t: float) -> float:
    """Beta identity: I^alpha[s**beta](t) = G(b+1)/G(a+b+1) t**(a+b)."""
    return math.gamma(beta + 1.0) / math.gamma(alpha + beta + 1.0) * t ** (alpha + beta)


def fractional_integral_quad(g, alpha: float, t: float) -> float:
    """Adaptive quadrature of (1/G(a)) int_0^t (t-s)**(a-1) g(s) ds.

    The substitution w = (t - s)**alpha removes the endpoint singularity:
    the integral becomes (1/G(a+1)) int_0^{t**a} g(t - w**(1/a)) dw.
    """
    if t == 0.0:
        return 0.0

    def integrand(w: float) -> float:
        return g(t - w ** (1.0 / alpha))

    val, _ = quad(integrand, 0.0, t**alpha, limit=400)
    return val / math.gamma(alpha + 1.0)


def dump_text(x, t, values, dump: str, fmt: str) -> str:
    """The ``fracheat run`` report written as four explicit branches.

    ``dump`` is ``profile`` (the last row of ``values`` against ``x``) or
    ``lattice`` (every row, each against its level ``t``); ``fmt`` is
    ``csv`` or ``table``.  The CLI's column-driven row writer must
    reproduce this byte for byte.
    """
    lines = []
    if dump == "profile":
        if fmt == "csv":
            lines.append("x,u")
            for xi, u in zip(x, values[-1]):
                lines.append(f"{xi:.10g},{u:.10g}")
        else:
            lines.append(f"{'x':>12}  {'u':>14}")
            for xi, u in zip(x, values[-1]):
                lines.append(f"{xi:>12.6f}  {u:>14.6e}")
    else:
        if fmt == "csv":
            lines.append("t,x,u")
            for n, tn in enumerate(t):
                for xi, u in zip(x, values[n]):
                    lines.append(f"{tn:.10g},{xi:.10g},{u:.10g}")
        else:
            lines.append(f"{'t':>12}  {'x':>12}  {'u':>14}")
            for n, tn in enumerate(t):
                for xi, u in zip(x, values[n]):
                    lines.append(f"{tn:>12.6f}  {xi:>12.6f}  {u:>14.6e}")
    return "\n".join(lines) + "\n"
