"""Independent reference computations used by the tests.

Everything here deliberately avoids the code paths under test: dense
matrices instead of banded stencils, adaptive quadrature after a
desingularizing substitution instead of product quadrature, the Beta
identity for fractional integrals of monomials, a march of each sine
mode over the whole history instead of windows and exponential sums, and
the Mittag-Leffler integral in 40-digit mpmath arithmetic.
"""

from __future__ import annotations

import math

import numpy as np
from mpmath import mp
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


def kernel_step_integrals(kappa: float, t: np.ndarray, n: int) -> np.ndarray:
    """c_1, ..., c_n of level n: the step integrals of (t_n - s)**(kappa-1) / Gamma(kappa).

    c_k = x**kappa - (x - tau_k)**kappa over Gamma(1 + kappa), with
    x = t_n - t_(k-1), taken as -x**kappa expm1(kappa log1p(-tau_k / x)) so
    that a step short against x keeps its digits; the own step, x = tau_n,
    gives x**kappa.
    """
    x = t[n] - t[:n]
    with np.errstate(divide="ignore"):
        c = -(x**kappa) * np.expm1(kappa * np.log1p(-np.diff(t[: n + 1]) / x))
    return c / math.gamma(1.0 + kappa)


def mittag_leffler_quad(beta: float, x: float) -> float:
    """E_beta(-x), 0 < beta < 1, by mpmath.quad of the integral in
    ``special`` at 40 digits: on (0, psi*) in psi and on (0, beta pi - psi*)
    in sigma, each angle from atan2.  Raises AssertionError unless quad's
    own error estimate is below 1e-17 of the result, a tenth of a double's
    rounding."""
    with mp.workdps(40):
        beta, x = mp.mpf(beta), mp.mpf(x)
        angle = beta * mp.pi
        a = mp.atan2(x * mp.sin(angle), 1 + x * mp.cos(angle))
        b = mp.atan2(mp.sin(angle), x + mp.cos(angle))

        def f(psi, sigma):
            return mp.exp(-((x * mp.sin(sigma) / mp.sin(psi)) ** (1 / beta)))

        # In u = 1 - t of each piece, split toward the far end of the piece,
        # where the integrand turns on a scale as short as b/a or a/b.
        cuts = [0] + [mp.mpf(10) ** -k for k in range(24, 0, -4)] + [1]
        left, e_left = mp.quad(lambda u: f(a * (1 - u), b + a * u), cuts, error=True)
        right, e_right = mp.quad(lambda u: f(a + b * u, b * (1 - u)), cuts, error=True)
        total = a * left + b * right
        if not a * e_left + b * e_right < 1e-17 * total:  # not assert: python -O strips it
            raise AssertionError(f"quad error {e_left}, {e_right} for beta={beta}, x={x}")
        return float(total / angle)


def per_mode_march(problem, M: int, t: np.ndarray, l1: bool) -> np.ndarray:
    """Either scheme as a march of each sine mode over the whole history.

    With eta_m = 1 - s_m / 3 and mu_m = 4 s_m M**2, s_m = sin(m pi / 2M)**2,
    the eigenvalues of the compact average H and of minus the second
    difference on mode m, and the step integrals c_k of
    ``kernel_step_integrals``, the mode's amplitude U^n at level n solves

    * transformed (kappa = alpha, e_k = c_k):
      (eta + e_n mu / 2) U^n = eta U^0 + Q^n
          - mu (sum_{k<n} e_k (U^(k-1) + U^k) / 2 + e_n U^(n-1) / 2),
      with Q^n the closed-form fractional integral of the forcing, or
      sum_k e_k (F^(k-1) + F^k) / 2 without one;
    * L1 (kappa = 1 - alpha, d_k = c_k / tau_k):
      (d_n eta + mu) U^n = eta (d_n U^(n-1) - sum_{k<n} d_k (U^k - U^(k-1))) + F^n,

    where U^0 is the sine transform of phi's interior and F^n (Q^n) that of
    H f(t_n) (H q(t_n)), boundary values included, by a dense sine matrix.
    Every level weighs all of its history with c_k, in O(N**2 M).  Returns
    the (N + 1, M + 1) lattice, row 0 phi as sampled.
    """
    alpha, N = problem.alpha, t.size - 1
    x = np.linspace(0.0, 1.0, M + 1)
    m = np.arange(1, M)
    S = np.sin(np.pi * np.outer(m, m) / M)
    s = np.sin(0.5 * np.pi * m / M) ** 2
    eta, mu = 1.0 - s / 3.0, 4.0 * s * M * M
    H = dense_compact_matrix(M)
    phi = np.asarray(problem.phi(x), dtype=float)
    U = np.zeros((N + 1, M - 1))
    U[0] = phi[1:M] @ S
    closed = not l1 and problem.exact_f_conv is not None
    if closed:
        q = np.broadcast_to(problem.exact_f_conv(x, t[:, None]), (N + 1, M + 1))
    else:
        q = np.stack([np.asarray(problem.f(x, float(tn)), dtype=float) for tn in t])
    F = (q @ H.T)[:, 1:M] @ S
    # pair[k] is (U^(k-1) + U^k) / 2 for the transformed scheme and
    # U^k - U^(k-1) for L1, filled in as the levels are solved.
    pair = np.zeros_like(U)
    for n in range(1, N + 1):
        c = kernel_step_integrals(1.0 - alpha if l1 else alpha, t, n)
        if l1:
            d = c / np.diff(t[: n + 1])
            hist = d[-1] * U[n - 1] - d[:-1] @ pair[1:n]
            U[n] = (eta * hist + F[n]) / (d[-1] * eta + mu)
            pair[n] = U[n] - U[n - 1]
        else:
            Q = F[n] if closed else c @ (F[:n] + F[1 : n + 1]) / 2.0
            hist = c[:-1] @ pair[1:n] + c[-1] * U[n - 1] / 2.0
            U[n] = (eta * U[0] + Q - mu * hist) / (eta + c[-1] * mu / 2.0)
            pair[n] = (U[n - 1] + U[n]) / 2.0
    u = np.zeros((N + 1, M + 1))
    u[:, 1:M] = U @ S * (2.0 / M)
    u[0] = phi
    return u


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
