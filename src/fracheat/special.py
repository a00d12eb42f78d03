"""The Mittag-Leffler function E_beta(-x) on the negative axis.

For 0 < beta < 1 and x >= 0 it is one bounded integral,

    E_beta(-x) = 1/(beta pi) int_0^{beta pi} exp(-(x w(psi))**(1/beta)) dpsi,
    w(psi) = sin(beta pi - psi) / sin(psi),

the spectral integral after the substitutions v = r**beta and
v = w(psi).  Its integrand is positive, increasing in psi and at most 1, so
the sum cannot cancel, overflow or stop short.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["mittag_leffler"]


@functools.lru_cache(maxsize=4)
def _rule(depth: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes t, their 1 - t, and weights of a rule on (0, 1) graded toward
    both ends: 20-point Gauss-Legendre on the panels [2**-(k+1), 2**-k],
    k = 1..depth-1, and [0, 2**-depth], mirrored onto [1/2, 1).  A node near
    1 keeps its distance to 1 exactly.  Built on first call, not at import."""
    g, w = np.polynomial.legendre.leggauss(20)
    hi = 2.0 ** -np.arange(1.0, depth + 1.0)
    half = (hi - np.append(hi[1:], 0.0))[:, None] / 2.0
    s, ws = (hi[:, None] - half * (1.0 - g)).ravel(), (half * w).ravel()
    rule = np.concatenate([s, 1.0 - s]), np.concatenate([1.0 - s, s]), np.tile(ws, 2)
    for a in rule:  # shared by every call
        a.flags.writeable = False
    return rule


def mittag_leffler(beta: float, z: float) -> float:
    """E_beta(z) = sum_{n>=0} z**n / Gamma(1 + n*beta) for 0 < beta <= 1, z <= 0.

    At beta = 1 it is exp(z).  Otherwise the integral of the module
    docstring, with x = -z, is split at psi* where x w(psi*) = 1: a graded
    rule in psi on (0, psi*), and in sigma = beta pi - psi on
    (0, beta pi - psi*).  The smaller of the two angles comes from atan2 and
    the other is its complement; a sine of an angle past pi/2 is taken from
    its supplement pi (1 - beta) + (the other angle).  The integrand turns
    within about beta * (smaller angle) / (larger angle) of each piece's
    length from the split, so the rule is graded at least that deep.

    Measured within 1.3e-15 relative of 40-digit mpmath for beta from 0.1
    to 1 - 1e-6 and x from 1e-300 to 1e12, up to x = 1e200 for beta from
    1e-6 to 1 - 1e-12, and for beta down to 1e-9 at x <= 0.9.  Rounding x
    w(psi) costs about x * 2**-52 relative near beta = 1, the conditioning
    of exp(-x).

    Raises
    ------
    ValueError
        If beta lies outside [2**-1022, 1], z is not finite, or z > 0.
    """
    if not 2.0**-1022 <= beta <= 1.0:  # a subnormal beta loses its digits in beta pi
        raise ValueError(f"beta must lie in [2**-1022, 1], got {beta}")
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got z={z}")
    if z > 0.0:
        raise ValueError(f"z must be nonpositive, got z={z}")
    if beta == 1.0 or z == 0.0:
        return math.exp(z)
    x, angle, gap = -z, beta * math.pi, math.pi * (1.0 - beta)
    sine = math.sin(min(angle, gap))
    a = math.atan2(x * sine, 1.0 + x * math.cos(angle))
    b = math.atan2(sine, x + math.cos(angle))
    # Only the larger angle's denominator can cancel, and it is not used.
    a, b = (a, angle - a) if a <= b else (angle - b, b)
    # The integrand turns within beta * (smaller / larger angle) of the
    # split; past 1075 halvings the panels round to nothing.
    halvings = math.log2(max(a, b)) - math.log2(beta) - math.log2(max(min(a, b), 5e-324))
    t, u, w = _rule(min(1075, max(61, 4 + math.ceil(halvings))))
    psi = np.concatenate([a * t, a + b * u])
    sigma = np.concatenate([b + a * u, b * t])
    with np.errstate(over="ignore", divide="ignore"):
        # The quotient first: x * sin(sigma) may underflow where sin(psi) does.
        ratio = x * (np.sin(np.minimum(sigma, gap + psi)) / np.sin(np.minimum(psi, gap + sigma)))
        f = np.exp(-(ratio ** (1.0 / beta)))
    return float(a * (w @ f[: t.size]) + b * (w @ f[t.size :])) / angle
