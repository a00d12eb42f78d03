"""The Mittag-Leffler function E_beta(z) by its Taylor series.

Terms are formed in log space; the sum stops at the relative tolerance
``_TOL`` or after ``_MAX_TERMS`` terms.  Gamma has no wrapper here: every
argument the package passes is positive, so callers use ``math.gamma``.
"""

from __future__ import annotations

import math

__all__ = ["mittag_leffler", "SeriesConvergenceError"]

# exp(x) overflows float64 a little above 709; stay clear of the edge.
_LOG_OVERFLOW = 700.0

# Largest rounding that cancellation may leave in a returned sum, relative
# to |sum|; that rounding is about (largest |term|) * 2**-52.
_CANCELLATION_TOL = 1e-7

# Relative truncation tolerance for the partial sums, and the term budget.
_TOL = 1e-14
_MAX_TERMS = 500


class SeriesConvergenceError(RuntimeError):
    """Raised when a series evaluation stops before meeting its tolerance."""


def mittag_leffler(beta: float, z: float) -> float:
    """One-parameter Mittag-Leffler function E_beta(z) by Taylor series.

    E_beta(z) = sum_{n>=0} z^n / Gamma(1 + n*beta).  Terms are formed as
    exp(n*log|z| - lgamma(1 + n*beta)) so that large intermediate factorials
    never overflow.  Summation stops once the term just added is no larger
    than ``_TOL`` times the running sum in magnitude.

    For z < 0 the series alternates and cancellation grows quickly with
    |z| (and faster for small beta): it leaves a rounding error of about
    the largest |term| times 2**-52.  Where that exceeds
    ``_CANCELLATION_TOL`` times |sum|, the value is refused.

    Parameters
    ----------
    beta : float
        Series order in (0, 1].  beta = 1 recovers exp(z).
    z : float
        Finite argument.  Where |z| is too large for the series, the
        overflow or cancellation guard raises.

    Raises
    ------
    ValueError
        If beta lies outside (0, 1] or z is not finite.
    SeriesConvergenceError
        If ``_MAX_TERMS`` terms do not reach ``_TOL``, if a term overflows,
        or if the cancellation rounding exceeds ``_CANCELLATION_TOL`` of the
        sum.
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got z={z}")
    if z == 0.0:
        return 1.0

    log_abs_z = math.log(abs(z))
    negative = z < 0.0
    total = 1.0  # n = 0 term
    largest = 1.0
    for n in range(1, _MAX_TERMS + 1):
        log_mag = n * log_abs_z - math.lgamma(1.0 + n * beta)
        if log_mag > _LOG_OVERFLOW:
            raise SeriesConvergenceError(
                f"series term overflows at n={n} for z={z}, beta={beta}"
            )
        mag = math.exp(log_mag)
        term = -mag if (negative and n % 2 == 1) else mag
        total += term
        largest = max(largest, mag)
        if mag <= _TOL * abs(total):
            if largest * 2.0**-52 > _CANCELLATION_TOL * abs(total):
                raise SeriesConvergenceError(
                    f"cancellation: largest term {largest:.3g} times 2**-52 exceeds "
                    f"{_CANCELLATION_TOL:g} of the sum {total:.3g} (z={z}, beta={beta})"
                )
            return total
    raise SeriesConvergenceError(
        f"no convergence after {_MAX_TERMS} terms "
        f"(z={z}, beta={beta}, tol={_TOL})"
    )
