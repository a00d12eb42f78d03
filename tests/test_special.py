import math

import numpy as np
import pytest
from mpmath import mp

from fracheat import special
from fracheat.special import SeriesConvergenceError, mittag_leffler

mp.dps = 50


def _ml_reference(beta: float, z: float) -> float:
    """High-precision series sum, done in mpmath arithmetic."""
    return float(mp.nsum(lambda n: mp.mpf(z) ** n / mp.gamma(1 + n * beta), [0, mp.inf]))


class TestMittagLeffler:
    def test_zero_argument_is_exactly_one(self):
        for beta in (0.25, 0.5, 0.75, 1.0):
            assert mittag_leffler(beta, 0.0) == 1.0

    def test_frozen_value_half_order(self):
        # E_{1/2}(-1) = e * erfc(1), an independent closed form.
        got = mittag_leffler(0.5, -1.0)
        assert got == pytest.approx(0.4275835761558070, rel=1e-13)
        assert got == pytest.approx(float(mp.e * mp.erfc(1)), rel=1e-13)

    @pytest.mark.parametrize(
        "beta,z",
        [(0.5, -1.0), (0.5, -2.0), (0.75, -1.5), (0.25, -0.8), (0.9, 3.0)]
        # past the old |z| <= 50 cap, where nothing overflows or cancels
        + [(beta, 50.12) for beta in (0.75, 0.9, 0.95, 1.0)],
    )
    def test_against_mpmath(self, beta, z):
        got = mittag_leffler(beta, z)
        assert got == pytest.approx(_ml_reference(beta, z), rel=1e-12)

    def test_order_one_recovers_exp(self):
        # Cancellation for negative z floors the accuracy near 1e-12 (the
        # worst case here is 4.6e-12), well above the series tolerance.
        worst = 0.0
        for z in np.linspace(-5.0, 5.0, 101):
            got = mittag_leffler(1.0, float(z))
            worst = max(worst, abs(got - math.exp(z)) / math.exp(z))
        assert worst <= 1e-11

    def test_order_one_tight_without_cancellation(self):
        for z in np.linspace(0.0, 5.0, 21):
            got = mittag_leffler(1.0, float(z))
            assert got == pytest.approx(math.exp(z), rel=1e-13)

    def test_monotone_decay_on_negative_axis(self):
        vals = [
            mittag_leffler(0.5, -z) for z in (0.0, 0.5, 1.0, 2.0, 4.0)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v <= 1.0 for v in vals)

    def test_nonconvergence_raises(self, monkeypatch):
        # With the full budget z = 49 trips the overflow guard instead.
        monkeypatch.setattr(special, "_MAX_TERMS", 20)
        with pytest.raises(SeriesConvergenceError, match="no convergence after 20 terms"):
            mittag_leffler(0.5, 49.0)

    @pytest.mark.parametrize(
        "beta,z",
        [
            (0.5, -math.pi**2),  # sine-decay at t = 1: true value 0.0569
            (0.5, -math.pi**2 * 0.5**0.5),  # t = 0.5: 0.0800
            (0.9, -26.5),  # 0.00424
            (0.75, -math.pi**2),  # 0.0311
        ],
    )
    def test_cancellation_guard_raises(self, beta, z):
        # The largest term times 2**-52 is 3e26, 2e5, 124 and 9.7e-7 of the
        # true value, so none of these sums is good to 1e-7 relative.
        with mp.workdps(80):
            # 1000 terms leave a tail below 1e-70 for each case
            terms = [mp.mpf(z) ** n / mp.gamma(1 + mp.mpf(n) * beta) for n in range(1000)]
            largest, true = max(abs(v) for v in terms), float(mp.fsum(terms))
        assert float(largest) * 2.0**-52 > 1e-7 * true > 0.0
        with pytest.raises(SeriesConvergenceError, match="cancellation"):
            mittag_leffler(beta, z)

    @pytest.mark.parametrize("beta,z", [(0.1, -50.0), (0.5, 51.0), (0.5, -51.0)])
    def test_overflow_guard_raises(self, beta, z):
        # Small beta barely damps the terms, so these z blow past the
        # representable range before the series can turn over.
        with pytest.raises(SeriesConvergenceError, match="overflows"):
            mittag_leffler(beta, z)

    @pytest.mark.parametrize("beta", [0.0, -0.5, 1.5])
    def test_rejects_bad_parameters(self, beta):
        with pytest.raises(ValueError, match="beta must lie in"):
            mittag_leffler(beta, 1.0)

    def test_order_one_beyond_fifty_is_exp(self):
        assert mittag_leffler(1.0, 51.0) == pytest.approx(math.exp(51.0), rel=1e-13)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_argument(self, z):
        with pytest.raises(ValueError, match="z must be finite"):
            mittag_leffler(0.5, z)
