import math

import numpy as np
import pytest
from mpmath import mp

from fracheat.special import mittag_leffler
from oracles import mittag_leffler_quad

mp.dps = 50

BETAS = (0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.9999, 1.0 - 1e-6)


def _near(want: float):
    """pytest.approx to 1e-14 relative, without the absolute floor of 1e-12
    that would pass any value below it."""
    return pytest.approx(want, rel=1e-14, abs=0.0)


def _ml_reference(beta: float, z: float) -> float:
    """High-precision series sum, done in mpmath arithmetic."""
    return float(mp.nsum(lambda n: mp.mpf(z) ** n / mp.gamma(1 + n * beta), [0, mp.inf]))


def _series(beta: float, x: float) -> float:
    """E_beta(-x) for x < 1 by its Taylor series, summed at 40 digits until
    x**n is below 1e-45."""
    with mp.workdps(40):
        z = -mp.mpf(x)
        n = int(45 * math.log(10.0) / -math.log(x)) + 2
        return float(mp.fsum(z**k * mp.rgamma(1 + k * mp.mpf(beta)) for k in range(n)))


def _asymptotic(beta: float, x: float) -> float:
    """E_beta(-x) = sum_{k>=1} (-1)**(k+1) x**-k / Gamma(1 - beta k) for
    large x; four terms leave a relative remainder of about 5! x**-4 or less."""
    with mp.workdps(40):
        x = mp.mpf(x)
        return float(mp.fsum(
            (-1) ** (k + 1) * x**-k * mp.rgamma(1 - k * mp.mpf(beta)) for k in range(1, 5)
        ))


class TestMittagLeffler:
    def test_zero_argument_is_exactly_one(self):
        for beta in (2.0**-1022, 0.25, 0.5, 0.75, 1.0):
            assert mittag_leffler(beta, 0.0) == 1.0

    def test_frozen_value_half_order(self):
        # E_{1/2}(-1) = e * erfc(1), an independent closed form.
        got = mittag_leffler(0.5, -1.0)
        assert got == pytest.approx(0.4275835761558070, rel=1e-13)
        assert got == pytest.approx(float(mp.e * mp.erfc(1)), rel=1e-13)

    @pytest.mark.parametrize("beta,z", [(0.5, -1.0), (0.5, -2.0), (0.75, -1.5), (0.25, -0.8)])
    def test_against_mpmath(self, beta, z):
        got = mittag_leffler(beta, z)
        assert got == pytest.approx(_ml_reference(beta, z), rel=1e-12)

    def test_order_one_recovers_exp(self):
        for z in np.linspace(-5.0, 0.0, 51):
            got = mittag_leffler(1.0, float(z))
            assert got == pytest.approx(math.exp(z), rel=1e-13, abs=0.0)

    def test_monotone_decay_on_negative_axis(self):
        vals = [
            mittag_leffler(0.5, -z) for z in (0.0, 0.5, 1.0, 2.0, 4.0)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v <= 1.0 for v in vals)

    @pytest.mark.parametrize(
        "beta,z",
        [
            (0.5, -math.pi**2),  # sine-decay at t = 1: true value 0.0569
            (0.5, -math.pi**2 * 0.5**0.5),  # t = 0.5: 0.0800
            (0.9, -26.5),  # 0.00424
            (0.75, -math.pi**2),  # 0.0311
        ],
    )
    def test_where_the_series_cancelled(self, beta, z):
        # The largest Taylor term times 2**-52 is 3e26, 2e5, 124 and 9.7e-7
        # of the true value, which double sums could not reach.
        with mp.workdps(80):
            # 1000 terms leave a tail below 1e-70 for each case
            terms = [mp.mpf(z) ** n / mp.gamma(1 + mp.mpf(n) * beta) for n in range(1000)]
            largest, true = max(abs(v) for v in terms), float(mp.fsum(terms))
        assert float(largest) * 2.0**-52 > 1e-7 * true > 0.0
        assert mittag_leffler(beta, z) == _near(true)

    @pytest.mark.parametrize("beta,z", [(0.1, -50.0), (0.5, -51.0)])
    def test_where_the_series_overflowed(self, beta, z):
        # Small beta barely damps the Taylor terms, which pass 1e304 here
        # before the series turns over.
        assert mittag_leffler(beta, z) == _near(mittag_leffler_quad(beta, -z))

    @pytest.mark.parametrize(
        "beta,x",
        # sine-decay at t = 0.2 and 1, the CLI's defaults, which the series
        # refused or got wrong by up to 9e-7
        [(beta, math.pi**2 * t**beta) for beta in (0.25, 0.5, 0.75, 0.9) for t in (0.2, 1.0)],
    )
    def test_sine_decay_arguments(self, beta, x):
        assert mittag_leffler(beta, -x) == _near(mittag_leffler_quad(beta, x))

    @pytest.mark.parametrize("x", [1.0, 2.0, math.pi**2, 51.0, 1e3, 1e6])
    @pytest.mark.parametrize("beta", BETAS)
    def test_against_the_integral_in_mpmath(self, beta, x):
        assert mittag_leffler(beta, -x) == _near(mittag_leffler_quad(beta, x))

    @pytest.mark.parametrize("x", [1e-300, 1e-10, 1e-3, 0.5, 0.9])
    @pytest.mark.parametrize("beta", (1e-9, 1e-6, 1e-4, 0.01) + BETAS)
    def test_against_the_series_in_mpmath(self, beta, x):
        assert mittag_leffler(beta, -x) == _near(_series(beta, x))

    @pytest.mark.parametrize("x", [1e12, 1e100, 1e200])
    @pytest.mark.parametrize("beta", (1e-6, 0.01) + BETAS + (1 - 1e-8, 1 - 1e-10, 1 - 1e-12))
    def test_against_the_asymptotic_series(self, beta, x):
        # Near beta = 1 the integrand turns within about (1 - beta) / x of
        # the split, far inside a rule of fixed depth.
        assert mittag_leffler(beta, -x) == _near(_asymptotic(beta, x))

    @pytest.mark.parametrize("beta", [2.0**-1022, 1e-300])
    def test_vanishing_order_gives_one_over_one_plus_x(self, beta):
        # E_0(-x) = 1 / (1 + x); beta pi is still a normal float here
        for x in (1e-3, 1.0, 1e3):
            assert mittag_leffler(beta, -x) == pytest.approx(1.0 / (1.0 + x), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("beta", [1e-12, 0.1, 0.5, 0.999])
    def test_subnormal_argument_is_one(self, beta):
        # x sin(sigma) underflows to 0 where sin(psi) does, which must not
        # make a 0/0
        assert mittag_leffler(beta, -5e-324) == 1.0

    def test_half_order_closed_form(self):
        # E_{1/2}(-x) = exp(x**2) erfc(x), from x = 1e-300 to 1e12
        for x in np.logspace(-300.0, 12.0, 157).tolist() + [math.pi**2, 51.0]:
            with mp.workdps(40):
                want = float(mp.exp(mp.mpf(x) ** 2) * mp.erfc(x))
            assert mittag_leffler(0.5, -x) == _near(want), x

    @pytest.mark.parametrize(
        "beta,z",
        [(0.9, 3.0), (0.5, 49.0), (0.5, 51.0), (1.0, 51.0), (1.0, 5.0), (0.5, 5e-324)]
        + [(beta, 50.12) for beta in (0.75, 0.9, 0.95, 1.0)],
    )
    def test_refuses_positive_argument(self, beta, z):
        with pytest.raises(ValueError, match=f"z must be nonpositive, got z={z}"):
            mittag_leffler(beta, z)

    @pytest.mark.parametrize("beta", [0.0, -0.5, 1.5, math.nan, 5e-324, 2.0**-1022 / 2])
    def test_rejects_bad_parameters(self, beta):
        with pytest.raises(ValueError, match="beta must lie in"):
            mittag_leffler(beta, -1.0)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_argument(self, z):
        with pytest.raises(ValueError, match="z must be finite"):
            mittag_leffler(0.5, z)
