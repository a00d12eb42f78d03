import dataclasses
import math

import numpy as np
import pytest

import fracheat.problems
from fracheat.harness import max_lattice_error
from fracheat.meshes import SpatialGrid, uniform_time_mesh
from fracheat.problems import (
    ProblemSpec,
    available_problems,
    get_problem,
    manufactured_sin,
    sine_decay,
    zero_problem,
)
from fracheat.solver import SchemeKind, solve
from fracheat.special import mittag_leffler
from oracles import fractional_integral_monomial, fractional_integral_quad, mittag_leffler_quad

ALPHAS = (0.25, 0.5, 0.75)


class TestManufacturedSin:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_initial_data_is_zero(self, alpha):
        p = manufactured_sin(alpha)
        x = np.linspace(0.0, 1.0, 11)
        np.testing.assert_array_equal(p.phi(x), np.zeros(11))
        np.testing.assert_array_equal(p.exact_u(x, 0.0), np.zeros(11))

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_forcing_integral_against_beta_identity(self, alpha):
        # f = sin(pi x)(pi^2 t^2 + 2 t^(2-a)/G(3-a)); integrate termwise.
        p = manufactured_sin(alpha)
        x = np.linspace(0.0, 1.0, 9)
        for t in (0.2, 0.5, 1.0):
            expect = np.sin(np.pi * x) * (
                math.pi**2 * fractional_integral_monomial(alpha, 2.0, t)
                + 2.0 / math.gamma(3.0 - alpha)
                * fractional_integral_monomial(alpha, 2.0 - alpha, t)
            )
            np.testing.assert_allclose(p.exact_f_conv(x, t), expect, rtol=1e-12, atol=1e-14)

    def test_forcing_integral_against_adaptive_quadrature(self):
        p = manufactured_sin(0.5)
        for x, t in ((0.37, 0.8), (0.5, 1.0)):
            ref = fractional_integral_quad(lambda s: float(p.f(np.array([x]), s)[0]), 0.5, t)
            got = float(p.exact_f_conv(np.array([x]), t)[0])
            assert got == pytest.approx(ref, rel=1e-9)

    def test_midpoint_value(self):
        # at x = 1/2, t = 1: 2 pi^2 / Gamma(3 + 1/2) + 1
        p = manufactured_sin(0.5)
        got = float(p.exact_f_conv(np.array([0.5]), 1.0)[0])
        assert got == pytest.approx(2.0 * math.pi**2 / math.gamma(3.5) + 1.0, rel=1e-14)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_volterra_identity_of_exact_solution(self, alpha):
        # u = phi + I^alpha(u_xx + f) must hold for the exact solution;
        # the right side is evaluated by desingularized adaptive
        # quadrature, fully independent of the closed forms.
        p = manufactured_sin(alpha)
        for x in (0.3, 0.62):
            for t in (0.4, 1.0):
                def integrand(s: float) -> float:
                    u_xx = -math.pi**2 * math.sin(math.pi * x) * s**2
                    return u_xx + float(p.f(np.array([x]), s)[0])

                rhs = fractional_integral_quad(integrand, alpha, t)
                lhs = float(p.exact_u(np.array([x]), t)[0])
                assert abs(lhs - rhs) <= 1e-8


class TestZeroProblem:
    def test_everything_vanishes(self):
        p = zero_problem(0.5)
        x = np.linspace(0.0, 1.0, 7)
        for fn in (p.phi,):
            np.testing.assert_array_equal(fn(x), np.zeros(7))
        for fn in (p.f, p.exact_u, p.exact_f_conv):
            np.testing.assert_array_equal(fn(x, 0.7), np.zeros(7))


class TestSineDecay:
    def test_starts_at_first_mode(self):
        p = sine_decay(0.5)
        x = np.linspace(0.0, 1.0, 9)
        np.testing.assert_allclose(p.exact_u(x, 0.0), np.sin(np.pi * x), rtol=1e-14)

    def test_amplitude_decays(self):
        p = sine_decay(0.5)
        vals = [float(p.exact_u(np.array([0.5]), t)[0]) for t in (0.0, 0.05, 0.2)]
        assert vals[0] > vals[1] > vals[2] > 0.0

    def test_forcing_is_zero(self):
        p = sine_decay(0.25)
        x = np.linspace(0.0, 1.0, 5)
        np.testing.assert_array_equal(p.f(x, 0.5), np.zeros(5))
        np.testing.assert_array_equal(p.exact_f_conv(x, 0.5), np.zeros(5))

    def test_frozen_half_order_value(self):
        # alpha = 1/2, t = 0.01: factor is E_{1/2}(-pi^2 / 10)
        p = sine_decay(0.5)
        got = float(p.exact_u(np.array([0.5]), 0.01)[0])
        assert got == pytest.approx(0.43117256514905254, rel=1e-12)

    def test_late_value_where_the_series_cancelled(self):
        # E_0.9(-pi**2 10**0.9): in doubles its Taylor series summed to 1e41
        p = sine_decay(0.9)
        got = float(p.exact_u(np.array([0.5]), 10.0)[0])
        want = mittag_leffler_quad(0.9, np.pi**2 * 10.0**0.9)
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
    def test_rejects_bad_time(self, t):
        p = sine_decay(0.5)
        with pytest.raises(ValueError, match="nonnegative and finite"):
            p.exact_u(np.array([0.5]), t)


class TestRegistry:
    def test_labels(self):
        assert set(available_problems()) == {"manufactured-sin", "zero", "sine-decay"}

    def test_round_trip(self):
        assert get_problem("zero", 0.3).alpha == 0.3

    @pytest.mark.parametrize("label", ["manufactured-sin", "zero", "sine-decay"])
    def test_every_label_builds_from_alpha_alone(self, label):
        # The final time belongs to the mesh, so alpha fixes the problem.
        p = get_problem(label, 0.4)
        x = np.linspace(0.0, 1.0, 5)
        assert p.alpha == 0.4
        np.testing.assert_array_equal(p.exact_u(x, 0.0), p.phi(x))

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="unknown problem"):
            get_problem("does-not-exist", 0.5)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("label", available_problems())
def test_closed_form_forcing_integral_takes_a_column_of_t(label, alpha):
    # The solver samples exact_f_conv once per block of levels, with x of
    # shape (M+1,) and the block's times as a column of shape (k, 1).
    p = get_problem(label, alpha)
    x, t = np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 7)
    block = p.exact_f_conv(x, t[:, None])
    assert np.shape(block) == (7, 9)
    rows = np.array([p.exact_f_conv(x, tk) for tk in t.tolist()])
    np.testing.assert_array_max_ulp(block, rows, maxulp=4)


def _uncached(label, alpha):
    """The built-in callables as written before the profile cache: each
    call evaluates sin(pi x) afresh.  The reference for bit identity."""

    def sin_pi(x):
        return np.sin(np.pi * np.asarray(x, dtype=float))

    if label == "sine-decay":
        return {
            "phi": sin_pi,
            "exact_u": lambda x, t: mittag_leffler(alpha, -(np.pi**2) * t**alpha) * sin_pi(x),
        }
    g3m, g3p = math.gamma(3.0 - alpha), math.gamma(3.0 + alpha)
    return {
        "f": lambda x, t: sin_pi(x) * (np.pi**2 * t**2 + 2.0 * t ** (2.0 - alpha) / g3m),
        "exact_u": lambda x, t: sin_pi(x) * t**2,
        "exact_f_conv": lambda x, t: sin_pi(x) * (
            2.0 * np.pi**2 * t ** (2.0 + alpha) / g3p + t**2
        ),
    }


def _calls(label, alpha):
    """(name, callable, uncached reference, times) for each cached callable."""
    p, ref = get_problem(label, alpha), _uncached(label, alpha)
    times = [0.0, 1e-4, 1e-3] if label == "sine-decay" else [0.0, 0.3, 1.0]
    for name, want in ref.items():
        got = getattr(p, name)
        if name == "phi":
            yield name, lambda x, t, fn=got: fn(x), lambda x, t, fn=want: fn(x), [None]
        else:
            column = [np.array(times)[:, None]] if name == "exact_f_conv" else []
            yield name, got, want, times + column


def _same_bits(a, b):
    return np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


_GRIDS = {
    **{f"M={M}": np.linspace(0.0, 1.0, M + 1) for M in (2, 3, 7, 100, 2000)},
    "strided": np.linspace(0.0, 1.0, 2 * 50 + 1)[::2],
    "list": np.linspace(0.0, 1.0, 8).tolist(),
}
_CACHED_LABELS = ("manufactured-sin", "sine-decay")


class TestSpatialProfileCache:
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("grid", _GRIDS)
    @pytest.mark.parametrize("label", _CACHED_LABELS)
    def test_bit_identical_to_the_uncached_expressions(self, label, grid, alpha):
        # Sign of zeros included: the bytes are compared, not the values.
        x = _GRIDS[grid]
        for name, got, want, times in _calls(label, alpha):
            for t in times:
                assert _same_bits(got(x, t), want(x, t)), (name, t)

    @pytest.mark.parametrize("label", _CACHED_LABELS)
    def test_a_grid_changed_in_place_gets_its_new_profile(self, label):
        for name, got, want, times in _calls(label, 0.5):
            x = np.linspace(0.0, 1.0, 9)
            got(x, times[-1])
            x[3] = 0.123
            assert _same_bits(got(x, times[-1]), want(x, times[-1])), name

    @pytest.mark.parametrize("label", _CACHED_LABELS)
    def test_each_result_is_fresh_and_writable(self, label):
        x = np.linspace(0.0, 1.0, 9)
        for name, got, want, times in _calls(label, 0.5):
            first, second = got(x, times[-1]), got(x, times[-1])
            assert first.flags.writeable and not np.shares_memory(first, second), name
            first[...] = 7.0
            assert _same_bits(got(x, times[-1]), want(x, times[-1])), name

    @pytest.mark.parametrize(
        "label, scheme, closed_form",
        [
            ("manufactured-sin", SchemeKind.TRANSFORMED, True),
            ("manufactured-sin", SchemeKind.TRANSFORMED, False),
            ("manufactured-sin", SchemeKind.L1, True),
            ("sine-decay", SchemeKind.TRANSFORMED, True),
        ],
    )
    def test_a_solve_and_its_error_evaluate_sin_once(
        self, monkeypatch, label, scheme, closed_form
    ):
        # Counted through np.sin itself, on arguments equal to pi x.
        grid, mesh = SpatialGrid(16), uniform_time_mesh(0.01, 40)
        p = get_problem(label, 0.5)
        if not closed_form:
            p = dataclasses.replace(p, exact_f_conv=None)
        monkeypatch.setattr(fracheat.problems, "_PROFILE", None)
        sin, profiles = np.sin, []

        def counted(v, *args, **kwargs):
            if np.shape(v) == grid.x.shape and np.array_equal(v, np.pi * grid.x):
                profiles.append(v)
            return sin(v, *args, **kwargs)

        monkeypatch.setattr(np, "sin", counted)
        max_lattice_error(solve(p, grid, mesh, scheme), p.exact_u)
        assert len(profiles) == 1

    @staticmethod
    def _count_sines(monkeypatch):
        """An empty profile cache, and a list that gets one entry per np.sin call."""
        monkeypatch.setattr(fracheat.problems, "_PROFILE", None)
        sin, calls = np.sin, []

        def counted(v, *args, **kwargs):
            calls.append(np.shape(v))
            return sin(v, *args, **kwargs)

        monkeypatch.setattr(np, "sin", counted)
        return calls

    @pytest.mark.parametrize("x", [0.3, np.array(0.3), np.float64(-0.0)])
    def test_a_0d_grid_through_f_and_exact_u(self, monkeypatch, x):
        p, ref = manufactured_sin(0.5), _uncached("manufactured-sin", 0.5)
        want = {(name, t): ref[name](x, t) for name in ("f", "exact_u") for t in (0.3, 1.0)}
        calls = self._count_sines(monkeypatch)
        for (name, t), value in want.items():
            assert _same_bits(getattr(p, name)(x, t), value), (name, t)
        assert calls == [(1,)]

    def test_equal_bytes_in_different_shapes_are_separate_grids(self, monkeypatch):
        p = manufactured_sin(0.5)
        flat = np.linspace(0.0, 1.0, 8)
        square = flat.reshape(2, 4)
        want = np.sin(np.pi * square)
        calls = self._count_sines(monkeypatch)
        assert flat.tobytes() == square.tobytes()
        assert p.exact_u(flat, 1.0).shape == (8,)
        assert _same_bits(p.exact_u(square, 1.0), want)
        assert p.exact_u(flat, 1.0).shape == (8,)
        assert len(calls) == 3

    def test_a_grid_one_ulp_away_gets_its_own_profile(self, monkeypatch):
        p = manufactured_sin(0.5)
        x = np.linspace(0.0, 1.0, 9)
        near = x.copy()
        near[-1] = np.nextafter(near[-1], 0.0)
        want = np.sin(np.pi * near)
        calls = self._count_sines(monkeypatch)
        first, second = p.exact_u(x, 1.0), p.exact_u(near, 1.0)
        assert len(calls) == 2
        assert first[-1] != second[-1]
        assert _same_bits(second, want)

    def test_the_cache_keeps_the_grid_used_last(self, monkeypatch):
        p = manufactured_sin(0.5)
        a, b = np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 11)
        want = np.sin(np.pi * a)
        calls = self._count_sines(monkeypatch)
        counts = []
        for x in (a, a, b, a):
            p.exact_u(x, 1.0)
            counts.append(len(calls))
        # a is found again at once, but not after b has replaced it.
        assert counts == [1, 1, 2, 3]
        assert _same_bits(p.exact_u(a, 1.0), want) and len(calls) == 3


class TestProblemSpecValidation:
    @staticmethod
    def _zeros(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def test_rejects_alpha_outside_unit_interval(self):
        for alpha in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                ProblemSpec(
                    alpha=alpha,
                    phi=self._zeros, f=lambda x, t: self._zeros(x),
                )

    def test_rejects_nonvanishing_initial_data(self):
        with pytest.raises(ValueError, match="vanish"):
            ProblemSpec(
                alpha=0.5,
                phi=lambda x: np.cos(np.pi * np.asarray(x, dtype=float)),
                f=lambda x, t: self._zeros(x),
            )

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_boundary_values_and_gaps(self, value):
        # A comparison with NaN is False, so each check must hold, not fail.
        with pytest.raises(ValueError, match="vanish"):
            ProblemSpec(
                alpha=0.5,
                phi=lambda x: np.full(np.shape(x), value), f=lambda x, t: self._zeros(x),
            )
        with pytest.raises(ValueError, match="t=0"):
            ProblemSpec(
                alpha=0.5,
                phi=self._zeros, f=lambda x, t: self._zeros(x),
                exact_u=lambda x, t: np.where(np.asarray(x) == 0.5, value, 0.0),
            )

    def test_rejects_inconsistent_exact_solution(self):
        with pytest.raises(ValueError, match="t=0"):
            ProblemSpec(
                alpha=0.5,
                phi=self._zeros, f=lambda x, t: self._zeros(x),
                exact_u=lambda x, t: np.sin(np.pi * np.asarray(x, dtype=float)),
            )

    @pytest.mark.parametrize(
        "conv",
        [
            # Written for a scalar t only: a column makes the comparison ambiguous.
            lambda x, t: np.nan if t >= 0.5 else 0.0,
            # One row whatever the number of times.
            lambda x, t: np.zeros((3, np.size(x))),
            # Nodes dropped.
            lambda x, t: np.zeros(np.shape(t)[:1] + (3,)),
        ],
        ids=["scalar-only", "wrong-row-count", "wrong-node-count"],
    )
    def test_rejects_forcing_integral_without_the_column_contract(self, conv):
        with pytest.raises(ValueError, match=r"t of shape \(k, 1\).*\(k, M\+1\)"):
            ProblemSpec(
                alpha=0.5,
                phi=self._zeros, f=lambda x, t: self._zeros(x), exact_f_conv=conv,
            )
