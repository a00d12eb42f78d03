import dataclasses

import mpmath
import numpy as np
import pytest

from fracheat.meshes import SpatialGrid, graded_time_mesh, uniform_time_mesh
from fracheat.problems import manufactured_sin, sine_decay
from fracheat.quadrature import weights_row
from fracheat.solver import SchemeKind, solve
from oracle_sweep import PROBLEMS, cases, check
from oracles import kernel_step_integrals, per_mode_march
from test_solver import _dense_march


def _mp_step_integrals(kappa, t, n):
    """c_1..c_n of level n as the plain difference of powers, to 40 digits.

    The powers are taken to 80 digits: the difference cancels as many as
    the step is decades shorter than t_n - t_(k-1), here up to 31.
    """
    with mpmath.workdps(80):
        k, tn = mpmath.mpf(kappa), mpmath.mpf(t[n])
        g = mpmath.gamma(1 + k)
        return [
            float(((tn - mpmath.mpf(a)) ** k - (tn - mpmath.mpf(b)) ** k) / g)
            for a, b in zip(t[:n], t[1 : n + 1])
        ]


class TestOracleWeights:
    @pytest.mark.parametrize("kappa", [1e-9, 1e-4, 0.1, 0.5, 0.9, 1.0 - 1e-9])
    @pytest.mark.parametrize("r", [1.0, 2.0, 19.0])
    def test_step_integrals_match_forty_digits(self, kappa, r):
        # At r = 19 the first step is 40**-19 = 3.6e-31 of T, where the
        # difference of powers in doubles keeps no digit of the first
        # weights; both the oracle and weights_row keep all of them.
        mesh = graded_time_mesh(1.0, 40, r)
        for n in (1, 2, 7, 40):
            expect = _mp_step_integrals(kappa, mesh.t, n)
            np.testing.assert_allclose(kernel_step_integrals(kappa, mesh.t, n), expect, rtol=1e-14)
            np.testing.assert_allclose(weights_row(kappa, mesh, n), expect, rtol=1e-14)


@pytest.mark.parametrize("scheme", list(SchemeKind))
@pytest.mark.parametrize("closed_form", [True, False])
def test_oracle_is_the_dense_march(scheme, closed_form):
    # The per-mode march and the level-by-level dense one in nodal values,
    # on a mesh mild enough for the dense march's difference of powers.
    p = manufactured_sin(0.5)
    if not closed_form:
        p = dataclasses.replace(p, exact_f_conv=None)
    for mesh in (uniform_time_mesh(1.0, 20), graded_time_mesh(1.0, 20, 2.0)):
        ref = per_mode_march(p, 8, mesh.t, scheme is SchemeKind.L1)
        np.testing.assert_allclose(ref, _dense_march(p, 8, mesh, scheme), rtol=1e-12, atol=1e-14)
    p = sine_decay(0.3)
    mesh = graded_time_mesh(0.1, 20, 1.5)
    ref = per_mode_march(p, 8, mesh.t, scheme is SchemeKind.L1)
    np.testing.assert_allclose(ref, _dense_march(p, 8, mesh, scheme), rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("scheme", list(SchemeKind))
@pytest.mark.parametrize("closed_form", [True, False])
def test_stynes_grading_at_alpha_0_1_solves(scheme, closed_form):
    # r = (2 - alpha) / alpha = 19: the first step is 3.6e-31, whose
    # weights the difference of powers rounded to zero ("kernel weight a_1
    # of level 7 is not positive").
    p = manufactured_sin(0.1)
    if not closed_form:
        p = dataclasses.replace(p, exact_f_conv=None)
    mesh = graded_time_mesh(1.0, 40, (2.0 - 0.1) / 0.1)
    got = solve(p, SpatialGrid(16), mesh, scheme).values
    ref = per_mode_march(p, 16, mesh.t, scheme is SchemeKind.L1)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


# A seeded sample of the draws of ``oracle_sweep.py``, whose own runs take
# seed 0 by default.
_SAMPLE = cases(1, 60)


@pytest.mark.parametrize("case", [pytest.param(c, id=f"draw-{i}") for i, c in enumerate(_SAMPLE)])
def test_sampled_solve_agrees_with_the_oracle_or_names_a_cause(case):
    assert check(case)[0] in ("agrees", "refused")


def test_the_sample_covers_the_paths():
    # Both schemes, every problem, solves with and without states (from
    # N = _WINDOW + _BLOCK + 1), both transforms, uniform and strongly
    # graded meshes.
    assert {c.scheme for c in _SAMPLE} == set(SchemeKind)
    assert {c.problem for c in _SAMPLE} == set(PROBLEMS)
    assert any(c.N > 160 for c in _SAMPLE) and any(c.N <= 32 for c in _SAMPLE)
    assert any(c.M <= 255 for c in _SAMPLE) and any(c.M == 256 for c in _SAMPLE)
    assert any(c.r > 8.0 for c in _SAMPLE) and any(c.r == 1.0 for c in _SAMPLE)
