"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines
as they happen; without ``-s`` pytest shows them for failing criteria.
"""

import math
from math import gamma
import time

import numpy as np
import pytest

from fracheat.harness import SweepConfig, max_lattice_error, run_sweep
from fracheat.meshes import SpatialGrid, graded_time_mesh, uniform_time_mesh
from fracheat.operators import (
    TridiagonalSystem,
    apply_compact,
    apply_second_diff,
    norm_energy,
    norm_l2,
    seminorm_h1,
    solve_tridiagonal,
)
from fracheat.problems import manufactured_sin, sine_decay
from fracheat.quadrature import midpoint_convolution, weights_row
from fracheat.solver import SchemeKind, _denominators, _sine, solve
from oracles import dense_tridiagonal, fractional_integral_monomial

# Golden reference table: E1 and rate per (alpha, N), M = 100, T = 1,
# uniform mesh.  The given E1 entry for alpha=0.75, N=640 (2.4933e-6)
# contradicts its own rate column: 9.3898e-6 / 2**1.6736 = 2.9434e-6.  The
# rate-consistent value appears below; the literal given one is covered
# by the strict-xfail test further down.
MAIN_TABLE = {
    0.25: [
        (10, 3.60e-2, None),
        (20, 1.57e-2, 1.2031),
        (40, 6.7e-3, 1.2210),
        (80, 2.9e-3, 1.2328),
        (160, 1.2e-3, 1.2398),
        (320, 5.1101e-4, 1.2439),
        (640, 2.1539e-4, 1.2464),
    ],
    0.5: [
        (10, 1.21e-2, None),
        (20, 4.6e-3, 1.3898),
        (40, 1.7e-3, 1.4274),
        (80, 6.2751e-4, 1.4512),
        (160, 2.2704e-4, 1.4667),
        (320, 8.1563e-5, 1.4770),
        (640, 2.9160e-5, 1.4839),
    ],
    0.75: [
        (10, 2.2e-3, None),
        (20, 7.9594e-4, 1.4379),
        (40, 2.7512e-4, 1.5326),
        (80, 9.1387e-5, 1.5900),
        (160, 2.9565e-5, 1.6281),
        (320, 9.3898e-6, 1.6547),
        (640, 2.9434e-6, 1.6736),
    ],
}

SUPER_RATES_090 = (2.3854, 2.2807, 2.3198, 2.3773)


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


@pytest.fixture(scope="module")
def main_table_report():
    cfg = SweepConfig(
        alphas=(0.25, 0.5, 0.75),
        M=100,
        Ns=(10, 20, 40, 80, 160, 320, 640),
    )
    start = time.perf_counter()
    report = run_sweep(cfg)
    return report, time.perf_counter() - start


def _rows_for(report, alpha):
    return [r for r in report.rows if r.alpha == alpha]


def test_criterion_1_golden_table(main_table_report):
    report, elapsed = main_table_report
    worst_e1 = 0.0
    worst_rate = 0.0
    for alpha, cells in MAIN_TABLE.items():
        rows = _rows_for(report, alpha)
        errs = [r.E1 for r in rows]
        assert all(a > b for a, b in zip(errs, errs[1:])), "E1 not decreasing"
        for row, (N, e1_ref, rate_ref) in zip(rows, cells):
            assert row.N == N
            worst_e1 = max(worst_e1, abs(row.E1 - e1_ref) / e1_ref)
            if rate_ref is None:
                assert row.rate is None
            else:
                worst_rate = max(worst_rate, abs(row.rate - rate_ref))
    ok = worst_e1 <= 0.02 and worst_rate <= 0.05 and elapsed < 60.0
    _verdict(
        1,
        "golden table",
        ok,
        f"max E1 dev {worst_e1:.2%}, max rate dev {worst_rate:.4f}, {elapsed:.1f}s",
    )


@pytest.mark.xfail(
    strict=True,
    reason="golden-table value 2.4933e-6 for alpha=0.75, N=640 is "
    "inconsistent with its own rate column (9.3898e-6 / 2**1.6736 = 2.9434e-6)",
)
def test_criterion_1_literal_table_cell(main_table_report):
    report, _ = main_table_report
    row = _rows_for(report, 0.75)[-1]
    assert row.N == 640
    assert row.E1 == pytest.approx(2.4933e-6, rel=0.02)


def test_criterion_2_superconvergence():
    start = time.perf_counter()
    cfg = SweepConfig(alphas=(0.90, 0.95), M=100, Ns=(10, 20, 40, 80, 160))
    report = run_sweep(cfg)
    elapsed = time.perf_counter() - start
    rates_090 = [r.rate for r in _rows_for(report, 0.90) if r.rate is not None]
    rates_095 = [r.rate for r in _rows_for(report, 0.95) if r.rate is not None]
    ok_090 = all(
        abs(got - ref) <= 0.08 and 2.20 <= got <= 2.45
        for got, ref in zip(rates_090, SUPER_RATES_090)
    ) and len(rates_090) == 4
    ok_095 = all(2.00 <= got <= 2.20 for got in rates_095) and len(rates_095) == 4
    ok = ok_090 and ok_095 and elapsed < 10.0
    _verdict(
        2,
        "superconvergence",
        ok,
        f"0.90 rates {[f'{r:.4f}' for r in rates_090]}, "
        f"0.95 rates {[f'{r:.4f}' for r in rates_095]}, {elapsed:.1f}s",
    )


def test_criterion_3_temporal_order(main_table_report):
    report, _ = main_table_report
    finals = {}
    ok = True
    for alpha in (0.25, 0.5, 0.75):
        rate = _rows_for(report, alpha)[-1].rate
        finals[alpha] = rate
        ok = ok and rate >= 1.0 + alpha - 0.15
    _verdict(
        3,
        "temporal order",
        ok,
        ", ".join(f"alpha={a}: {r:.4f} >= {1 + a - 0.15:.2f}" for a, r in finals.items()),
    )


def test_criterion_4_spatial_order():
    start = time.perf_counter()
    alpha = 0.75
    problem = manufactured_sin(alpha)
    mesh = uniform_time_mesh(1.0, 4096)
    errs = []
    for M in (4, 8, 16):
        lattice = solve(problem, SpatialGrid(M), mesh)
        errs.append(max_lattice_error(lattice, problem.exact_u))
    elapsed = time.perf_counter() - start
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    ok = all(r >= 2.0**3.7 for r in ratios) and elapsed < 120.0
    _verdict(
        4,
        "spatial order",
        ok,
        f"ratios {[f'{r:.2f}' for r in ratios]} vs 2^3.7 = {2.0 ** 3.7:.2f}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_5_stability_inequality():
    failures = []
    for alpha in (0.25, 0.5, 0.75):
        for make_mesh in (
            lambda N: uniform_time_mesh(1.0, N),
            lambda N: graded_time_mesh(1.0, N, 2.0),
        ):
            for name, problem in (
                ("sine-decay", sine_decay(alpha)),
                ("manufactured-sin", manufactured_sin(alpha)),
            ):
                grid = SpatialGrid(64)
                mesh = make_mesh(40)
                lattice = solve(problem, grid, mesh)
                phi = lattice.values[0]
                forcing_sq = max(
                    norm_l2(apply_compact(np.asarray(problem.f(grid.x, t), float)), grid.h)
                    ** 2
                    for t in mesh.t
                )
                bound = (
                    norm_energy(phi, grid.h) ** 2
                    + mesh.T**alpha / gamma(alpha + 1.0) * forcing_sq
                )
                for n in range(1, mesh.N + 1):
                    lhs = norm_energy(lattice.values[n], grid.h) ** 2
                    if lhs > bound * (1.0 + 1e-12):
                        failures.append((alpha, name, n, lhs, bound))
    _verdict(
        5,
        "stability inequality",
        not failures,
        "all steps, both problems, uniform and graded:2, alpha in {0.25, 0.5, 0.75}"
        if not failures
        else f"{len(failures)} violations, first {failures[0]}",
    )


def test_criterion_6_quadrature_oracles():
    # telescoping
    tel_ok = True
    for alpha in (0.25, 0.5, 0.75, 0.9):
        for mesh in (uniform_time_mesh(1.0, 32), graded_time_mesh(1.0, 32, 2.0)):
            for n in (1, 13, 32):
                total = float(np.sum(weights_row(alpha, mesh, n)))
                expect = mesh.t[n] ** alpha / gamma(1.0 + alpha)
                tel_ok = tel_ok and abs(total - expect) <= 1e-12 * expect

    # remainder bound on g = t**2
    rem_ok = True
    for alpha in (0.25, 0.5, 0.75):
        for grading in (1.0, 2.0):
            for N in (8, 64):
                mesh = graded_time_mesh(1.0, N, grading)
                taus = mesh.steps
                for n in (1, N // 2, N):
                    exact = fractional_integral_monomial(alpha, 2.0, float(mesh.t[n]))
                    got = midpoint_convolution(alpha, mesh, mesh.t**2, n)
                    remainder = abs(got - exact) * gamma(alpha)
                    bound = (
                        (taus[n - 1] + taus[:n].max())
                        / (2.0 * alpha)
                        * taus[n - 1] ** alpha
                        * 2.0
                        * mesh.t[n]
                    )
                    rem_ok = rem_ok and remainder <= bound * (1.0 + 1e-12)

    # observed order against the Beta-identity oracle
    orders_detail = {}
    eoc_ok = True
    for alpha in (0.25, 0.5, 0.75):
        exact = fractional_integral_monomial(alpha, 2.0, 1.0)
        errs = []
        for N in (512, 1024, 2048, 4096):
            mesh = uniform_time_mesh(1.0, N)
            errs.append(abs(midpoint_convolution(alpha, mesh, mesh.t**2, N) - exact))
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        orders_detail[alpha] = [f"{o:.3f}" for o in orders]
        eoc_ok = eoc_ok and all(o >= 1.0 + alpha - 0.1 for o in orders)

    ok = tel_ok and rem_ok and eoc_ok
    _verdict(
        6,
        "quadrature oracles",
        ok,
        f"telescoping {tel_ok}, remainder bound {rem_ok}, orders {orders_detail}",
    )


def test_criterion_7_operator_identities():
    rng = np.random.default_rng(2024)
    M = 100
    h = 1.0 / M

    sbp_ok = True
    poincare_ok = True
    for _ in range(100):
        v = rng.standard_normal(M + 1)
        v[0] = v[-1] = 0.0
        hv = apply_compact(v)[1:-1]
        d2 = apply_second_diff(v, h)[1:-1]
        lhs = -h * float(hv @ d2)
        rhs = norm_energy(v, h) ** 2
        sbp_ok = sbp_ok and abs(lhs - rhs) <= 1e-11 * rhs
        poincare_ok = poincare_ok and norm_l2(v, h) <= seminorm_h1(v, h) / math.sqrt(
            6.0
        ) * (1.0 + 1e-13)

    tri_ok = True
    for trial in range(20):
        n = int(rng.integers(3, 60))
        lower = rng.standard_normal(n - 1)
        upper = rng.standard_normal(n - 1)
        diag = np.zeros(n)
        diag[:-1] += np.abs(upper)
        diag[1:] += np.abs(lower)
        diag += rng.uniform(0.5, 2.0, size=n)
        rhs = rng.standard_normal(n)
        system = TridiagonalSystem(lower=lower, diag=diag, upper=upper, rhs=rhs)
        got = solve_tridiagonal(system)
        ref = np.linalg.solve(dense_tridiagonal(lower, diag, upper), rhs)
        scale = float(np.max(np.abs(ref))) or 1.0
        tri_ok = tri_ok and float(np.max(np.abs(got - ref))) <= 1e-11 * scale

    # The level solve that ``solve`` runs: the sine transform of the
    # right-hand side over the eigenvalues of p H - r D2, transformed back,
    # against a dense solve of those interior rows, on both transform paths
    # (one matrix product for M <= 255, an FFT above).
    level_ok = True
    for trial in range(20):
        M = int(rng.integers(3, 256) if trial % 2 else rng.integers(256, 600))
        h = 1.0 / M
        p = 10.0 ** rng.uniform(-3.0, 3.0)
        r = 0.0 if trial % 5 == 0 else 10.0 ** rng.uniform(-6.0, 3.0)
        s = np.sin(0.5 * np.pi * h * np.arange(M + 1)) ** 2
        rhs = rng.standard_normal(M + 1)
        got = _sine(_sine(rhs) / _denominators(p, r, h, s)) * (2.0 / M)
        units = np.eye(M + 1)[1:-1]
        dense = (p * apply_compact(units) - r * apply_second_diff(units, h))[:, 1:-1].T
        ref = np.linalg.solve(dense, rhs[1:-1])
        scale = float(np.max(np.abs(ref)))
        level_ok = level_ok and float(np.max(np.abs(got[1:-1] - ref))) <= 1e-11 * scale

    ok = sbp_ok and poincare_ok and tri_ok and level_ok
    _verdict(
        7,
        "operator identities",
        ok,
        f"summation-by-parts {sbp_ok}, Poincare {poincare_ok}, tridiagonal {tri_ok}, "
        f"level solve {level_ok}",
    )


def test_criterion_8_baseline_comparison():
    alpha = 0.75
    problem = manufactured_sin(alpha)
    grid = SpatialGrid(100)
    pairs = {}
    ok = True
    for N in (40, 160, 640):
        mesh = uniform_time_mesh(1.0, N)
        e_tr = max_lattice_error(solve(problem, grid, mesh, SchemeKind.TRANSFORMED),
                                 problem.exact_u)
        e_l1 = max_lattice_error(solve(problem, grid, mesh, SchemeKind.L1),
                                 problem.exact_u)
        pairs[N] = (e_tr, e_l1)
        ok = ok and e_tr < e_l1
    _verdict(
        8,
        "baseline comparison",
        ok,
        ", ".join(f"N={N}: {tr:.3e} < {l1:.3e}" for N, (tr, l1) in pairs.items()),
    )
