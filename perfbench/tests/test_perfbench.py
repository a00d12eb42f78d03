"""Tests of the benchmark itself: the tracer and the reference check.

    python3 -m pytest perfbench/tests -q

They run small instances of the workload types, not the benchmark's own
workloads, and take a few seconds.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import fracheat  # noqa: E402

TINY = [
    workloads.CliSweep("tiny-sweep", alphas="0.25,0.5", M=8, ladder="4:16:x2",
                       dump_alpha="0.5", dump_N=8),
    workloads.SingleSolve("tiny-both", M=8, N=16, schemes=("transformed", "l1")),
    workloads.SingleSolve("tiny-graded", M=8, N=16, schemes=("transformed",),
                          grading=2.0, quadrature_forcing=True),
]


def traced_counts(workload, tracer=None):
    tracer = tracer or tracing.Tracer()
    inputs = workload.build(0)
    with tracer.installed():
        traced = workload.traced_inputs(inputs, tracer.wrap_problem)
        tracer.reset()
        workload.run_pass(traced)
    return {k: v for k, v in tracer.metrics().items() if not k.endswith("_s")}


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_two_traced_runs_give_identical_counts(workload):
    original_solve = fracheat.solve
    first = traced_counts(workload)
    second = traced_counts(workload)
    assert first == second
    assert first["solver.solve.calls"] == workload.solves_per_pass
    assert fracheat.solve is original_solve  # uninstall restored the library


def test_counts_match_the_forcing_fallback_cost():
    counts = traced_counts(TINY[2])
    n = 16
    # Level k samples f at all k + 1 levels so far.
    assert counts["problems.f.calls"] == sum(k + 1 for k in range(1, n + 1))
    assert counts["problems.f.useful_ratio"] == (n + 1) / counts["problems.f.calls"]
    # weights_row runs once for the scheme and once for the forcing at each level.
    assert counts["quadrature.weights_row.entries"] == 2 * sum(range(1, n + 1))
    assert counts["operators.solve_tridiagonal.calls"] == n


def test_sweep_counts_reach_the_harness_and_problems():
    counts = traced_counts(TINY[0])
    assert counts["cli.main.calls"] == 2
    assert counts["harness.run_sweep.calls"] == 1
    # lattice_error calls max_lattice_error; the pair is one span per row.
    assert counts["harness.error.calls"] == 2 * 3
    # One exact_u call per level of each row: 2 alphas x (5 + 9 + 17) levels.
    assert counts["problems.exact_u.calls"] == 2 * (5 + 9 + 17)


def test_a_deleted_name_is_reported_absent(monkeypatch):
    monkeypatch.delattr(fracheat.operators, "solve_tridiagonal")
    monkeypatch.delattr(fracheat, "solve_tridiagonal")
    tracer = tracing.Tracer()
    counts = traced_counts(TINY[1], tracer)
    assert tracer.absent == ["operators.solve_tridiagonal"]
    assert counts["operators.solve_tridiagonal.calls"] == 0
    assert counts["solver.solve.calls"] == 2


@pytest.fixture(scope="module")
def refs():
    return reference.load_refs()


def test_solve_check_accepts_rounding_and_rejects_one_perturbed_entry(refs):
    key = reference.solve_key("long-history", "transformed", 0.5)
    profile = refs[f"{key}.profile"].copy()
    e1 = float(refs[f"{key}.E1"])

    def check(p, e=e1):
        return reference.check_solve(refs, "long-history", 0.5,
                                     workloads.SolveOutput("transformed", p, e))

    assert check(profile) is None
    assert check(profile * (1 + 1e-13)) is None  # reordered sums
    bumped = profile.copy()
    bumped[37] += 1e-9
    assert "profile differs" in check(bumped)
    assert "E1" in check(profile, e1 * (1 + 1e-4))
    bumped[37] = np.nan
    assert "non-finite" in check(bumped)


def dump_text(t, x, u):
    lines = ["t,x,u"] + [
        f"{tn:.10g},{xi:.10g},{ui:.10g}" for n, tn in enumerate(t) for xi, ui in zip(x, u[n])
    ]
    return "\n".join(lines) + "\n"


def test_dump_check_rejects_one_perturbed_entry(refs):
    t, x, u = refs["golden-sweep.t"], refs["golden-sweep.x"], refs["golden-sweep.u"].copy()
    assert reference.check_dump(refs, dump_text(t, x, u), 0) is None
    u[321, 50] += 1e-7
    assert "differs" in reference.check_dump(refs, dump_text(t, x, u), 0)
    assert reference.check_dump(refs, None, 1) is not None


def converge_text(keys, e1, rate):
    lines = ["alpha,scheme,mesh,M,N,E1,rate,wall_seconds"]
    for k, e, r in zip(keys, e1, rate):
        lines.append(f"{k},{e:.5e},{'' if np.isnan(r) else f'{r:.5e}'},1.0e-01")
    return "\n".join(lines) + "\n"


def test_converge_check_rejects_one_perturbed_entry(refs):
    keys = [str(k) for k in refs["golden-sweep.rows"]]
    e1, rate = refs["golden-sweep.E1"].copy(), refs["golden-sweep.rate"].copy()
    problems, err = reference.check_converge(refs, converge_text(keys, e1, rate), 0)
    assert problems == [] and err == e1.max()
    e1[5] *= 1.001
    problems, _ = reference.check_converge(refs, converge_text(keys, e1, rate), 0)
    assert len(problems) == 1 and keys[5] in problems[0]
    problems, _ = reference.check_converge(refs, None, 1)
    assert len(problems) == len(keys)


def test_command_fails_without_the_library():
    """Beside BENCHMARK.json alone, the command exits nonzero and prints no result."""
    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "wide-space", "--seconds", "1"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_probe_memory_is_its_own_not_the_parents():
    ballast = np.ones(100 * 1024 * 1024 // 8)  # 100 MB resident in this process
    result = run.probe("wide-space", 0, with_pass=True)
    assert 10 < result["peak_rss_mb"] < 90
    assert 0 < result["setup_s"] < 30
    del ballast
