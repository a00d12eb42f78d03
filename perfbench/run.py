"""The fracheat benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Runs from any checkout of the repository and imports ``fracheat`` from its
``src/``.  For each workload it prints the environment, every metric by
name and unit, and as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every pass is checked against
the reference outputs in ``refs.npz``; any mismatch makes ``correct``
false and the exit status 1.

``--trace 0`` (the default) measures the end-to-end metrics with tracing
off.  ``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics and the tracing overhead instead.  See README.md.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 9
PROBE_TIMEOUT_S = 60
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cells_per_s": "1/s", "peak_rss_mb": "MB"}


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_sha() -> Optional[str]:
    """The checked-out commit, read from .git without running git (None outside a clone)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fracheat").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class Tally:
    """Solves attempted and failed, the failure messages and the largest E1.

    ``check(workload, inputs, outputs)`` returns one message per failed
    solve and the pass's largest E1.
    """

    def __init__(self, check) -> None:
        self.check = check
        self.attempted = 0
        self.problems: list[str] = []
        self.err_max = 0.0

    def timed_pass(self, workload, inputs) -> float:
        """Run and check one pass; return its wall time (the check is not timed)."""
        start = perf_counter()
        try:
            outputs = workload.run_pass(inputs)
        except Exception as exc:  # a raising solve is counted as failed, not fatal
            elapsed = perf_counter() - start
            problems, err = [f"pass raised {exc!r}"] * workload.solves_per_pass, 0.0
        else:
            elapsed = perf_counter() - start
            problems, err = self.check(workload, inputs, outputs)
        self.attempted += workload.solves_per_pass
        self.problems += problems
        self.err_max = max(self.err_max, err)
        return elapsed


# Linux carries a process's peak-RSS mark into the children it spawns, so
# the probe is started through a bare interpreter whose own peak is far
# below the probe's.  The launcher kills and reaps the probe on timeout.
LAUNCHER = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[2:], timeout=float(sys.argv[1])).returncode)"


def probe(name: str, seed: int, with_pass: bool) -> dict:
    cmd = [sys.executable, "-c", LAUNCHER, str(PROBE_TIMEOUT_S),
           sys.executable, str(HERE / "probe.py"), name, str(seed)]
    proc = subprocess.run(cmd + (["--pass"] if with_pass else []), cwd=ROOT,
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S + 30)
    if proc.returncode != 0:
        raise RuntimeError(f"probe {name} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def repeat_until(seconds: float, step) -> None:
    """Call ``step`` at least once and until ``seconds`` have passed."""
    deadline = perf_counter() + seconds
    step()
    while perf_counter() < deadline:
        step()


def end_to_end(name: str, workload, seed: int, seconds: float, tally: Tally) -> dict:
    """The end-to-end metrics, with times rescaled by ``calibration``."""
    import calibration

    # The first probe also compiles bytecode, so only its memory figure is kept.
    peak_rss_mb = probe(name, seed, with_pass=True)["peak_rss_mb"]
    job = calibration.job_seconds()
    setups = [probe(name, seed, with_pass=False)["setup_s"] for _ in range(SETUP_SAMPLES)]
    jobs = [job, calibration.job_seconds()]
    setup_s = statistics.median(setups) * calibration.scale(*jobs)

    inputs = workload.build(seed)
    tally.timed_pass(workload, inputs)  # warm-up, not timed
    raw: list[float] = []
    walls: list[float] = []

    def step() -> None:
        raw.append(tally.timed_pass(workload, inputs))
        jobs.append(calibration.job_seconds())
        walls.append(raw[-1] * calibration.scale(jobs[-2], jobs[-1]))

    repeat_until(seconds, step)
    wall_s = statistics.median(walls)
    print(f"# {name}: {len(walls)} timed passes; unscaled setup_s {statistics.median(setups):.4f}, "
          f"wall_s {statistics.median(raw):.4f} (min {min(raw):.4f}, max {max(raw):.4f}); "
          f"calibration job median {statistics.median(jobs):.4f} s, reference {calibration.REFERENCE_S} s")
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cells_per_s": workload.cells_per_pass / wall_s,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(name: str, workload, seed: int, seconds: float, tally: Tally) -> dict:
    import tracing

    tracer = tracing.Tracer()
    inputs = workload.build(seed)
    tally.timed_pass(workload, inputs)  # warm-up, not timed
    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []

    def pair() -> None:
        plain.append(tally.timed_pass(workload, inputs))
        with tracer.installed():
            traced_inputs = workload.traced_inputs(inputs, tracer.wrap_problem)
            tracer.reset()
            traced.append(tally.timed_pass(workload, traced_inputs))
        layers.append(tracer.metrics())

    repeat_until(seconds, pair)
    tracer.write(HERE / "_work" / f"spans-{name}.tsv")
    if tracer.absent:
        print(f"# {name}: absent spans (reported as 0): {', '.join(tracer.absent)}")
    metrics = {k: statistics.median_low(run[k] for run in layers) for k in tracing.metric_names()}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cap = nproc()
    for var in BLAS_THREAD_VARS:  # must precede the numpy import
        os.environ[var] = str(cap)
    try:
        import numpy
        import reference
        import tracing
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import fracheat from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    origin = Path(workloads.fracheat.__file__).resolve()
    if not origin.is_relative_to(ROOT / "src"):
        print(f"perfbench: imported fracheat from {origin}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not reference.REFS_PATH.is_file():
        print(f"perfbench: missing {reference.REFS_PATH}", file=sys.stderr)
        return 2
    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (known: {', '.join(workloads.WORKLOADS)}, all)")
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]

    env = {
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": cap,
        "blas_threads": cap,
        "seed": args.seed,
        "alpha": workloads.pick_alpha(args.seed),
        "trace": args.trace,
    }
    print(f"# env {json.dumps(env)}")

    check = functools.partial(reference.check_pass, reference.load_refs())
    measure = per_layer if args.trace else end_to_end
    attempted, problems = 0, []
    metrics: dict[str, dict] = {}
    for name in names:
        tally = Tally(check)
        values = measure(name, workloads.WORKLOADS[name], args.seed, args.seconds, tally)
        attempted += tally.attempted
        problems += tally.problems
        for metric, value in values.items():
            unit = tracing.unit(metric) if args.trace else END_TO_END_UNITS[metric]
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
            shown = value if isinstance(value, int) else f"{value:.6g}"
            print(f"{name:16} {metric:48} {shown} {unit}")
        if not args.trace:
            print(f"{name:16} {'err_max':48} {tally.err_max:.6g} 1")
        failed = len(tally.problems)
        print(f"{name:16} {'failed_frac':48} {failed / tally.attempted:.6g} ({failed}/{tally.attempted})")

    for problem in problems[:20]:
        print(f"# FAILED {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(problems), "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
