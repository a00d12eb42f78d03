"""Rescaling timings for a machine whose speed drifts.

On a shared 2-core sandbox identical passes took anywhere from 0.97 s to
1.74 s within one minute, and from 1.0 s to 2.1 s at another time, with
the CPU-time clock slowing just as much as the wall clock, in regimes that
last tens of seconds.  A fixed job timed next to the measured work slows
by a similar factor; rescaling by it cut the spread of ``wall_s`` across
runs of ``wide-space`` from about 20% to about 9%.  The benchmark
therefore reports every end-to-end time rescaled to a machine on which
that job takes ``REFERENCE_S``:

    reported = measured * REFERENCE_S / job

The job does not use fracheat, so a change to the library cannot move it.
It mixes the kinds of work the workloads do: an element-by-element Python
loop over numpy arrays (the Thomas solve), many Python calls each
evaluating ``sin`` on a 101-node grid (the forcing callables), small
matrix-vector and stencil operations, and stencil arithmetic on a 1.6 MB
history-sized array.  It allocates nothing above
glibc's 128 KiB mmap threshold and touches no fresh page while timed, so
its speed does not depend on what the process allocated before.
"""

from time import perf_counter

import numpy as np

# The job's median time on the machine the baseline was recorded on
# (2-core x86-64 sandbox, Python 3.11, numpy 2.4, OpenBLAS).
REFERENCE_S = 0.1


def job_seconds() -> float:
    rng = np.random.default_rng(0)
    f, e = rng.random(4096), np.zeros(4096)
    x = np.linspace(0.0, 1.0, 101)
    a, v = rng.random((120, 100)), rng.random(120)
    history = rng.random((2048, 101))
    out = history[2:].copy()  # written now, so no page faults while timed

    def forcing(x: np.ndarray, t: float) -> np.ndarray:
        return np.sin(np.pi * x) * (t * t + 2.0 * t**1.5)

    start = perf_counter()
    for i in range(1, 4096 * 10):
        e[i % 4096] = f[i % 4096] - 0.5 * e[i % 4096 - 1]
    for k in range(5000):
        forcing(x, k * 1e-4)
    for _ in range(1000):
        v @ a
        (a[:-2] - 2.0 * a[1:-1] + a[2:]) * 0.25
    for _ in range(20):
        np.subtract(history[:-2], history[1:-1], out=out)
        np.add(out, history[2:], out=out)
        history[:2046, 0] @ out
    return perf_counter() - start


def scale(job_before: float, job_after: float) -> float:
    """Factor that rescales a time measured between two runs of the job."""
    return REFERENCE_S / (0.5 * (job_before + job_after))
