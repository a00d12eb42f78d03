"""Correctness checks that must survive ``python -O``.

``-O`` strips ``assert`` statements and ``if __debug__:`` blocks, so each
check here runs in a fresh ``python -O`` interpreter.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import fracheat

SRC = Path(fracheat.__file__).resolve().parents[1]


def _run_optimized(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-O", "-c", textwrap.dedent(code)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "code, message",
    [
        (
            """
            import numpy as np
            from fracheat.operators import TridiagonalSystem
            TridiagonalSystem(lower=np.array([2.0, 2.0]), diag=np.ones(3),
                              upper=np.array([2.0, 2.0]), rhs=np.zeros(3))
            """,
            "ValueError: row 1 is not strictly diagonally dominant",
        ),
        (
            """
            import dataclasses
            from fracheat import SpatialGrid, manufactured_sin, solve, uniform_time_mesh
            p = dataclasses.replace(manufactured_sin(0.5),
                                    f=lambda x, t: x * float("nan"), exact_f_conv=None)
            solve(p, SpatialGrid(8), uniform_time_mesh(1.0, 4))
            """,
            "ValueError: solution level 1 (t = 0.25) is not finite",
        ),
        (
            # At M = 8 the forcing prefill samples the closed form in blocks
            # of 1024 rows, so level 3 is the third row of the one block
            # [1, 9).
            """
            import dataclasses
            import numpy as np
            from fracheat import SpatialGrid, manufactured_sin, solve, uniform_time_mesh
            base = manufactured_sin(0.5)
            conv = lambda x, t: base.exact_f_conv(x, t) + np.where(t >= 0.375, np.nan, 0.0)
            p = dataclasses.replace(base, exact_f_conv=conv)
            solve(p, SpatialGrid(8), uniform_time_mesh(1.0, 8))
            """,
            "ValueError: solution level 3 (t = 0.375) is not finite",
        ),
        (
            # A closed form written for a scalar t is refused when the problem
            # is built, not inside the solve's first block.
            """
            import dataclasses
            from fracheat import manufactured_sin
            dataclasses.replace(manufactured_sin(0.5),
                                exact_f_conv=lambda x, t: 0.0 if t < 0.5 else 1.0)
            """,
            "ValueError: exact_f_conv must map x of shape (M+1,) and t of shape (k, 1)",
        ),
        (
            # At t_2 = 1e300 the weight of the first step, about 1e-450,
            # underflows.
            """
            import numpy as np
            from fracheat import SpatialGrid, TemporalMesh, manufactured_sin, solve
            mesh = TemporalMesh(t=np.array([0.0, 1e-300, 1e300]))
            solve(manufactured_sin(0.5), SpatialGrid(8), mesh)
            """,
            "ValueError: kernel weight a_1 of level 2 is not positive and finite",
        ),
        (
            # Steps of 1e-300 up to t_34, then t_35 = 1e300: a_1 of level 35
            # underflows, inside the second block of levels [33, 41).
            """
            import numpy as np
            from fracheat import SpatialGrid, TemporalMesh, manufactured_sin, solve
            t = np.concatenate((np.arange(35) * 1e-300, np.linspace(1e300, 2e300, 6)))
            solve(manufactured_sin(0.5), SpatialGrid(8), TemporalMesh(t=t))
            """,
            "ValueError: kernel weight a_1 of level 35 is not positive and finite",
        ),
        (
            """
            import numpy as np
            from fracheat import TemporalMesh
            TemporalMesh(t=np.array([0.0, 1.0, np.inf]))
            """,
            "ValueError: time level t_2=inf is not finite",
        ),
    ],
    ids=[
        "weakly-dominant-rows",
        "nan-forcing",
        "nan-closed-form-forcing-inside-a-row-block",
        "scalar-only-closed-form-forcing",
        "zero-kernel-weight",
        "zero-kernel-weight-in-a-later-block",
        "non-finite-mesh-level",
    ],
)
def test_check_raises_under_optimized_python(code, message):
    result = _run_optimized("assert False, 'not optimized'\n" + textwrap.dedent(code))
    assert result.returncode == 1, result.stdout + result.stderr
    assert message in result.stderr
