"""Why graded time meshes exist: taming the initial layer.

The unforced first-mode decay problem starts from phi = sin(pi x) and
relaxes with derivative like t**(alpha - 1), which is unbounded at t = 0.
On a uniform mesh the very first step carries almost all of the error;
clustering points near t = 0 with t_n = T (n/N)**r spends the same number
of steps where the solution actually moves.

The exact solution is sin(pi x) multiplied by a one-parameter relaxation
function computed from its power series, so the error below is measured
against an independent reference, not against a finer run.
"""

import numpy as np

from fracheat.harness import max_lattice_error
from fracheat.meshes import SpatialGrid, graded_time_mesh, uniform_time_mesh
from fracheat.problems import sine_decay
from fracheat.solver import solve


def main() -> None:
    problem = sine_decay(0.5)
    grid = SpatialGrid(64)
    N = 256
    meshes = (
        ("uniform      ", uniform_time_mesh(0.01, N)),
        ("graded r = 2 ", graded_time_mesh(0.01, N, 2.0)),
        ("graded r = 3 ", graded_time_mesh(0.01, N, 3.0)),
    )
    T = meshes[0][1].T
    print(f"alpha = 0.5, T = {T:g}, M = 64, N = 256, error over the whole lattice:")
    for label, mesh in meshes:
        lattice = solve(problem, grid, mesh)
        err = max_lattice_error(lattice, problem.exact_u)
        errs = [
            float(np.max(np.abs(lattice.values[n] - problem.exact_u(grid.x, float(t)))))
            for n, t in enumerate(mesh.t)
        ]
        worst = int(np.argmax(errs))
        print(f"  {label} E1 = {err:.3e}   (worst level n = {worst} of {N})")
    print("Grading moves the worst level away from t = 0 and cuts the "
          "error by orders of magnitude.")


if __name__ == "__main__":
    main()
