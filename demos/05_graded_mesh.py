"""Why graded time meshes exist: taming the initial layer.

The unforced first-mode decay problem starts from phi = sin(pi x) and
relaxes with derivative like t**(alpha - 1), which is unbounded at t = 0.
On a uniform mesh the very first step carries almost all of the error;
clustering points near t = 0 with t_n = T (n/N)**r spends the same number
of steps where the solution actually moves.  Both schemes run on every
mesh, so the L1 baseline is compared where the layer is resolved too.

The exact solution is sin(pi x) multiplied by a one-parameter relaxation
function computed from its power series, so the error below is measured
against an independent reference, not against a finer run.
"""

import numpy as np

from fracheat.harness import max_lattice_error
from fracheat.meshes import SpatialGrid, graded_time_mesh, uniform_time_mesh
from fracheat.problems import sine_decay
from fracheat.solver import SchemeKind, solve


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
    print(f"  {'':13} {'transformed':>24}   {'L1':>24}")
    for label, mesh in meshes:
        cells = []
        for scheme in SchemeKind:
            lattice = solve(problem, grid, mesh, scheme)
            err = max_lattice_error(lattice, problem.exact_u)
            errs = [
                float(np.max(np.abs(lattice.values[n] - problem.exact_u(grid.x, float(t)))))
                for n, t in enumerate(mesh.t)
            ]
            cells.append(f"E1 = {err:.3e} (n = {int(np.argmax(errs)):3d})")
        print(f"  {label} {cells[0]:>24}   {cells[1]:>24}")
    print("(n: the worst level of 256.)  Grading cuts both schemes' errors by one\n"
          "to two orders of magnitude and moves the transformed scheme's worst\n"
          "level away from t = 0; the transformed scheme stays ahead of L1 on\n"
          "every mesh here, by 5 to 40 times.")


if __name__ == "__main__":
    main()
