"""Accuracy of the product-midpoint rule for the weakly singular kernel.

The convolution weights integrate (t_n - s)**(alpha - 1) exactly over
each step, so two structural identities hold to rounding error no matter
how coarse the mesh is:

  * every weight is positive;
  * the weights of row n sum to t_n**alpha / Gamma(alpha + 1), the value
    of the fractional integral of the constant 1.

The approximation error therefore comes only from replacing the smooth
factor by its midpoint value.  For g(t) = t**2 the exact fractional
integral is Gamma(3) / Gamma(3 + alpha) t**(2 + alpha), which gives a
clean reference for the observed order, 1 + alpha.
"""

import math
from math import gamma

import numpy as np

from fracheat.meshes import graded_time_mesh, uniform_time_mesh
from fracheat.quadrature import midpoint_convolution, weights_row


def main() -> None:
    print("Telescoping identity, alpha = 0.5:")
    for label, mesh in (
        ("uniform, N=16", uniform_time_mesh(1.0, 16)),
        ("graded r=2, N=16", graded_time_mesh(1.0, 16, 2.0)),
    ):
        row = weights_row(0.5, mesh, 16)
        total = float(np.sum(row))
        expect = mesh.t[16] ** 0.5 / gamma(1.5)
        print(f"  {label}: sum of weights = {total:.15f}, "
              f"t_N**alpha / Gamma(1 + alpha) = {expect:.15f}")

    print("\nObserved order for g(t) = t**2 at t = 1:")
    print(f"{'alpha':>6} {'N':>6} {'error':>12} {'order':>7}")
    for alpha in (0.25, 0.5, 0.75):
        exact = gamma(3.0) / gamma(3.0 + alpha)
        prev = None
        for N in (512, 1024, 2048, 4096):
            mesh = uniform_time_mesh(1.0, N)
            err = abs(midpoint_convolution(alpha, mesh, mesh.t**2, N) - exact)
            order = f"{math.log2(prev / err):.3f}" if prev else "*"
            print(f"{alpha:>6} {N:>6} {err:>12.3e} {order:>7}")
            prev = err
        print(f"       expected order 1 + alpha = {1 + alpha}")


if __name__ == "__main__":
    main()
