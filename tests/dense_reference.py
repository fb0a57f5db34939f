"""Dense references that tests compare the production code against.

tcshift never forms these n x n objects: the position-space chi kernel, its
action on a radial function, and the uncompressed Nystrom matrix
G diag(chi) G^T that ``BsSolver`` compresses.
"""

import math

import numpy as np

from tcshift.birman_schwinger import BsSolver, _g1_rows, _momentum_columns, _shape_columns
from tcshift.grids import (
    GridPair,
    RadialFunction,
    chi_kernel_weights,
    chi_multiplier_values,
    sandwich,
)


def assemble_chi_kernel(beta_or_inf: float, mu: float, grids: GridPair) -> np.ndarray:
    """Position-space kernel of the thermal multiplier in the s-wave sector.

    k(r, r') = (2/pi) int_0^inf chi(p^2 - mu) j0(p r) j0(p r') p^2 dp, the
    operator acting as (Af)(r) = int k(r, r') f(r') r'^2 dr'.  Assembled as
    ``sandwich(j0, (2/pi) w p^2 chi)`` with chi > 0, so the result is exactly
    symmetric and positive semidefinite up to rounding.
    """
    return sandwich(grids.j0, chi_kernel_weights(beta_or_inf, mu, grids.pgrid))


def apply_kernel(kernel: np.ndarray, f: RadialFunction) -> RadialFunction:
    """Apply an s-wave multiplier kernel: (Af)(r_i) = sum_j w_j r_j^2 k_ij f_j."""
    r, w = f.grid.nodes, f.grid.weights
    return RadialFunction(grid=f.grid, values=kernel @ (w * r * r * f.values))


def bs_matrix(solver: BsSolver, beta_or_inf: float) -> np.ndarray:
    """The uncompressed n_r x n_r matrix G diag(chi) G^T, with G = sqrt(g) G1.

    G is rebuilt from the pair's j0 table; ``solver.reduced`` is its
    compressed k x k counterpart.
    """
    grids = solver.grids
    d, e = _shape_columns(solver.model.V, grids), _momentum_columns(grids)
    G = _g1_rows(d, e, grids.j0)
    G *= math.sqrt(solver.model.V.gain)
    return sandwich(G, chi_multiplier_values(beta_or_inf, solver.model.mu, grids.pgrid))
