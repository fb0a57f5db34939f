"""Quadrature grids and the s-wave reduction of 3D Fourier integrals.

Everything downstream discretizes radial functions on composite
Gauss-Legendre grids and reduces 3D integrals of rotation-invariant
quantities to 1D ones through the spherical kernel j0(x) = sin(x)/x,
tabulated once per (radial, momentum) grid pair by ``GridPair``.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import GridError
from .kernels import chi

__all__ = [
    "RadialGrid",
    "RadialFunction",
    "GridPair",
    "spherical_j0",
    "gauss_legendre",
    "composite_gauss_legendre",
    "build_radial_grid",
    "build_momentum_grid",
    "ft3_radial",
    "radial_inner",
    "assemble_chi_kernel",
    "apply_kernel",
]


def spherical_j0(x):
    """sin(x)/x with the series 1 - x^2/6 + x^4/120 below |x| = 1e-4.

    Built in the output array: sin(x), divided in place where |x| >= 1e-4,
    the series written over the small entries only.
    """
    x = np.asarray(x, dtype=float)
    small = (x > -1e-4) & (x < 1e-4)
    out = np.sin(x, out=np.empty_like(x))
    np.divide(out, x, out=out, where=~small)
    xs = x[small]
    x2 = xs * xs
    out[small] = 1.0 - x2 / 6.0 + x2 * x2 / 120.0
    return out if out.ndim else float(out)


@functools.lru_cache(maxsize=64)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order.

    The arrays are shared by every caller, so they are read-only.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def composite_gauss_legendre(boundaries, nodes_per_panel: int):
    """Gauss-Legendre nodes/weights on each panel of an ascending boundary list."""
    boundaries = np.asarray(boundaries, dtype=float)
    if boundaries.ndim != 1 or len(boundaries) < 2 or np.any(np.diff(boundaries) <= 0):
        raise GridError("panel boundaries must be strictly ascending")
    x, w = gauss_legendre(nodes_per_panel)
    nodes, weights = [], []
    for a, b in zip(boundaries[:-1], boundaries[1:]):
        half = 0.5 * (b - a)
        nodes.append(0.5 * (a + b) + half * x)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


@dataclass(frozen=True)
class RadialGrid:
    """Positive quadrature nodes and weights on (0, r_max]; weights sum to r_max."""

    nodes: np.ndarray
    weights: np.ndarray
    r_max: float

    def __post_init__(self):
        n, w = self.nodes, self.weights
        if len(n) != len(w):
            raise GridError("nodes/weights length mismatch")
        if np.any(n <= 0) or np.any(np.diff(n) <= 0):
            raise GridError("nodes must be strictly ascending and positive")
        if np.any(w <= 0):
            raise GridError("weights must be positive")
        if abs(w.sum() - self.r_max) > 1e-12 * max(1.0, self.r_max):
            raise GridError("weights do not sum to r_max")

    def __len__(self):
        return len(self.nodes)


@dataclass
class RadialFunction:
    """Samples of a radial function on a grid's nodes."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.nodes.shape:
            raise GridError("value array does not match the grid")
        if not np.all(np.isfinite(self.values)):
            raise GridError("non-finite function values")


def build_radial_grid(r_max: float, n_r: int) -> RadialGrid:
    """Uniform composite panels on [0, r_max] with ~n_r total nodes."""
    if r_max <= 0 or n_r < 8:
        raise GridError("need r_max > 0 and n_r >= 8")
    order = 16
    n_panels = max(2, round(n_r / order))
    boundaries = np.linspace(0.0, r_max, n_panels + 1)
    nodes, weights = composite_gauss_legendre(boundaries, order)
    return RadialGrid(nodes=nodes, weights=weights, r_max=r_max)


def _dedupe(pts, tol):
    out = []
    for p in sorted(pts):
        if not out or p - out[-1] > tol:
            out.append(p)
    return out


def build_momentum_grid(p_max: float, n_p: int, mu: float = 0.0) -> RadialGrid:
    """Composite grid on (0, p_max], panel-refined toward p^2 = mu when mu > 0.

    The thermal multiplier concentrates on the sphere p^2 = mu at low
    temperature, so panel boundaries accumulate there on a dyadic ladder.
    """
    if p_max <= 0 or n_p < 8:
        raise GridError("need p_max > 0 and n_p >= 8")
    pts = list(np.linspace(0.0, p_max, 9))
    if 0.0 < mu < p_max * p_max:
        s = math.sqrt(mu)
        width = max(1.0, s) / 2.0
        pts.append(s)
        for k in range(10):
            off = width * 0.5**k
            for cand in (s - off, s + off):
                if 0.0 < cand < p_max:
                    pts.append(cand)

    boundaries = _dedupe(pts + [0.0, p_max], 1e-9 * p_max)
    order = max(4, round(n_p / (len(boundaries) - 1)))
    nodes, weights = composite_gauss_legendre(boundaries, order)
    return RadialGrid(nodes=nodes, weights=weights, r_max=p_max)


@dataclass(frozen=True, eq=False)
class GridPair:
    """Radial and momentum grids with their read-only table j0[i, a] = j0(r_i p_a).

    ``shape_factors`` holds the compressed interaction factors that
    ``birman_schwinger.BsSolver`` builds on this pair, one per shape of V,
    and ``lock`` guards it.
    """

    rgrid: RadialGrid
    pgrid: RadialGrid
    j0: np.ndarray = field(init=False, repr=False)
    shape_factors: dict = field(init=False, repr=False, default_factory=dict)
    lock: threading.Lock = field(init=False, repr=False, default_factory=threading.Lock)

    def __post_init__(self):
        table = spherical_j0(np.outer(self.rgrid.nodes, self.pgrid.nodes))
        table.flags.writeable = False
        object.__setattr__(self, "j0", table)


def ft3_radial(f: RadialFunction, grids: GridPair) -> RadialFunction:
    """Unitary 3D Fourier transform of a radial function, radially reduced.

    f_hat(p) = sqrt(2/pi) * int_0^inf f(r) j0(p r) r^2 dr.  The convention is
    self-inverse, so ``f`` may live on either grid of the pair and is mapped
    to the other one.
    """
    if f.grid is grids.rgrid:
        kernel, target = grids.j0.T, grids.pgrid
    elif f.grid is grids.pgrid:
        kernel, target = grids.j0, grids.rgrid
    else:
        raise GridError("the function lives on neither grid of the pair")
    x, w = f.grid.nodes, f.grid.weights
    vals = math.sqrt(2.0 / math.pi) * kernel @ (w * x * x * f.values)
    return RadialFunction(grid=target, values=vals)


def radial_inner(f: RadialFunction, g: RadialFunction) -> float:
    """L2(R^3) inner product of radial functions: 4 pi int f g r^2 dr."""
    if f.grid is not g.grid and not np.array_equal(f.grid.nodes, g.grid.nodes):
        raise GridError("inner product requires a shared grid")
    r, w = f.grid.nodes, f.grid.weights
    # product first, so the result is exactly symmetric in (f, g)
    return float(4.0 * math.pi * np.sum(w * r * r * (f.values * g.values)))


def chi_multiplier_values(beta_or_inf: float, mu: float, pgrid: RadialGrid) -> np.ndarray:
    """chi on the momentum nodes; beta = inf gives the zero-temperature 1/(p^2 - mu).

    That limit is finite on every node only for mu <= 0, where p^2 - mu >= p^2 > 0.
    """
    E = pgrid.nodes**2 - mu
    if beta_or_inf == math.inf:
        if mu > 0.0:
            raise GridError("the zero-temperature multiplier 1/(p^2 - mu) needs mu <= 0")
        return 1.0 / E
    return chi(beta_or_inf, E)


def sandwich(F: np.ndarray, c: np.ndarray) -> np.ndarray:
    """F diag(c) F^T for c >= 0, exactly symmetric."""
    scaled = F * np.sqrt(c)
    M = scaled @ scaled.T
    return 0.5 * (M + M.T)


def assemble_chi_kernel(beta_or_inf: float, mu: float, grids: GridPair) -> np.ndarray:
    """Position-space kernel of the thermal multiplier in the s-wave sector.

    k(r, r') = (2/pi) int_0^inf chi(p^2 - mu) j0(p r) j0(p r') p^2 dp, the
    operator acting as (Af)(r) = int k(r, r') f(r') r'^2 dr'.  Assembled as
    ``sandwich(j0, (2/pi) w p^2 chi)`` with chi > 0, so the result is exactly
    symmetric and positive semidefinite up to rounding.
    """
    p, wp = grids.pgrid.nodes, grids.pgrid.weights
    c = chi_multiplier_values(beta_or_inf, mu, grids.pgrid)
    return sandwich(grids.j0, (2.0 / math.pi) * wp * p * p * c)


def apply_kernel(kernel: np.ndarray, f: RadialFunction) -> RadialFunction:
    """Apply an s-wave multiplier kernel: (Af)(r_i) = sum_j w_j r_j^2 k_ij f_j."""
    r, w = f.grid.nodes, f.grid.weights
    return RadialFunction(grid=f.grid, values=kernel @ (w * r * r * f.values))
