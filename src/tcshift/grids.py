"""Quadrature grids and the s-wave reduction of 3D Fourier integrals.

Everything downstream discretizes radial functions on composite
Gauss-Legendre grids and reduces 3D integrals of rotation-invariant
quantities to 1D ones through the spherical kernel j0(x) = sin(x)/x,
tabulated once per (radial, momentum) grid pair by ``GridPair``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridError
from .kernels import chi

__all__ = [
    "RadialGrid",
    "MomentumGrid",
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
    "INF_BETA",
]

INF_BETA = math.inf  # sentinel for the zero-temperature multiplier 1/|E|


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
    """Positive quadrature nodes and weights; weights sum to the covered length."""

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
        if abs(w.sum() - self.covered_length()) > 1e-12 * max(1.0, self.r_max):
            raise GridError("weights do not sum to the covered length")

    def covered_length(self) -> float:
        return self.r_max

    def __len__(self):
        return len(self.nodes)


@dataclass(frozen=True)
class MomentumGrid(RadialGrid):
    """Momentum grid on (0, p_max]; optionally keeps nodes off the sphere p^2 = mu.

    With ``mu_guard`` > 0 the belt |p^2 - mu| < mu_guard carries no panel, so the
    covered length is p_max minus the belt width.
    """

    mu_guard: float = 0.0
    excluded: float = 0.0  # total length of the excluded belt

    def covered_length(self) -> float:
        return self.r_max - self.excluded

    def require_guard(self):
        if self.mu_guard <= 0.0:
            raise GridError("this operation needs a mu-guarded momentum grid")


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


def build_momentum_grid(
    p_max: float, n_p: int, mu: float = 0.0, guard: float = 0.0
) -> MomentumGrid:
    """Composite grid on (0, p_max], panel-refined toward p^2 = mu when mu > 0.

    The thermal multiplier concentrates on the sphere p^2 = mu at low
    temperature, so panel boundaries accumulate there on a dyadic ladder.
    With ``guard`` > 0 the belt |p^2 - mu| < guard is excluded from the
    panels entirely, which keeps the 1/|p^2 - mu| multiplier finite on every
    node.
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

    tol = 1e-9 * p_max
    excluded = 0.0
    if guard > 0.0 and mu + guard > 0.0:
        p_hi = math.sqrt(mu + guard)
        p_lo = math.sqrt(mu - guard) if mu > guard else 0.0
        if p_hi >= p_max:
            raise GridError("guard belt reaches p_max; enlarge the grid")
        excluded = p_hi - p_lo
        inner = [p for p in pts if p < p_lo - tol or p > p_hi + tol]
        segments = []
        if p_lo > 0.0:
            segments.append(_dedupe([p for p in inner if p <= p_lo] + [0.0, p_lo], tol))
        segments.append(_dedupe([p for p in inner if p >= p_hi] + [p_hi, p_max], tol))
    else:
        segments = [_dedupe(pts + [0.0, p_max], tol)]

    n_panels = sum(len(s) - 1 for s in segments)
    order = max(4, round(n_p / n_panels))
    parts = [composite_gauss_legendre(s, order) for s in segments]
    nodes = np.concatenate([p[0] for p in parts])
    weights = np.concatenate([p[1] for p in parts])
    grid = MomentumGrid(
        nodes=nodes, weights=weights, r_max=p_max, mu_guard=guard, excluded=excluded
    )
    if guard > 0.0 and np.any(np.abs(nodes * nodes - mu) < guard):
        raise GridError("guarded momentum grid still has nodes on the sphere")
    return grid


@dataclass(frozen=True, eq=False)
class GridPair:
    """Radial and momentum grids with their read-only table j0[i, a] = j0(r_i p_a)."""

    rgrid: RadialGrid
    pgrid: MomentumGrid
    j0: np.ndarray = field(init=False, repr=False)

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


def chi_multiplier_values(beta_or_inf: float, mu: float, pgrid: MomentumGrid) -> np.ndarray:
    """chi on the momentum nodes; the inf sentinel selects 1/|p^2 - mu|."""
    E = pgrid.nodes**2 - mu
    if beta_or_inf == math.inf:
        pgrid.require_guard()
        return 1.0 / np.abs(E)
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
