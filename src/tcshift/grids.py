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
    "row_blocks",
]

# Height of the row blocks in which a stage or check works through an
# n_r x n_p table without holding a second one.
ROW_BLOCK = 32
# The table build works in one scratch block of this size (the offset rows and
# a block's second term), freed on return.  Freeing a block that large raises
# glibc's dynamic mmap and trim thresholds above it, so later work arrays of a
# few hundred KiB (the ground-state ladder's finest levels, allocated on every
# call) are reused from the heap rather than trimmed and faulted in again;
# without it the bench's deep radial wells ran about 25 % slower.
TABLE_BLOCK_BYTES = 1 << 20


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


def row_blocks(n: int, height: int = ROW_BLOCK):
    """Slices of ``height`` consecutive rows that cover range(n), in order."""
    return [slice(start, min(start + height, n)) for start in range(0, n, height)]


def _j0_table(rgrid: RadialGrid, p: np.ndarray) -> np.ndarray:
    """j0(r_i p_a) for the nodes r of ``rgrid`` and ascending p > 0, in one pass.

    With r = s + o, a panel start plus an offset (``RadialGrid.starts`` and
    ``offsets``), sin(r p)/p = sin(s p) cos(o p)/p + cos(s p) sin(o p)/p: one
    row of sines and cosines per start and per offset instead of a sine per
    entry, with 1/p folded into the offset rows.  Each block of panels is
    built in the table's own buffer and multiplied by 1/r while it is still
    in cache; its start rows are computed for that block only.  The nodes are
    positive, so sin(x) (1/p) (1/r) keeps its relative accuracy down to the
    smallest products and needs no series corner.  Anchoring at the starts
    keeps the first panel, s = 0, exact.  The offset rows and the block's
    second term share one scratch buffer of TABLE_BLOCK_BYTES, freed on return.
    """
    n_s, n_o, n_p = len(rgrid.starts), len(rgrid.offsets), len(p)
    table = np.empty((len(rgrid.nodes), n_p))
    panels = table.reshape(n_s, n_o, n_p)
    inv_r = (1.0 / rgrid.nodes).reshape(n_s, n_o, 1)
    panel = n_o * n_p
    scratch = np.empty(max(TABLE_BLOCK_BYTES // 8, 3 * panel))
    sin_o, cos_o = scratch[: 2 * panel].reshape(2, n_o, n_p)
    np.multiply.outer(rgrid.offsets, p, out=cos_o)
    np.sin(cos_o, out=sin_o)
    np.cos(cos_o, out=cos_o)
    sin_o /= p
    cos_o /= p
    for k in row_blocks(n_s, len(scratch) // panel - 2):
        sp = np.multiply.outer(rgrid.starts[k], p)
        block = panels[k]
        term = scratch[2 * panel : 2 * panel + block.size].reshape(block.shape)
        np.multiply(np.sin(sp)[:, None], cos_o, out=block)
        block += np.multiply(np.cos(sp, out=sp)[:, None], sin_o, out=term)
        block *= inv_r[k]
    return table


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
    a, b = boundaries[:-1, None], boundaries[1:, None]
    half = 0.5 * (b - a)
    return (0.5 * (a + b) + half * x).ravel(), (half * w).ravel()


@dataclass(frozen=True)
class RadialGrid:
    """Positive quadrature nodes and weights on (0, r_max]; weights sum to r_max.

    The nodes are laid out as panels: node k * len(offsets) + j is
    starts[k] + offsets[j].  A grid built from bare nodes counts as one-node
    panels, its starts the nodes and its offsets (0,).
    """

    nodes: np.ndarray
    weights: np.ndarray
    r_max: float
    starts: np.ndarray = field(default=None, repr=False)
    offsets: np.ndarray = field(default=None, repr=False)

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
        if self.starts is None:
            object.__setattr__(self, "starts", n)
            object.__setattr__(self, "offsets", np.zeros(1))
        elif not np.array_equal(np.add.outer(self.starts, self.offsets).ravel(), n):
            raise GridError("panel starts plus offsets do not give the nodes")

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
    """Uniform composite panels on [0, r_max] with ~n_r total nodes.

    Every panel shares one set of Gauss-Legendre offsets from its start.
    """
    if r_max <= 0 or n_r < 8:
        raise GridError("need r_max > 0 and n_r >= 8")
    order = 16
    n_panels = max(2, round(n_r / order))
    width = r_max / n_panels
    x, w = gauss_legendre(order)
    starts = np.arange(n_panels) * width
    offsets = (0.5 * width) * (1.0 + x)
    nodes = np.add.outer(starts, offsets).ravel()
    weights = np.tile((0.5 * width) * w, n_panels)
    return RadialGrid(nodes=nodes, weights=weights, r_max=r_max, starts=starts, offsets=offsets)


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

    The table is the one n_r x n_p array the pipeline holds: every stage and
    check reads it through products with vectors or n x k blocks, or a few
    rows at a time (``row_blocks``).  ``shape_factors`` holds the compressed
    interaction factors that ``birman_schwinger.BsSolver`` builds on this
    pair, one per shape of V, and ``lock`` guards it.
    """

    rgrid: RadialGrid
    pgrid: RadialGrid
    j0: np.ndarray = field(init=False, repr=False)
    shape_factors: dict = field(init=False, repr=False, default_factory=dict)
    lock: threading.Lock = field(init=False, repr=False, default_factory=threading.Lock)

    def __post_init__(self):
        table = _j0_table(self.rgrid, self.pgrid.nodes)
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
    # the scalar goes on the product: scaling the table would copy it
    vals = math.sqrt(2.0 / math.pi) * (kernel @ (w * x * x * f.values))
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


def chi_kernel_weights(beta_or_inf: float, mu: float, pgrid: RadialGrid) -> np.ndarray:
    """(2/pi) w_a p_a^2 chi(p_a^2 - mu): the momentum weights of the position-space chi kernel."""
    p, wp = pgrid.nodes, pgrid.weights
    return (2.0 / math.pi) * wp * p * p * chi_multiplier_values(beta_or_inf, mu, pgrid)
