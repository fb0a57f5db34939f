"""Ground energy of p^2 + g W on R^3 and the quadratic temperature-shift law.

The infimum of the spectrum feeds the shift coefficient
D_c = (lambda0/lambda2) * inf spec(p^2 + (lambda1/lambda0) W),
and the predicted critical temperature at field scale h is
T_c(h) = T_c (1 - D_c h^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainTooSmall
from .gl import GlCoefficients
from .model import ExternalField

__all__ = [
    "EffectiveProblem",
    "EffectiveGroundState",
    "TcShiftReport",
    "ground_energy",
    "compute_dc",
    "tc_of_h",
]


@dataclass(frozen=True)
class EffectiveProblem:
    """inf spec(p^2 + coupling * W) on L2(R^3), truncated to a Dirichlet box."""

    coupling: float
    W: ExternalField
    domain_radius: float
    n_points: int = 2000

    def __post_init__(self):
        if not math.isfinite(self.coupling):
            raise ValueError("coupling must be finite")
        if self.n_points < 100:
            raise ValueError("n_points must be >= 100")
        if self.domain_radius <= 0:
            raise ValueError("domain_radius must be positive")

    @classmethod
    def from_gl(cls, gl: GlCoefficients, W: ExternalField, domain_radius=None, n_points=2000):
        coupling = gl.lambda1 / gl.lambda0
        if domain_radius is None:
            domain_radius = default_domain_radius(coupling, W)
        return cls(coupling=coupling, W=W, domain_radius=domain_radius, n_points=n_points)


def default_domain_radius(coupling: float, W: ExternalField) -> float:
    """20 well ranges, stretched for shallow wells whose bound state is long-tailed."""
    depth = abs(coupling * W.amplitude)
    return min(1e4, 20.0 * W.reach / min(1.0, math.sqrt(depth) if depth > 0 else 1.0))


@dataclass
class EffectiveGroundState:
    e0: float
    bound_state: bool
    refinement_delta: float
    eigenfunction: np.ndarray | None = None
    nodes: np.ndarray | None = None
    essential_bottom: float = 0.0


def _potential_on_axis(prob: EffectiveProblem, x: np.ndarray, h: float) -> np.ndarray:
    """coupling * W sampled on the grid; discontinuous wells are cell-averaged.

    Point-sampling a jump makes the eigenvalue error O(h) with an
    alignment-dependent constant; averaging W over each grid cell restores
    clean second-order convergence (and Richardson extrapolation with it).
    """
    if prob.W.family == "square_well_1d":
        a, amp = prob.W.range, prob.W.amplitude
        lo, hi = x - 0.5 * h, x + 0.5 * h
        overlap = np.clip(np.minimum(hi, a) - np.maximum(lo, -a), 0.0, None)
        return prob.coupling * amp * overlap / h
    coord = np.abs(x) if prob.W.dimensionality == "radial_3d" else x
    return prob.coupling * prob.W(coord)


def _dirichlet_lowest(u_pot: np.ndarray, h: float) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of -u'' + U u on the interior grid, Dirichlet ends."""
    # imported here: scipy.linalg costs ~0.3 s, and only dc/shift/verify get this far
    from scipy.linalg import eigh_tridiagonal

    diag = 2.0 / (h * h) + u_pot
    off = np.full(len(u_pot) - 1, -1.0 / (h * h))
    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
    return float(vals[0]), vecs[:, 0]


def _solve_at_resolution(prob: EffectiveProblem, n: int) -> tuple[float, np.ndarray, np.ndarray]:
    R = prob.domain_radius
    if prob.W.dimensionality == "radial_3d":
        # u = r psi reduces the s-wave problem to a Dirichlet line on (0, R)
        h = R / (n + 1)
        x = h * np.arange(1, n + 1)
    else:
        h = 2.0 * R / (n + 1)
        x = -R + h * np.arange(1, n + 1)
    ev, vec = _dirichlet_lowest(_potential_on_axis(prob, x, h), h)
    return ev, vec, x


def ground_energy(prob: EffectiveProblem, rel_tol: float = 1e-6) -> EffectiveGroundState:
    """Estimate inf spec by Dirichlet finite differences plus the continuum bottom.

    The reported energy is min(lowest box eigenvalue, b) where b is the
    boundary value of the potential (the bottom of the essential spectrum for
    decaying or constant fields).  The box eigenvalue is Richardson-
    extrapolated from two resolutions; resolution doubles until the observed
    n-to-2n change is below rel_tol.  A bound state whose mass reaches the
    box edge raises DomainTooSmall.
    """
    # + 0.0 turns the -0.0 of a negative coupling times a vanishing field into 0.0
    b = prob.coupling * prob.W.boundary_value(prob.domain_radius) + 0.0

    n = prob.n_points
    ev_n, _, _ = _solve_at_resolution(prob, n)
    for _ in range(7):
        ev_2n, vec, x = _solve_at_resolution(prob, 2 * n)
        delta = abs(ev_2n - ev_n)
        extrapolated = ev_2n + (ev_2n - ev_n) / 3.0  # second-order scheme
        if delta < rel_tol * max(1.0, abs(extrapolated)):
            break
        n *= 2
        ev_n = ev_2n
    else:
        raise ConvergenceError(
            f"ground energy not converged: last n-to-2n change {delta:.3e}"
        )

    bound = extrapolated < b - rel_tol * max(1.0, abs(b))
    if bound:
        mass = vec * vec
        edge = x > 0.9 * prob.domain_radius
        if prob.W.dimensionality == "one_d":
            edge |= x < -0.9 * prob.domain_radius
        leak = float(mass[edge].sum() / mass.sum())
        if leak > 1e-4:
            raise DomainTooSmall(
                f"bound state keeps {leak:.2e} of its mass near the box edge; "
                "enlarge domain_radius"
            )
    e0 = min(extrapolated, b)
    h_last = x[1] - x[0]
    grid_min = float(np.min(_potential_on_axis(prob, x, h_last)))
    if e0 < grid_min - 1e-9 * max(1.0, abs(grid_min)):
        raise ConvergenceError("ground energy fell below the potential minimum")
    return EffectiveGroundState(
        e0=float(e0),
        bound_state=bool(bound),
        refinement_delta=float(delta),
        eigenfunction=vec if bound else None,
        nodes=x if bound else None,
        essential_bottom=float(b),
    )


def compute_dc(gl: GlCoefficients, gs: EffectiveGroundState) -> float:
    """D_c = (lambda0 / lambda2) * e0; e0 already contains the lambda1/lambda0 coupling."""
    return (gl.lambda0 / gl.lambda2) * gs.e0


@dataclass
class TcShiftReport:
    D_c: float
    T_c: float
    rows: list = field(default_factory=list)  # (h, T_c_shifted) pairs
    warnings: list = field(default_factory=list)


def tc_of_h(gl: GlCoefficients, D_c: float, h_values) -> TcShiftReport:
    """Quadratic shift table: T_c(h) = T_c (1 - D_c h^2).

    Emits a warning row when |D_c| h^2 > 0.1, where the leading-order law
    has left its validity window, and flags non-positive shifted values.
    """
    report = TcShiftReport(D_c=D_c, T_c=gl.T_c)
    for h in h_values:
        shifted = gl.T_c * (1.0 - D_c * h * h)
        report.rows.append((float(h), float(shifted)))
        if abs(D_c) * h * h > 0.1:
            report.warnings.append(
                f"h={h:g}: |D_c| h^2 = {abs(D_c) * h * h:.3g} > 0.1; "
                "quadratic law outside its validity regime"
            )
        if shifted <= 0.0:
            report.warnings.append(f"h={h:g}: shifted critical temperature is non-positive")
    return report
