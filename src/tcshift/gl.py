"""Macroscopic coefficients of the pairing model at the critical temperature.

From the pair state at beta_c this module builds the normalized momentum
profile t(p), the three coefficients (kinetic, field-coupling, thermal) that
govern the quadratic response of the critical temperature, the trial-state
quadratic functionals used to cross-check them, and the overlap diagnostic
R(p) with its certified minorant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .birman_schwinger import CriticalTemperature, PairState
from .errors import PositivityViolation, ZeroNormError
from .grids import GridPair, RadialFunction, RadialGrid, ft3_radial, row_blocks, spherical_j0
from .kernels import chi, g0, g1, g2

__all__ = [
    "TProfile",
    "GlCoefficients",
    "AFunctionals",
    "compute_t",
    "compute_lambdas",
    "a_functionals",
    "tau_hat_from_t",
    "r_of_p",
    "small_p_overlap_coefficient",
    "TAU_HAT_FACTOR",
]

# trial-profile normalization: tau_hat = (1/2) (2 pi)^{-3/2} t
TAU_HAT_FACTOR = 0.5 * (2.0 * math.pi) ** -1.5


@dataclass
class TProfile:
    """Normalized momentum profile t(p) = 2 w_hat(p) / N of the pair state.

    N is the L2 norm of the chi-multiplied half-sandwiched state; the overall
    scale of t is a fixed convention, and only ratios of the coefficients
    built from |t|^2 are scale-free observables.
    """

    pgrid: RadialGrid
    values: np.ndarray
    normalization_N: float


@dataclass
class GlCoefficients:
    beta_c: float
    T_c: float
    lambda0: float
    lambda1: float
    lambda2: float
    gap: float

    def __post_init__(self):
        if self.lambda0 <= 0.0 or self.lambda2 <= 0.0:
            raise PositivityViolation(
                f"lambda0 = {self.lambda0:.6g}, lambda2 = {self.lambda2:.6g}: "
                "both must be positive; the discretization failed"
            )


@dataclass
class AFunctionals:
    a0: float
    a1: float
    a2: float


def compute_t(pair: PairState, tc: CriticalTemperature, model, grids: GridPair) -> TProfile:
    """Momentum profile of the half-sandwiched pair state, fixed normalization.

    t(p) = 2 w_hat(p) / N with w = sqrt(V) phi* and
    N^2 = 4 pi int chi_{beta_c}(p^2-mu)^2 |w_hat(p)|^2 p^2 dp.
    """
    w_hat = ft3_radial(pair.v_half_phi, grids)
    p, wp = w_hat.grid.nodes, w_hat.grid.weights
    c = chi(tc.beta_c, p * p - model.mu)
    n_sq = 4.0 * math.pi * np.sum(wp * p * p * (c * w_hat.values) ** 2)
    if n_sq <= 0.0 or not math.isfinite(n_sq):
        raise ZeroNormError("half-sandwiched pair state has zero norm; V phi* vanished")
    N = math.sqrt(n_sq)
    return TProfile(pgrid=w_hat.grid, values=2.0 * w_hat.values / N, normalization_N=N)


def compute_lambdas(
    t: TProfile, tc: CriticalTemperature, mu: float, gap: float
) -> GlCoefficients:
    """The three macroscopic coefficients as radial momentum integrals of |t|^2.

    lambda0 = (b^2/16) (1/2pi^2) int p^2 |t|^2 (g1 + (2/3) b p^2 g2) dp
    lambda1 = (b^2/4)  (1/2pi^2) int p^2 |t|^2 g1 dp
    lambda2 = (b/8)    (1/2pi^2) int p^2 |t|^2 sech^2(b(p^2-mu)/2) dp
    with b = beta_c and all g-arguments b(p^2-mu).  lambda0 and lambda2 are
    positive for every admissible model; violation is a discretization error.
    """
    b = tc.beta_c
    p, wp = t.pgrid.nodes, t.pgrid.weights
    z = b * (p * p - mu)
    t2 = t.values * t.values
    meas = wp * p * p * t2 / (2.0 * math.pi**2)
    lam0 = (b * b / 16.0) * np.sum(meas * (g1(z) + (2.0 / 3.0) * b * p * p * g2(z)))
    lam1 = (b * b / 4.0) * np.sum(meas * g1(z))
    lam2 = (b / 8.0) * np.sum(meas / np.cosh(np.clip(0.5 * z, -350.0, 350.0)) ** 2)
    return GlCoefficients(
        beta_c=b,
        T_c=tc.T_c,
        lambda0=float(lam0),
        lambda1=float(lam1),
        lambda2=float(lam2),
        gap=gap,
    )


def a_functionals(tau_hat: RadialFunction, T: float, mu: float) -> AFunctionals:
    """Quadratic functionals of a radial momentum profile at temperature T.

    a0 = b int d^3p |tau|^2 g0(b(p^2-mu))                 (the chi quadratic form)
    a1 = -(b^2/4) int d^3p |tau|^2 (g1 + (2/3) b p^2 g2)
    a2 = -b^2 int d^3p |tau|^2 g1
    with b = 1/T.  At T = T_c with tau_hat built from t these reproduce the
    macroscopic coefficients: a1 = -lambda0 and a2 = -lambda1, and the
    T-derivative of a0 equals -lambda2/T_c.
    """
    if T <= 0.0:
        raise ValueError("T must be positive")
    b = 1.0 / T
    grid = tau_hat.grid
    p, wp = grid.nodes, grid.weights
    z = b * (p * p - mu)
    meas = 4.0 * math.pi * wp * p * p * tau_hat.values**2
    a0 = b * np.sum(meas * g0(z))
    a1 = -(b * b / 4.0) * np.sum(meas * (g1(z) + (2.0 / 3.0) * b * p * p * g2(z)))
    a2 = -(b * b) * np.sum(meas * g1(z))
    return AFunctionals(a0=float(a0), a1=float(a1), a2=float(a2))


def tau_hat_from_t(t: TProfile) -> RadialFunction:
    """The canonical trial profile tau_hat = (1/2)(2 pi)^{-3/2} t."""
    return RadialFunction(grid=t.pgrid, values=TAU_HAT_FACTOR * t.values)


def r_of_p(pair: PairState, p) -> np.ndarray:
    """Angular-averaged overlap R(p) in [0, 1] of the pair state with itself.

    For a radial state the direction average of cos^2(p.r/2) is
    (1 + j0(p r)) / 2, so R(p) = 4 pi int |phi*|^2 (1 + j0(p r))/2 r^2 dr.
    R(0) = 1 by normalization and 1 - R -> 1/2 as p -> infinity.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    grid = pair.phi_star.grid
    r, w = grid.nodes, grid.weights
    dens = 4.0 * math.pi * w * r * r * pair.phi_star.values**2
    out = np.empty_like(p)
    for rows in row_blocks(len(p)):  # (1 + j0)/2 in place, a block of momenta at a time
        weight = spherical_j0(np.outer(p[rows], r))
        weight += 1.0
        weight *= 0.5
        out[rows] = weight @ dens
    return out if out.shape != (1,) else float(out[0])


def small_p_overlap_coefficient(pair: PairState) -> float:
    """lim_{p->0} (1 - R(p)) / p^2 = (1/12) 4 pi int |phi*|^2 r^4 dr."""
    grid = pair.phi_star.grid
    r, w = grid.nodes, grid.weights
    return float(4.0 * math.pi * np.sum(w * r**4 * pair.phi_star.values**2) / 12.0)
