"""Ground energy of p^2 + g W on R^3 and the quadratic temperature-shift law.

The infimum of the spectrum feeds the shift coefficient
D_c = (lambda0/lambda2) * inf spec(p^2 + (lambda1/lambda0) W),
and the predicted critical temperature at field scale h is
T_c(h) = T_c (1 - D_c h^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainTooSmall
from .gl import GlCoefficients
from .model import ExternalField

__all__ = [
    "EffectiveProblem",
    "EffectiveGroundState",
    "LadderStats",
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
    n_points: int

    def __post_init__(self):
        if not math.isfinite(self.coupling):
            raise ValueError("coupling must be finite")
        if self.n_points < 100:
            raise ValueError("n_points must be >= 100")
        if self.domain_radius <= 0:
            raise ValueError("domain_radius must be positive")

    @classmethod
    def from_gl(cls, gl: GlCoefficients, W: ExternalField, domain_radius, n_points: int):
        """The problem at coupling lambda1/lambda0; ``domain_radius`` None takes the default."""
        coupling = gl.lambda1 / gl.lambda0
        if domain_radius is None:
            domain_radius = default_domain_radius(coupling, W)
        return cls(coupling=coupling, W=W, domain_radius=domain_radius, n_points=n_points)


def default_domain_radius(coupling: float, W: ExternalField) -> float:
    """20 well ranges, stretched for shallow wells whose bound state is long-tailed."""
    depth = abs(coupling * W.amplitude)
    return min(1e4, 20.0 * W.reach / min(1.0, math.sqrt(depth) if depth > 0 else 1.0))


@dataclass(frozen=True)
class LadderStats:
    """How ``ground_energy`` reached its answer; diagnostics for manifest.json only."""

    levels: int  # resolutions solved
    final_n: int  # interior nodes of the last one
    domain_radius: float
    max_residual: float  # largest accepted ||A v - ev v|| over the levels
    fallbacks: int  # levels, pre-level included, solved by bisection when not certified
    solves: int  # shifted tridiagonal solves, pre-level included


@dataclass
class EffectiveGroundState:
    e0: float
    bound_state: bool
    refinement_delta: float
    essential_bottom: float = 0.0
    ladder: LadderStats | None = None


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


# A level's eigenpair is accepted once ||A v - ev v|| <= RESIDUAL_C * eps * ||A||,
# and the same quantity pads the positive-definiteness certificate for the
# rounding of the residual and of the LDL^T factorization.
RESIDUAL_C = 16.0
MAX_SOLVES = 6  # shifted tridiagonal solves per level before the eigh_tridiagonal fallback
# The first ladder level starts from a pre-level of
# max(n_points // PRE_LEVEL_DIVISOR, PRE_LEVEL_MIN_NODES) nodes, the only solve
# that runs bisection; n_points >= 100 keeps it below the first level.
PRE_LEVEL_DIVISOR = 16
PRE_LEVEL_MIN_NODES = 64


def _dirichlet_lowest(
    u_pot: np.ndarray, h: float, guess: tuple[float, np.ndarray] | None = None
) -> tuple[float, np.ndarray, float, bool, int]:
    """Lowest eigenpair of A = -u'' + U u on the interior grid, Dirichlet ends.

    Inverse iteration from ``guess``, an approximate eigenvalue and vector
    (in ``ground_energy`` the coarser level's pair, interpolated; the first
    ladder level's coarser level is the small pre-level), taking the
    Rayleigh quotient as the next shift.  Without a guess the first shift is
    the bisection eigenvalue and the start vector is constant, since the
    ground state is positive.  The pair (ev, v) is accepted once
    r = ||A v - ev v|| is at most pad = RESIDUAL_C * eps * ||A|| and
    A - (ev - r - pad) I has an LDL^T factorization.  The residual puts an
    eigenvalue within r of ev and the factorization puts none below
    ev - r - pad, so ev is the lowest one to within r + pad.  If a shifted
    solve or the certificate fails, LAPACK bisection and inverse iteration
    solve the level instead.

    The guess vector is overwritten.  Returns (eigenvalue, unit eigenvector,
    residual r, whether it fell back, shifted solves made).
    """
    # imported here: scipy.linalg costs ~0.3 s, and only dc/shift/verify get this far
    from scipy.linalg import eigh_tridiagonal
    from scipy.linalg.lapack import dgtsv, dpttrf

    inv_h2 = 1.0 / (h * h)
    diag = 2.0 * inv_h2 + u_pot
    off = np.full(len(u_pot) - 1, -inv_h2)
    pad = RESIDUAL_C * np.finfo(float).eps * (float(np.max(np.abs(diag))) + 2.0 * inv_h2)

    def rayleigh(v):
        # difference form: the 2/h^2 of the diagonal never cancels against the off-diagonal
        dv = np.diff(v)
        return float((dv @ dv + v[0] * v[0] + v[-1] * v[-1]) * inv_h2 + u_pot @ (v * v))

    def residual(v, ev):
        res = (diag - ev) * v
        res[1:] -= inv_h2 * v[:-1]
        res[:-1] -= inv_h2 * v[1:]
        return float(np.linalg.norm(res))

    if guess is None:
        shift = float(
            eigh_tridiagonal(diag, off, select="i", select_range=(0, 0), eigvals_only=True)[0]
        )
        v = np.ones_like(u_pot)
    else:
        shift, v = guess
    for solves in range(1, MAX_SOLVES + 1):
        # the solve writes its result over v: the guess vector or the last iterate
        *_, v, info = dgtsv(off, diag - shift, off, v, overwrite_d=1, overwrite_b=1)
        scale = np.linalg.norm(v)
        if info != 0 or not math.isfinite(scale) or scale == 0.0:
            break
        v /= scale
        ev = rayleigh(v)
        r = residual(v, ev)
        if r <= pad:
            if dpttrf(diag - (ev - r - pad), off, overwrite_d=1)[2] == 0:
                return ev, v, r, False, solves
            break
        shift = ev

    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
    v = vecs[:, 0]
    ev = float(vals[0])
    return ev, v, residual(v, ev), True, solves


class _Level(NamedTuple):
    ev: float
    vec: np.ndarray
    residual: float
    fell_back: bool
    solves: int
    x: np.ndarray
    u_pot: np.ndarray  # coupling * W on x, as the level's matrix holds it


def _solve_at_resolution(prob: EffectiveProblem, n: int, coarse: _Level | None = None) -> _Level:
    """Lowest box eigenpair on n interior nodes, refined from a coarser level if given."""
    R = prob.domain_radius
    if prob.W.dimensionality == "radial_3d":
        # u = r psi reduces the s-wave problem to a Dirichlet line on (0, R)
        h = R / (n + 1)
        x = h * np.arange(1, n + 1)
    else:
        h = 2.0 * R / (n + 1)
        x = -R + h * np.arange(1, n + 1)
    guess = None if coarse is None else (coarse.ev, np.interp(x, coarse.x, coarse.vec))
    u_pot = _potential_on_axis(prob, x, h)
    return _Level(*_dirichlet_lowest(u_pot, h, guess), x=x, u_pot=u_pot)


def ground_energy(prob: EffectiveProblem, rel_tol: float = 1e-6) -> EffectiveGroundState:
    """Estimate inf spec by Dirichlet finite differences plus the continuum bottom.

    The reported energy is min(lowest box eigenvalue, b) where b, the bottom
    of the essential spectrum, is the lower limit of coupling * W at
    infinity.  The box eigenvalue is Richardson-extrapolated from two
    resolutions; resolution doubles from ``n_points`` until the observed
    n-to-2n change is below rel_tol.  Each level starts from the one before
    it, and the first from a pre-level of
    max(n_points // PRE_LEVEL_DIVISOR, PRE_LEVEL_MIN_NODES) nodes, the only
    solve that starts by bisection (see
    ``_dirichlet_lowest``); the pre-level counts in ``solves`` and
    ``fallbacks`` but is not one of the ``levels``.  A bound state whose
    mass reaches the box edge raises DomainTooSmall.
    """
    # + 0.0 turns the -0.0 of a negative coupling times a vanishing field into 0.0
    b = prob.W.boundary_value(prob.coupling) + 0.0

    n = prob.n_points
    pre = _solve_at_resolution(prob, max(n // PRE_LEVEL_DIVISOR, PRE_LEVEL_MIN_NODES))
    coarse = _solve_at_resolution(prob, n, pre)
    levels, max_residual = 1, coarse.residual
    fallbacks = int(pre.fell_back) + coarse.fell_back
    solves = pre.solves + coarse.solves
    for _ in range(7):
        fine = _solve_at_resolution(prob, 2 * n, coarse)
        levels += 1
        max_residual = max(max_residual, fine.residual)
        fallbacks += fine.fell_back
        solves += fine.solves
        delta = abs(fine.ev - coarse.ev)
        extrapolated = fine.ev + (fine.ev - coarse.ev) / 3.0  # second-order scheme
        if delta < rel_tol * max(1.0, abs(extrapolated)):
            break
        n *= 2
        coarse = fine
    else:
        raise ConvergenceError(
            f"ground energy not converged: last n-to-2n change {delta:.3e}"
        )
    vec, x = fine.vec, fine.x

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
    grid_min = float(np.min(fine.u_pot))
    if e0 < grid_min - 1e-9 * max(1.0, abs(grid_min)):
        raise ConvergenceError("ground energy fell below the potential minimum")
    return EffectiveGroundState(
        e0=float(e0),
        bound_state=bool(bound),
        refinement_delta=float(delta),
        essential_bottom=float(b),
        ladder=LadderStats(
            levels=levels,
            final_n=len(x),
            domain_radius=float(prob.domain_radius),
            max_residual=float(max_residual),
            fallbacks=fallbacks,
            solves=solves,
        ),
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
