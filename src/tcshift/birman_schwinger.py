"""Spectral solver for the sandwiched thermal operator sqrt(V) chi sqrt(V).

The operator is discretized as a similarity-weighted Nystrom matrix whose
eigenvalues approximate the operator spectrum in the s-wave sector; the
critical inverse temperature is the bisection root of lambda_max(beta) = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AssumptionViolation, NoBracket, NonMonotone
from .grids import GridPair, RadialFunction, RadialGrid, chi_multiplier_values, sandwich

__all__ = [
    "SpectralTop",
    "CriticalTemperature",
    "PairState",
    "BsSolver",
    "sup_spec_zero_temperature",
]

BETA_MAX = 1e6
BETA_MIN = 1e-6

# Randomized range finder for the factor G (Halko, Martinsson, Tropp, SIAM
# Review 53, 2011): start with RANGE_K0 Gaussian test columns, accept when
# ||G - Q Q^T G||_F <= RANGE_RTOL ||G||_F, otherwise double the columns.
RANGE_K0 = 64
RANGE_RTOL = 1e-13


@dataclass
class SpectralTop:
    lambda1: float
    lambda2: float
    vector1: RadialFunction
    eigenvalues: np.ndarray

    @property
    def gap(self) -> float:
        return self.lambda1 - self.lambda2


@dataclass(frozen=True)
class CriticalTemperature:
    beta_c: float
    bracket: tuple
    tolerance: float
    T_c: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "T_c", 1.0 / self.beta_c)


@dataclass
class PairState:
    """Leading eigenfunction at the critical temperature, real and radial."""

    phi_star: RadialFunction
    v_half_phi: RadialFunction


def _measure_weights(rgrid: RadialGrid) -> np.ndarray:
    """s_i = r_i sqrt(4 pi w_i): maps function samples to unit-norm coordinates."""
    return rgrid.nodes * np.sqrt(4.0 * math.pi * rgrid.weights)


def _compress(G: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Q with orthonormal columns, B = Q^T G and the residual ||G - Q B||_F.

    The number of test columns doubles from RANGE_K0 until the residual is
    within RANGE_RTOL ||G||_F; once it reaches min(n_r, n_p) the range is
    taken whole, Q = I and B = G, with residual 0.
    """
    n_r, n_p = G.shape
    rng = np.random.default_rng(0)
    tol = RANGE_RTOL * np.linalg.norm(G)
    k = RANGE_K0
    while k < min(n_r, n_p):
        Q, _ = np.linalg.qr(G @ rng.standard_normal((n_p, k)))
        B = Q.T @ G
        residual = float(np.linalg.norm(G - Q @ B))
        if residual <= tol:
            return Q, B, residual
        k *= 2
    return np.eye(n_r), G, 0.0


class BsSolver:
    """Holds the beta-independent factor of the Nystrom matrix plus a beta cache.

    The matrix at inverse temperature beta is G diag(chi(p^2-mu)) G^T where
    G[i, a] = sqrt(V(r_i)) r_i sqrt(w_i) j0(p_a r_i) sqrt((2/pi) w_a p_a^2).
    G is compressed once to Q B (Q orthonormal n_r x k, B = Q^T G), so each
    beta costs a k x k eigenproblem of B diag(chi) B^T, whose eigenvalues
    are those of the rank-k matrix Q B diag(chi) B^T Q^T.  ``matrix`` keeps
    the uncompressed definition, rebuilding G from the pair's j0 table.
    """

    def __init__(self, model, grids: GridPair):
        self.model = model
        self.grids = grids
        G = self._factor()
        self._Q, self._B, self.residual = _compress(G)
        self.rank = self._B.shape[0]
        # Weyl: |lambda_j(matrix) - lambda_j(compressed)| <= ||chi||_inf * _weyl
        self._weyl = 2.0 * float(np.linalg.norm(G)) * self.residual
        self._lambda_cache: dict[float, float] = {}

    def _factor(self) -> np.ndarray:
        r, wr = self.grids.rgrid.nodes, self.grids.rgrid.weights
        p, wp = self.grids.pgrid.nodes, self.grids.pgrid.weights
        d = np.sqrt(self.model.V(r)) * r * np.sqrt(wr)
        return d[:, None] * self.grids.j0 * np.sqrt((2.0 / math.pi) * wp * p * p)[None, :]

    def _chi(self, beta_or_inf: float) -> np.ndarray:
        return chi_multiplier_values(beta_or_inf, self.model.mu, self.grids.pgrid)

    def matrix(self, beta_or_inf: float) -> np.ndarray:
        return sandwich(self._factor(), self._chi(beta_or_inf))

    def _reduced(self, beta_or_inf: float) -> np.ndarray:
        """The k x k matrix B diag(chi) B^T."""
        return sandwich(self._B, self._chi(beta_or_inf))

    def lambda_bound(self, beta_or_inf: float) -> float:
        """Bound on |eigvalsh(matrix(beta))[-1] - lambda_of(beta)| from the compression."""
        return float(np.max(np.abs(self._chi(beta_or_inf)))) * self._weyl

    def top(self, beta_or_inf: float, m: int = 2) -> SpectralTop:
        """Top m eigenvalues and the leading eigenvector, de-weighted to function samples.

        The eigenvector sign is fixed so that 4 pi int phi r^2 dr >= 0.
        """
        if m < 2:
            raise ValueError("m must be >= 2")
        vals, vecs = np.linalg.eigh(self._reduced(beta_or_inf))
        top_vals = vals[::-1][:m].copy()
        rgrid = self.grids.rgrid
        u = self._Q @ vecs[:, -1]
        phi = u / _measure_weights(rgrid)
        r, w = rgrid.nodes, rgrid.weights
        if 4.0 * math.pi * np.sum(w * r * r * phi) < 0.0:
            phi = -phi
        norm = math.sqrt(4.0 * math.pi * np.sum(w * r * r * phi * phi))
        return SpectralTop(
            lambda1=float(top_vals[0]),
            lambda2=float(top_vals[1]),
            vector1=RadialFunction(grid=rgrid, values=phi / norm),
            eigenvalues=top_vals,
        )

    def lambda_of(self, beta_or_inf: float) -> float:
        lam = self._lambda_cache.get(beta_or_inf)
        if lam is None:
            lam = float(np.linalg.eigvalsh(self._reduced(beta_or_inf))[-1])
            self._lambda_cache[beta_or_inf] = lam
        return lam

    def solve_beta_c(self, bracket_hint: tuple, rel_tol: float) -> CriticalTemperature:
        """Bisect lambda(beta) = 1 with a certified bracket.

        The hint is expanded geometrically (factor 4, up to [1e-6, 1e6])
        until lambda(lo) < 1 < lambda(hi); monotonicity of the evaluated
        lambda values is checked as they accumulate.
        """
        lo, hi = float(bracket_hint[0]), float(bracket_hint[1])
        evaluated: list[tuple[float, float]] = []

        def lam(b: float) -> float:
            val = self.lambda_of(b)
            evaluated.append((b, val))
            return val

        while lam(hi) <= 1.0:
            if hi >= BETA_MAX:
                raise NoBracket(
                    f"lambda({hi:g}) = {self.lambda_of(hi):.6g} <= 1: T_c lies below "
                    f"1/BETA_MAX = {1.0 / BETA_MAX:g}, the low end of the search range"
                )
            hi = min(hi * 4.0, BETA_MAX)
        while lam(lo) >= 1.0:
            if lo <= BETA_MIN:
                raise NoBracket(f"lambda({lo:g}) >= 1 already; beta_c below {BETA_MIN:g}")
            lo = max(lo / 4.0, BETA_MIN)

        while hi - lo > rel_tol * 0.5 * (hi + lo):
            mid = 0.5 * (lo + hi)
            if lam(mid) < 1.0:
                lo = mid
            else:
                hi = mid

        evaluated.sort()
        lams = np.array([v for _, v in evaluated])
        drops = np.diff(lams) < -1e-10 * np.maximum(1.0, lams[:-1])
        if np.any(drops):
            raise NonMonotone(
                "lambda(beta) decreased across bisection points; refine the grids"
            )
        return CriticalTemperature(beta_c=0.5 * (lo + hi), bracket=(lo, hi), tolerance=rel_tol)

    def extract_pair_state(
        self, tc: CriticalTemperature, gap_tol: float
    ) -> tuple[PairState, SpectralTop]:
        top = self.top(tc.beta_c, m=2)
        if top.gap < gap_tol:
            raise AssumptionViolation(
                f"leading eigenvalue nearly degenerate (gap {top.gap:.3e} < {gap_tol:g}); "
                "simplicity of the pair state cannot be certified"
            )
        phi = top.vector1
        v_half = RadialFunction(
            grid=phi.grid, values=np.sqrt(self.model.V(phi.grid.nodes)) * phi.values
        )
        return PairState(phi_star=phi, v_half_phi=v_half), top


def sup_spec_zero_temperature(solver: BsSolver) -> float:
    """Top eigenvalue of the zero-temperature operator sqrt(V) (p^2 - mu)^{-1} sqrt(V).

    Read off ``solver`` at beta = inf, which ``chi_multiplier_values`` allows
    for mu <= 0 only; for mu > 0 the operator is unbounded.
    """
    return solver.lambda_of(math.inf)
