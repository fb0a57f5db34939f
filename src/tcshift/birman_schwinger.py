"""Spectral solver for the sandwiched thermal operator sqrt(V) chi sqrt(V).

The operator is discretized as a similarity-weighted Nystrom matrix whose
eigenvalues approximate the operator spectrum in the s-wave sector.  Its
beta-independent factor is compressed once per interaction shape and grid
pair, and a V of another amplitude scales it.  The critical inverse
temperature is the root of lambda_max(beta) = 1, found by regula falsi in
ln beta with an Illinois-type end scaling and returned with a certified
bracket.
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
# The parametric V families have numerical rank 10-49 at n = 400 and mu in
# [0.5, 2.5] (square well, gaussian, exponential), so 32 columns
# hold a gaussian or square-well V and an exponential V restarts at 64.
RANGE_K0 = 32
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
    taken whole, Q = I and B = G, with residual 0.  Every attempt forms
    G - Q B in the same n_r x n_p work buffer.
    """
    n_r, n_p = G.shape
    rng = np.random.default_rng(0)
    tol = RANGE_RTOL * np.linalg.norm(G)
    work = np.empty_like(G)
    k = RANGE_K0
    while k < min(n_r, n_p):
        Q, _ = np.linalg.qr(G @ rng.standard_normal((n_p, k)))
        B = Q.T @ G
        np.subtract(G, np.matmul(Q, B, out=work), out=work)
        residual = float(np.linalg.norm(work))
        if residual <= tol:
            return Q, B, residual
        k *= 2
    return np.eye(n_r), G, 0.0


@dataclass(frozen=True)
class ShapeFactor:
    """The factor G1 of the unit-amplitude interaction on one grid pair, compressed.

    G1[i, a] = sqrt(shape(r_i)) r_i sqrt(w_i) j0(p_a r_i) sqrt((2/pi) w_a p_a^2)
    and G1 ~ Q B with residual ||G1 - Q B||_F; ``norm`` is ||G1||_F.
    """

    Q: np.ndarray
    B: np.ndarray
    residual: float
    norm: float


def _shape_columns(V, grids: GridPair) -> np.ndarray:
    r, wr = grids.rgrid.nodes, grids.rgrid.weights
    return np.sqrt(V.shape(r)) * r * np.sqrt(wr)


def _shape_matrix(d: np.ndarray, grids: GridPair) -> np.ndarray:
    """G1 from the radial weights ``d`` of ``_shape_columns``, built in one buffer."""
    p, wp = grids.pgrid.nodes, grids.pgrid.weights
    G = np.multiply(d[:, None], grids.j0)
    G *= np.sqrt((2.0 / math.pi) * wp * p * p)
    return G


def _shape_factor(V, grids: GridPair) -> ShapeFactor:
    """The compressed G1 of ``V``'s shape on ``grids``, compressed on first use only.

    ``grids.shape_factors`` keys it by the bytes of the radial weights
    sqrt(shape(r_i)) r_i sqrt(w_i), which fix G1 on the pair.
    """
    d = _shape_columns(V, grids)
    key = d.tobytes()
    with grids.lock:
        if key not in grids.shape_factors:
            G1 = _shape_matrix(d, grids)
            Q, B, residual = _compress(G1)
            grids.shape_factors[key] = ShapeFactor(Q, B, residual, float(np.linalg.norm(G1)))
        return grids.shape_factors[key]


def _shrink(f_new: float, f_old: float) -> float:
    """Factor for the f of an end kept twice in a row, the other end's f going from f_old to f_new.

    Anderson and Bjorck (BIT 13, 1973): 1 - f_new / f_old, or the Illinois
    rule's 1/2 (Dowell and Jarratt, BIT 11, 1971) when that is not positive.
    """
    m = 1.0 - f_new / f_old if f_old != 0.0 else 0.0
    return m if m > 0.0 else 0.5


class BsSolver:
    """Holds the beta-independent factor of the Nystrom matrix plus a beta cache.

    The matrix at inverse temperature beta is G diag(chi(p^2-mu)) G^T with
    G = sqrt(g) G1, where V = g * shape (``InteractionPotential.gain``) and
    G1 is the factor of the shape (``ShapeFactor``).  G1 is compressed to
    Q B1 once per shape and grid pair and shared by every solver on that
    pair, whatever its amplitude; this one uses B = sqrt(g) B1, so each beta
    costs a k x k eigenproblem of B diag(chi) B^T, whose eigenvalues are
    those of the rank-k matrix Q B diag(chi) B^T Q^T.  ``matrix`` keeps the
    uncompressed definition, rebuilding G from the pair's j0 table.
    """

    def __init__(self, model, grids: GridPair):
        self.model = model
        self.grids = grids
        shape = _shape_factor(model.V, grids)
        gain = math.sqrt(model.V.gain)
        self._Q, self._B = shape.Q, gain * shape.B
        self.rank = self._B.shape[0]
        self.residual = gain * shape.residual
        # Weyl: |lambda_j(matrix) - lambda_j(compressed)| <= ||chi||_inf * _weyl
        self._weyl = 2.0 * model.V.gain * shape.norm * shape.residual
        self._lambda_cache: dict[float, float] = {}

    def _factor(self) -> np.ndarray:
        G = _shape_matrix(_shape_columns(self.model.V, self.grids), self.grids)
        G *= math.sqrt(self.model.V.gain)
        return G

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
        """Root of lambda(beta) = 1 with a certified bracket of relative width <= ``rel_tol``.

        The hint is expanded geometrically (factor 4, up to [1e-6, 1e6])
        until lambda(lo) < 1 < lambda(hi).  The bracket then shrinks by
        regula falsi on f(x) = lambda(e^x) - 1 in x = ln beta, modified as in
        the Illinois rule so that both ends converge superlinearly: an end
        kept twice in a row has its f scaled down, by the Anderson-Bjorck
        factor (``_shrink``).  Each new point keeps a margin of rel_tol / 4
        from both ends and leans half a margin toward the kept end, so once
        the secant estimate is that accurate the point lands across the root
        and closes the bracket.  A point that is the root to within the
        compression bound and rounding is replaced by the two points a
        margin away on either side, so the signs at both ends hold on the
        uncompressed matrix too.  beta_c is the bracket's midpoint.
        Monotonicity of the evaluated lambda values is checked as they
        accumulate.  About 8 evaluations reach rel_tol = 1e-8 from the
        default hint, against about 33 for bisection.
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
            lo, hi = hi, min(hi * 4.0, BETA_MAX)
        while lam(lo) >= 1.0:
            if lo <= BETA_MIN:
                raise NoBracket(f"lambda({lo:g}) >= 1 already; beta_c below {BETA_MIN:g}")
            lo, hi = max(lo / 4.0, BETA_MIN), lo

        # a point with |lambda - 1| <= noise is a root to within the compression
        # (lambda_bound grows with beta) and rounding, so its sign certifies nothing
        noise = self.lambda_bound(hi) + 64.0 * np.finfo(float).eps
        margin = 0.25 * rel_tol
        x_lo, x_hi = math.log(lo), math.log(hi)
        f_lo, f_hi = self.lambda_of(lo) - 1.0, self.lambda_of(hi) - 1.0
        kept = None  # the end the last point did not replace
        while hi - lo > rel_tol * 0.5 * (hi + lo):
            # the secant root, moved half a margin toward the kept end so that it
            # lands across the root once the estimate is that close
            x = (x_lo * f_hi - x_hi * f_lo) / (f_hi - f_lo)
            x += {"lo": -0.5, "hi": 0.5, None: 0.0}[kept] * margin
            x = min(max(x, x_lo + margin), x_hi - margin)
            b = math.exp(x)
            if not lo < b < hi:  # the bracket is as narrow as floats allow
                break
            f = lam(b) - 1.0
            points = [(x, b, f)]
            if abs(f) <= noise:
                points = [(y, math.exp(y), lam(math.exp(y)) - 1.0) for y in (x - margin, x + margin)]
            for y, b, f in points:
                if f < 0.0:
                    if kept == "hi":
                        f_hi *= _shrink(f, f_lo)
                    x_lo, lo, f_lo, kept = y, b, f, "hi"
                else:
                    if kept == "lo":
                        f_lo *= _shrink(f, f_hi)
                    x_hi, hi, f_hi, kept = y, b, f, "lo"

        evaluated.sort()
        lams = np.array([v for _, v in evaluated])
        drops = np.diff(lams) < -1e-10 * np.maximum(1.0, lams[:-1])
        if np.any(drops):
            raise NonMonotone(
                "lambda(beta) decreased across the evaluated points; refine the grids"
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
