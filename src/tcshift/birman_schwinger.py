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

import functools
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import AssumptionViolation, GridError, NoBracket, NonMonotone
from .grids import (
    GridPair,
    RadialFunction,
    RadialGrid,
    chi_multiplier_values,
    row_blocks,
    sandwich,
)

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


def _standard_normal(rng: random.Random, shape: tuple[int, int]) -> np.ndarray:
    """Standard normal draws by Box-Muller from ``rng``'s bytes, without numpy.random.

    Each 64-bit word gives a uniform on (0, 1) from its top 53 bits; one pair
    of uniforms gives two normals, cos and sin of the same angle.
    """
    count = shape[0] * shape[1]
    half = (count + 1) // 2
    words = np.frombuffer(rng.randbytes(16 * half), dtype="<u8") >> np.uint64(11)
    u = (words + 0.5) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u[:half]))
    angle = (2.0 * math.pi) * u[half:]
    z = np.concatenate((radius * np.cos(angle), radius * np.sin(angle)))
    return z[:count].reshape(shape)


def _g1_rows(d: np.ndarray, e: np.ndarray, j0: np.ndarray, rows=slice(None)) -> np.ndarray:
    """Rows ``rows`` of G1 = diag(d) j0 diag(e), built in one buffer."""
    G = np.multiply(d[rows, None], j0[rows])
    G *= e
    return G


@functools.lru_cache(maxsize=8)
def _test_matrix(n_p: int, k: int) -> np.ndarray:
    """The n_p x k Gaussian test matrix of ``_compress``, drawn from ``random.Random(0)``
    once per process; the cached array is shared, so it is read-only.
    """
    omega = _standard_normal(random.Random(0), (n_p, k))
    omega.flags.writeable = False
    return omega


def _support(d: np.ndarray) -> int:
    """The smallest row count n_S with ||d[n_S:]||_2 <= eps ||d||_2, at least two rows.

    Rows past it hold V below rounding of its weight; two rows keep a second
    eigenvalue in the compressed problem.
    """
    tail = np.sqrt(np.cumsum(np.square(d[::-1])))[::-1]  # tail[i] = ||d[i:]||_2
    kept = int(np.count_nonzero(tail > np.finfo(float).eps * tail[0]))
    return min(max(kept, 2), len(d))


def _compress(d: np.ndarray, e: np.ndarray, j0: np.ndarray):
    """Q with orthonormal columns, B = Q^T G, a bound on ||G - Q B||_F and one on ||G||_F,
    for G = diag(d) j0 diag(e).

    The range finder runs on V's numerical support, the first n_S rows
    (``_support``).  Since |j0| <= 1 the rows it drops have
    ||G[n_S:]||_F <= ||d[n_S:]||_2 ||e||_2, so that bound is added in
    quadrature to both norms of the support rows, and the acceptance test and
    the Weyl bound stay rigorous.  Q has zero rows from n_S on.  The number of
    test columns doubles from RANGE_K0 until the residual is within
    RANGE_RTOL ||G||_F; once it reaches min(n_S, n_p) the range is taken
    whole, Q = I on the support and B = G[:n_S], exact when d is zero past
    n_S.  Otherwise G is never formed: the sketch G Omega is
    d * (j0 (e * Omega)), Q^T G is ((d * Q)^T j0) * e, and both norms are
    summed over the same row blocks of G in one pass.
    """
    n_r, n_p = j0.shape
    n_s = _support(d)
    dropped = float(np.linalg.norm(d[n_s:])) * float(np.linalg.norm(e))
    d, j0 = d[:n_s], j0[:n_s]

    def frobenius(Q=None, B=None) -> tuple[float, float]:
        """Bounds on ||G - Q B||_F (on the dropped rows only without Q and B) and ||G||_F."""
        residual = norm = 0.0
        for rows in row_blocks(n_s):
            G = _g1_rows(d, e, j0, rows).ravel()
            norm += float(G @ G)
            if Q is not None:
                G -= (Q[rows] @ B).ravel()
                residual += float(G @ G)
        return math.hypot(math.sqrt(residual), dropped), math.hypot(math.sqrt(norm), dropped)

    k = RANGE_K0
    while k < min(n_s, n_p):
        Q, _ = np.linalg.qr(d[:, None] * (j0 @ (e[:, None] * _test_matrix(n_p, k))))
        B = (d[:, None] * Q).T @ j0
        B *= e
        residual, norm = frobenius(Q, B)
        if residual <= RANGE_RTOL * norm:
            return np.vstack((Q, np.zeros((n_r - n_s, k)))), B, residual, norm
        k *= 2
    return np.eye(n_r, n_s), _g1_rows(d, e, j0), *frobenius()


@dataclass(frozen=True)
class ShapeFactor:
    """The factor G1 of the unit-amplitude interaction on one grid pair, compressed.

    G1[i, a] = sqrt(shape(r_i)) r_i sqrt(w_i) j0(p_a r_i) sqrt((2/pi) w_a p_a^2)
    and G1 ~ Q B; ``residual`` and ``norm`` bound ||G1 - Q B||_F and ||G1||_F
    from above (see ``_compress``).
    """

    Q: np.ndarray
    B: np.ndarray
    residual: float
    norm: float


def _shape_columns(V, grids: GridPair) -> np.ndarray:
    r, wr = grids.rgrid.nodes, grids.rgrid.weights
    return np.sqrt(V.shape(r)) * r * np.sqrt(wr)


def _momentum_columns(grids: GridPair) -> np.ndarray:
    p, wp = grids.pgrid.nodes, grids.pgrid.weights
    with np.errstate(over="ignore"):
        e = np.sqrt((2.0 / math.pi) * wp * p * p)
    if not np.all(np.isfinite(e)):
        raise GridError(f"the momentum measure (2/pi) w p^2 overflows at p_max = {grids.pgrid.r_max:g}")
    return e


def _shape_factor(V, grids: GridPair) -> ShapeFactor:
    """The compressed G1 of ``V``'s shape on ``grids``, compressed on first use only.

    ``grids.shape_factors`` keys it by the bytes of the radial weights
    sqrt(shape(r_i)) r_i sqrt(w_i), which fix G1 on the pair.
    """
    d = _shape_columns(V, grids)
    key = d.tobytes()
    with grids.lock:
        if key not in grids.shape_factors:
            compressed = _compress(d, _momentum_columns(grids), grids.j0)
            grids.shape_factors[key] = ShapeFactor(*compressed)
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
    those of the rank-k matrix Q B diag(chi) B^T Q^T.
    """

    def __init__(self, model, grids: GridPair):
        self.model = model
        self.grids = grids
        shape = _shape_factor(model.V, grids)
        gain = math.sqrt(model.V.gain)
        self._Q, self._B = shape.Q, gain * shape.B
        self.rank = self._B.shape[0]
        self.residual = gain * shape.residual
        # Weyl: |lambda_j(uncompressed) - lambda_j(compressed)| <= ||chi||_inf * _weyl
        self._weyl = 2.0 * model.V.gain * shape.norm * shape.residual
        self._lambda_cache: dict[float, float] = {}

    def _chi(self, beta_or_inf: float) -> np.ndarray:
        return chi_multiplier_values(beta_or_inf, self.model.mu, self.grids.pgrid)

    def reduced(self, beta_or_inf: float) -> np.ndarray:
        """The k x k matrix B diag(chi) B^T that ``lambda_of`` and ``top`` diagonalize."""
        return sandwich(self._B, self._chi(beta_or_inf))

    def lambda_bound(self, beta_or_inf: float) -> float:
        """Bound on |lambda_max(G diag(chi) G^T) - lambda_of(beta)| from the compression."""
        return float(np.max(np.abs(self._chi(beta_or_inf)))) * self._weyl

    def top(self, beta_or_inf: float) -> SpectralTop:
        """Top two eigenvalues and the leading eigenvector, de-weighted to function samples.

        The eigenvector sign is fixed so that 4 pi int phi r^2 dr >= 0.
        """
        vals, vecs = np.linalg.eigh(self.reduced(beta_or_inf))
        rgrid = self.grids.rgrid
        u = self._Q @ vecs[:, -1]
        phi = u / _measure_weights(rgrid)
        r, w = rgrid.nodes, rgrid.weights
        if 4.0 * math.pi * np.sum(w * r * r * phi) < 0.0:
            phi = -phi
        norm = math.sqrt(4.0 * math.pi * np.sum(w * r * r * phi * phi))
        return SpectralTop(
            lambda1=float(vals[-1]),
            lambda2=float(vals[-2]),
            vector1=RadialFunction(grid=rgrid, values=phi / norm),
        )

    def lambda_of(self, beta_or_inf: float) -> float:
        lam = self._lambda_cache.get(beta_or_inf)
        if lam is None:
            lam = float(np.linalg.eigvalsh(self.reduced(beta_or_inf))[-1])
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
        top = self.top(tc.beta_c)
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
