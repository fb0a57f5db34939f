"""Ground energy of p^2 + g W on R^3 and the quadratic temperature-shift law.

The infimum of the spectrum feeds the shift coefficient
D_c = (lambda0/lambda2) * inf spec(p^2 + (lambda1/lambda0) W),
and the predicted critical temperature at field scale h is
T_c(h) = T_c (1 - D_c h^2).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ConvergenceError, DomainTooSmall
from .gl import GlCoefficients
from .model import ExternalField

__all__ = [
    "EffectiveProblem",
    "EffectiveGroundState",
    "LadderStats",
    "TcShiftReport",
    "ground_energy",
    "ladder_ground_energy",
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
            raise ConfigError("coupling must be finite")
        if self.n_points < 100:
            raise ConfigError("n_points must be >= 100")
        if not self.domain_radius > 0:
            raise ConfigError(f"domain_radius must be positive, not {self.domain_radius!r}")

    @classmethod
    def from_gl(cls, gl: GlCoefficients, W: ExternalField, domain_radius, n_points: int):
        """The problem at coupling lambda1/lambda0; ``domain_radius`` None takes the default."""
        coupling = gl.lambda1 / gl.lambda0
        if domain_radius is None:
            domain_radius = default_domain_radius(coupling, W)
        return cls(coupling=coupling, W=W, domain_radius=domain_radius, n_points=n_points)

    @property
    def essential_bottom(self) -> float:
        """b, the lower limit of coupling * W at infinity: the bottom of the essential spectrum."""
        # + 0.0 turns the -0.0 of a negative coupling times a vanishing field into 0.0
        return self.W.boundary_value(self.coupling) + 0.0


def default_domain_radius(coupling: float, W: ExternalField) -> float:
    """20 well ranges, stretched for shallow wells whose bound state is long-tailed.

    The depth is that of coupling * W below its value at infinity, which a
    table takes from its node values.
    """
    depth = W.boundary_value(coupling) - W.infimum(coupling)
    return min(1e4, 20.0 * W.reach / min(1.0, math.sqrt(depth) if depth > 0 else 1.0))


@dataclass(frozen=True)
class LadderStats:
    """How ``ground_energy`` reached its answer; diagnostics for manifest.json only.

    ``certificate`` is ``ladder`` when the finite-difference ladder ran, or
    the rule that proved no bound state exists (``above_bottom`` or
    ``bargmann``, see ``ground_energy``); a certified answer solves nothing,
    so its counts and ``final_n`` are 0.
    """

    levels: int  # resolutions solved
    final_n: int  # interior nodes of the last one
    domain_radius: float
    max_residual: float  # largest accepted ||A v - ev v|| over the levels
    fallbacks: int  # levels, pre-level included, solved by bisection when not certified
    solves: int  # shifted tridiagonal solves, pre-level included
    certificate: str = "ladder"
    bargmann_integral: float | None = None  # the bound the bargmann certificate met


@dataclass
class EffectiveGroundState:
    e0: float
    bound_state: bool
    refinement_delta: float
    essential_bottom: float = 0.0
    ladder: LadderStats | None = None


def _folds(W: ExternalField, n: int) -> bool:
    """Whether the n-node level is solved on the half line x > 0 only.

    An even one_d field makes the level's matrix persymmetric, so its
    positive ground state is even.  With n = 2m the centre falls midway
    between two nodes, and v_0 = v_1 for the half line's nodes
    x_k = (k - 1/2) h, k = 1..m, makes the centre a mirror end.  An odd n
    puts a node at x = 0 and stays on the full line, as does a table, which
    may be asymmetric; radial_3d is a half line already.
    """
    return W.dimensionality == "one_d" and W.family != "tabulated_1d" and n % 2 == 0


def _axis(prob: EffectiveProblem, n: int) -> tuple[float, np.ndarray]:
    """Spacing and nodes of the n-node level; a folded level holds only x > 0."""
    R = prob.domain_radius
    if prob.W.dimensionality == "radial_3d":
        # u = r psi reduces the s-wave problem to a Dirichlet line on (0, R)
        h, first, count, origin = R / (n + 1), 1.0, n, 0.0
    elif _folds(prob.W, n):
        h, first, count, origin = 2.0 * R / (n + 1), 0.5, n // 2, 0.0
    else:
        h, first, count, origin = 2.0 * R / (n + 1), 1.0, n, -R
    x = np.arange(first, first + count)
    x *= h
    x += origin
    return h, x


def _potential_on_axis(prob: EffectiveProblem, x: np.ndarray, h: float) -> np.ndarray:
    """coupling * W sampled on the grid; discontinuous wells are cell-averaged.

    Point-sampling a jump makes the eigenvalue error O(h) with an
    alignment-dependent constant; averaging W over each grid cell restores
    clean second-order convergence (and Richardson extrapolation with it).
    Radial nodes are positive, so W reads them as radii.
    """
    if prob.W.family == "square_well_1d":
        a = prob.W.range
        overlap = x + 0.5 * h
        np.minimum(overlap, a, out=overlap)
        lo = x - 0.5 * h
        np.maximum(lo, -a, out=lo)
        overlap -= lo
        np.maximum(overlap, 0.0, out=overlap)
        overlap *= prob.coupling * prob.W.amplitude
        overlap /= h
        return overlap
    u_pot = prob.W(x)
    u_pot *= prob.coupling
    return u_pot


# A level's eigenpair is accepted once ||A v - ev v|| <= RESIDUAL_C * eps * ||A||,
# and the same quantity pads the positive-definiteness certificate for the
# rounding of the residual and of the LDL^T factorization.
RESIDUAL_C = 16.0
# The ladder stops once a level's n-to-2n change is below REL_TOL * max(1, |e0|),
# and reports a bound state only when e0 lies that far below the continuum bottom.
REL_TOL = 1e-6
MAX_SOLVES = 6  # shifted tridiagonal solves per level before the bisection fallback
# The first ladder level starts from a pre-level of
# max(n_points // PRE_LEVEL_DIVISOR, PRE_LEVEL_MIN_NODES) nodes, the only solve
# that runs bisection; n_points >= 100 keeps it below the first level.
PRE_LEVEL_DIVISOR = 16
PRE_LEVEL_MIN_NODES = 64


@functools.cache
def _lapack():
    """scipy's compiled LAPACK module, loaded without running scipy.linalg's __init__.

    Importing scipy.linalg costs about 0.27 s and 20 MB, nearly all of it
    array-API machinery that pulls in numpy.testing and numpy.f2py; the
    extension alone loads in a few ms.  On POSIX the scipy package is only
    located, not imported, which saves its start-up (about 20 ms and 1.3 MB);
    on Windows it is imported, since its start-up sets the DLL search path.
    CPython keeps one copy of an extension's objects, so a later
    ``import scipy.linalg`` exports these very routines.
    """
    import importlib.machinery
    import importlib.util
    import os

    if os.name == "nt":
        import scipy

        root = scipy.__path__[0]
    else:
        package = importlib.util.find_spec("scipy")
        if package is None:
            raise ImportError("scipy is not installed", name="scipy")
        root = package.submodule_search_locations[0]

    name = "scipy.linalg._flapack"
    finder = importlib.machinery.FileFinder(
        os.path.join(root, "linalg"),
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
    )
    spec = finder.find_spec(name)
    if spec is None:
        raise ImportError(f"{name} not found under {root}", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bisect_lowest(d: np.ndarray, e: np.ndarray, vector: bool = False):
    """Lowest eigenvalue of the symmetric tridiagonal (d, e) by LAPACK bisection.

    With ``vector`` it returns (eigenvalue, unit eigenvector) by inverse
    iteration.  These are the calls
    ``scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(0, 0))``
    makes, so the results are bit-identical to it.  d and e are only read.
    """
    lapack = _lapack()
    # range 2 selects eigenvalues il..iu = 1..1 by index (vl, vu unused); tol 0 is LAPACK's
    # default; vectors need block order "B"
    order = "B" if vector else "E"
    m, w, iblock, isplit, info = lapack.dstebz(d, e, 2, 0.0, 1.0, 1, 1, 0.0, order)
    if info != 0:
        raise np.linalg.LinAlgError(f"dstebz failed: info = {info}")
    if not vector:
        return float(w[0])
    z, info = lapack.dstein(d, e, w[:m], iblock, isplit)
    if info != 0:
        raise np.linalg.LinAlgError(f"dstein failed: info = {info}")
    return float(w[0]), z[:, 0]


def _dirichlet_lowest(
    u_pot: np.ndarray,
    h: float,
    guess: tuple[float, np.ndarray] | None = None,
    mirror: bool = False,
) -> tuple[float, np.ndarray, float, bool, int]:
    """Lowest eigenpair of A = -u'' + U u on the interior grid, Dirichlet ends.

    With ``mirror`` the left end is a mirror instead, v_0 = v_1, so the
    first diagonal entry is 1/h^2 + U_1: the x > 0 half of an even problem.
    (At that end the eigenvector is largest; with the mirror as the last
    row, dgtsv's last pivot is a vanishing difference that can round to
    exactly zero and send the level to the fallback.)
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
    solve the level instead (``_bisect_lowest``).

    Besides u_pot and the vector, the level holds three work arrays, which
    every use refills and LAPACK overwrites.  The guess vector is
    overwritten.  Returns (eigenvalue, unit eigenvector, residual r, whether
    it fell back, shifted solves made).
    """
    # loaded at the first ground state, not at import: only dc/shift/verify get this far
    lapack = _lapack()
    inv_h2 = 1.0 / (h * h)
    n = len(u_pot)
    d, dl, du = np.empty(n), np.empty(n - 1), np.empty(n - 1)

    def diagonal(shift):
        """d := the diagonal of A - shift I."""
        np.add(u_pot, 2.0 * inv_h2, out=d)
        if mirror:
            d[0] = inv_h2 + u_pot[0]
        return np.subtract(d, shift, out=d)

    def shifted(shift):
        """(d, dl) := A - shift I for LAPACK, which overwrites both."""
        dl.fill(-inv_h2)
        return diagonal(shift), dl

    # max |A_jj| from the extremes of U: rounding is monotone, so they give the extreme entries
    top = max(2.0 * inv_h2 + float(u_pot.max()), -(2.0 * inv_h2 + float(u_pot.min())))
    if mirror:
        top = max(top, abs(inv_h2 + float(u_pot[0])))
    pad = RESIDUAL_C * np.finfo(float).eps * (top + 2.0 * inv_h2)

    def rayleigh(v):
        # difference form: the 2/h^2 of the diagonal never cancels against the off-diagonal
        np.subtract(v[1:], v[:-1], out=dl)
        ends = dl @ dl
        if not mirror:
            ends += v[0] * v[0]
        ends += v[-1] * v[-1]
        np.multiply(v, v, out=d)
        return float(ends * inv_h2 + u_pot @ d)

    def residual(v, ev):
        res = diagonal(ev)
        res *= v
        np.multiply(v[:-1], inv_h2, out=dl)
        res[1:] -= dl
        np.multiply(v[1:], inv_h2, out=dl)
        res[:-1] -= dl
        return math.sqrt(res @ res)

    if guess is None:
        shift = _bisect_lowest(*shifted(0.0))
        v = np.ones_like(u_pot)
    else:
        shift, v = guess
    for solves in range(1, MAX_SOLVES + 1):
        shifted(shift)
        du.fill(-inv_h2)
        # the solve writes its result over v: the guess vector or the last iterate
        *_, v, info = lapack.dgtsv(
            dl, d, du, v, overwrite_dl=1, overwrite_d=1, overwrite_du=1, overwrite_b=1
        )
        scale = math.sqrt(v @ v)
        if info != 0 or not math.isfinite(scale) or scale == 0.0:
            break
        v /= scale
        ev = rayleigh(v)
        r = residual(v, ev)
        if r <= pad:
            if lapack.dpttrf(*shifted(ev - r - pad), overwrite_d=1, overwrite_e=1)[2] == 0:
                return ev, v, r, False, solves
            break
        shift = ev

    ev, v = _bisect_lowest(*shifted(0.0), vector=True)
    return ev, v, residual(v, ev), True, solves


class _Level(NamedTuple):
    ev: float
    vec: np.ndarray  # on the level's nodes, x > 0 only when it folds
    residual: float
    fell_back: bool
    solves: int
    n: int  # interior nodes of the full problem
    u_min: float  # least entry of coupling * W as the level's matrix holds it


def _solve_at_resolution(prob: EffectiveProblem, n: int, coarse: _Level | None = None) -> _Level:
    """Lowest box eigenpair on n interior nodes, refined from a coarser level if given.

    A level that ``_folds`` is solved on x > 0 with a mirror end at the centre.
    """
    fold = _folds(prob.W, n)
    h, x = _axis(prob, n)
    u_pot = _potential_on_axis(prob, x, h)
    guess = None
    if coarse is not None:
        if _folds(prob.W, coarse.n):
            # a folded coarse level holds the even profile at |x|
            np.abs(x, out=x)
        guess = (coarse.ev, np.interp(x, _axis(prob, coarse.n)[1], coarse.vec))
    del x  # the solve's work arrays take its room
    level = _dirichlet_lowest(u_pot, h, guess, mirror=fold)
    return _Level(*level, n=n, u_min=float(u_pot.min()))


def ground_energy(prob: EffectiveProblem) -> EffectiveGroundState:
    """inf spec(p^2 + coupling * W): exactly b when no bound state can exist, else the ladder.

    b is the bottom of the essential spectrum (``prob.essential_bottom``), so
    inf spec <= b always, and inf spec = b exactly when p^2 + coupling * W
    has no eigenvalue below b.  Two rules prove that without a solve:

    * ``above_bottom``: coupling * W >= b everywhere, so the operator is at
      least b (every family and dimensionality; a table from its node values);
    * ``bargmann``: in radial_3d, the integral of r (b - coupling * W)_+ over
      r > 0 is below 1 (``ExternalField.bargmann_integral``), which leaves
      no s-wave bound state (Bargmann 1952) and so none at all.

    Otherwise ``ladder_ground_energy`` estimates it.
    """
    b = prob.essential_bottom
    W, coupling = prob.W, prob.coupling
    certificate, integral = None, None
    if W.infimum(coupling) >= b:
        certificate = "above_bottom"
    elif W.dimensionality == "radial_3d":
        integral = W.bargmann_integral(coupling)
        if integral < 1.0:
            certificate = "bargmann"
    if certificate is None:
        return ladder_ground_energy(prob)
    return EffectiveGroundState(
        e0=b,
        bound_state=False,
        refinement_delta=0.0,
        essential_bottom=b,
        ladder=LadderStats(
            levels=0,
            final_n=0,
            domain_radius=float(prob.domain_radius),
            max_residual=0.0,
            fallbacks=0,
            solves=0,
            certificate=certificate,
            bargmann_integral=integral,
        ),
    )


def ladder_ground_energy(prob: EffectiveProblem) -> EffectiveGroundState:
    """Estimate inf spec by Dirichlet finite differences plus the continuum bottom.

    The reported energy is min(lowest box eigenvalue, b) where b, the bottom
    of the essential spectrum, is the lower limit of coupling * W at
    infinity.  The box eigenvalue is Richardson-extrapolated from two
    resolutions; resolution doubles from ``n_points`` until the observed
    n-to-2n change is below REL_TOL.  Each level starts from the one before
    it, and the first from a pre-level of
    max(n_points // PRE_LEVEL_DIVISOR, PRE_LEVEL_MIN_NODES) nodes, the only
    solve that starts by bisection (see
    ``_dirichlet_lowest``); the pre-level counts in ``solves`` and
    ``fallbacks`` but is not one of the ``levels``.  Even one_d fields are
    solved on the half line x > 0 (``_folds``), which holds the same lowest
    eigenvalue.  A bound state whose mass reaches the box edge raises
    DomainTooSmall.
    """
    b = prob.essential_bottom
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
        if delta < REL_TOL * max(1.0, abs(extrapolated)):
            break
        n *= 2
        coarse = fine
    else:
        raise ConvergenceError(
            f"ground energy not converged: last n-to-2n change {delta:.3e}"
        )

    bound = extrapolated < b - REL_TOL * max(1.0, abs(b))
    if bound:
        mass = fine.vec * fine.vec
        x = _axis(prob, fine.n)[1]
        edge = np.abs(x, out=x) > 0.9 * prob.domain_radius
        leak = float(mass[edge].sum() / mass.sum())
        if leak > 1e-4:
            raise DomainTooSmall(
                f"bound state keeps {leak:.2e} of its mass near the box edge; "
                "enlarge domain_radius"
            )
    e0 = min(extrapolated, b)
    grid_min = fine.u_min
    if e0 < grid_min - 1e-9 * max(1.0, abs(grid_min)):
        raise ConvergenceError("ground energy fell below the potential minimum")
    return EffectiveGroundState(
        e0=float(e0),
        bound_state=bool(bound),
        refinement_delta=float(delta),
        essential_bottom=float(b),
        ladder=LadderStats(
            levels=levels,
            final_n=fine.n,
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
