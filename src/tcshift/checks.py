"""Executable identity battery over the pipeline artifacts.

Every closed-form identity, inequality, and two-route consistency relation
the pipeline relies on becomes one named CheckResult.  Checks never consume
the quantity they validate through the code path that produced it when a
second route exists.  ``norm_half_resolution`` is not a second route: it
reruns the production code path on grids of half the nodes, which shows that
the profile normalization N is resolved.  ``CHECKS`` declares the battery,
one entry per check: its category, its test (a tolerance on
|measured - expected|, or a bound on measured), its expected value and its
description.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .birman_schwinger import BsSolver, CriticalTemperature, PairState, SpectralTop
from .errors import ToolError
from .gl import (
    GlCoefficients,
    TProfile,
    a_functionals,
    compute_lambdas,
    r_of_p,
    small_p_overlap_coefficient,
    tau_hat_from_t,
)
from .grids import (
    RadialFunction,
    build_momentum_grid,
    chi_kernel_weights,
    ft3_radial,
    radial_inner,
    row_blocks,
    spherical_j0,
)
from .kernels import (
    L_pq,
    chi,
    g0,
    g1,
    g1_exp_form,
    g1_sinh_form,
    g2,
    g2_exp_form,
    g2_tanh_form,
    hessian_L_closed,
    matsubara_tanh,
    matsubara_xi,
    xi,
)
from .model import Numerics, PhysicalModel

__all__ = ["CheckResult", "run_identity_checks", "rbound_minorant", "minorant_momenta", "CHECKS"]

SEED = 20240811

# check id -> (category, test, expected, description), in output order.  A
# numeric test is a tolerance: the check passes when |measured - expected| <=
# test.  ">" and "<=" are bounds: it passes when measured > expected or
# measured <= expected, and reports tolerance 0.
CHECKS = {
    "aux_g1_dual_forms": (
        "oracle", 1e-12, 0.0, "two printed forms of the odd auxiliary kernel agree"
    ),
    "aux_g2_dual_forms": (
        "oracle", 1e-12, 0.0, "two printed forms of the even auxiliary kernel agree"
    ),
    "aux_g_limits": (
        "identity", 1e-10, 0.0, "series limits at zero: g0 -> 1/2, g1 -> 0, g2 -> 1/4"
    ),
    "matsubara_tanh_convergence": (
        "oracle", 1e-3, 0.0, "paired pole expansion reproduces tanh at n_max = 1e4"
    ),
    "matsubara_tanh_decay_ratio": (
        "oracle", 0.4, 2.0, "paired tail decays like 1/n_max (doubling halves the error)"
    ),
    "matsubara_xi_convergence": (
        "oracle", 1e-3, 0.0, "truncated frequency sum reproduces the two-energy kernel"
    ),
    "hessian_identity": (
        "oracle", 1e-6, 0.0, "closed-form Laplacian of L matches finite differences"
    ),
    "xi_bounded_by_chi_mean": (
        "identity", "<=", 0.0, "two-energy kernel bounded by the mean of one-energy kernels"
    ),
    "chi_monotone_in_beta": (
        "identity", ">", 0.0, "one-energy kernel strictly increasing in beta"
    ),
    "lambda_monotone_in_beta": (
        "identity", ">", 0.0, "top eigenvalue strictly increasing over a 10-point log grid"
    ),
    "bracket_certificate": (
        "identity", "<=", 0.0, "stored bisection bracket re-validates on both sides"
    ),
    "kernel_symmetry": ("identity", 0.0, 0.0, "compressed k x k operator matrix exactly symmetric"),
    "amplitude_linearity_matrix": (
        "identity", 0.0, 0.0, "x4 amplitude scales each compressed k x k matrix entry by exactly 4"
    ),
    "amplitude_linearity_lambda": (
        "identity", 1e-12, 0.0, "top eigenvalue scales linearly with the interaction amplitude"
    ),
    "bs_round_trip": (
        "oracle",
        1e-6,
        0.0,
        "multiplier applied to the half-sandwiched state reproduces the eigenfunction",
    ),
    "lambda0_positive": ("identity", ">", 0.0, "kinetic coefficient positive"),
    "lambda2_positive": ("identity", ">", 0.0, "thermal coefficient positive"),
    "spectral_gap_positive": (
        "identity", ">", 0.0, "gap below the leading eigenvalue at the critical temperature"
    ),
    "norm_half_resolution": (
        "oracle", 1e-8, 0.0, "profile normalization resolved: re-solved at half the grid nodes"
    ),
    "a0_two_route": (
        "oracle", 1e-8, 0.0, "quadratic form of the multiplier: momentum vs position space"
    ),
    "gl_kinetic_identity": (
        "closed_form", 1e-5, 0.0, "kinetic functional at T_c equals minus the kinetic coefficient"
    ),
    "gl_field_identity": (
        "closed_form", 1e-5, 0.0, "field functional at T_c equals minus the field coefficient"
    ),
    "gl_thermal_slope": (
        "closed_form",
        1e-4,
        0.0,
        "temperature derivative of the quadratic form equals -lambda2/T_c",
    ),
    "hessian_bridge": (
        "identity",
        1e-10,
        0.0,
        "kinetic-functional weight equals one sixth of the kernel Laplacian",
    ),
    "t_sign_covariance": (
        "identity", 0.0, 0.0, "coefficients invariant under a global sign flip of the profile"
    ),
    "overlap_small_p": (
        "closed_form",
        1e-4,
        0.0,
        "small-momentum overlap curvature matches the second-moment integral",
    ),
    "overlap_large_p": (
        "closed_form", 0.02, 0.0, "large-momentum overlap deficit approaches one half"
    ),
    "minorant_certificate": (
        "oracle",
        ">",
        0.0,
        "overlap minorant holds between the 200 momenta in [1e-3, {p_hi:.4g}] that fixed it"
        " (c={c:.4g}, E0={e0:.4g})",
    ),
}


@dataclass
class CheckResult:
    id: str
    description: str
    measured: float
    expected: float
    tolerance: float
    passed: bool
    category: str  # closed_form | identity | oracle


def _fd_laplacian(beta, mu, k, h):
    def f_par(t):
        return L_pq(beta, mu, abs(k + t / 2.0), abs(k - t / 2.0))

    def f_perp(t):
        m = math.sqrt(k * k + t * t / 4.0)
        return L_pq(beta, mu, m, m)

    c = f_par(0.0)
    return (f_par(h) - 2 * c + f_par(-h)) / (h * h) + 2 * (f_perp(h) - 2 * c + f_perp(-h)) / (
        h * h
    )


def _p_res(pair: PairState) -> float:
    """P_res = 1.5 q / h, the largest momentum at which the pair state's radial grid resolves R(p).

    The grid has panels of q Gauss-Legendre nodes, the widest h wide.  R
    integrates j0(p r) over each panel, and a q-node panel integrates
    cos(p r) to 1.6e-11 of its width at p h = 1.5 q = 24 for q = 16 (6.7e-8
    at 32, 2e-3 at 48).  On ``configs/gaussian.json``'s model R(p) agrees
    with n = 1600 to 3e-11 below p h = 24 at n = 160, 208, 304 and 400,
    while past p h of about 40 it is off by up to 8e-3, far more than the
    minorant certificate's margin (about 1e-8).
    """
    grid = pair.phi_star.grid
    width = float(np.max(np.diff(np.append(grid.starts, grid.r_max))))
    return 1.5 * len(grid.offsets) / width


def minorant_momenta(pair: PairState) -> np.ndarray:
    """The 200 momenta the overlap minorant is fitted on: log-spaced in [1e-3, min(100, P_res)]."""
    return np.logspace(-3, math.log10(min(100.0, _p_res(pair))), 200)


def _vertex_min(y: np.ndarray) -> float:
    """The lower of min(y) and the vertex of the parabola through the argmin and its neighbours.

    y is sampled at equal steps; the vertex lies within half a step of the
    argmin.
    """
    i = int(np.argmin(y))
    low = float(y[i])
    if 0 < i < len(y) - 1:
        slope, curvature = (y[i + 1] - y[i - 1]) / 2.0, (y[i + 1] - 2.0 * y[i] + y[i - 1]) / 2.0
        if curvature > 0.0:
            low -= float(slope * slope / (4.0 * curvature))
    return low


def rbound_minorant(pair: PairState) -> tuple[float, float]:
    """Certificate (c, E0) with 1 - R(p) >= c p^2 / (E0 + p^2) at every sample.

    The samples are ``minorant_momenta``.  For each trial E0 the largest
    admissible c is the minimum of (1 - R)(E0 + p^2)/p^2, capped at 1/2:
    1 - R(p) tends to 1/2 as p -> inf, so no larger c holds past the
    samples.  A minimum between two samples is read off the parabola in
    ln p through the sampled minimum and its neighbours (``_vertex_min``).
    Returns the smallest E0 whose c is within 0.1% of the best over the
    ladder.  A best c <= 0 is returned as it is: no minorant holds, and
    the battery records that as a failed ``minorant_certificate``.
    """
    p = minorant_momenta(pair)
    ratios = (1.0 - r_of_p(pair, p)) / (p * p)
    ladder = np.logspace(-2, 2, 41)
    cs = [min(0.5, _vertex_min(ratios * (e0 + p * p))) for e0 in ladder]
    best_c = max(cs)
    threshold = best_c - 1e-3 * abs(best_c)
    return next((c, float(e0)) for e0, c in zip(ladder, cs) if c >= threshold)


def _chi_quadratic_forms(beta, mu, rgrid, pgrid, taus) -> np.ndarray:
    """The chi quadratic form <tau, chi tau> on the grid pair (rgrid, pgrid) for each tau.

    With the s-wave kernel k = j0 diag(c) j0^T, c the weights of
    ``chi_kernel_weights``, and v = w r^2 tau, the form is
    4 pi sum_a c_a (j0^T v)_a^2; j0^T v is summed over row blocks of the
    table, which is never held whole.
    """
    r, w = rgrid.nodes, rgrid.weights
    v = np.stack([w * r * r * tau.values for tau in taus], axis=1)
    u = np.zeros((len(pgrid), len(taus)))
    for rows in row_blocks(len(rgrid)):
        u += spherical_j0(np.outer(r[rows], pgrid.nodes)).T @ v[rows]
    return 4.0 * math.pi * (chi_kernel_weights(beta, mu, pgrid) @ (u * u))


def _scaled(model: PhysicalModel, c: float) -> PhysicalModel:
    """``model`` with its interaction amplitude multiplied by ``c``."""
    return replace(model, V=replace(model.V, amplitude=c * model.V.amplitude))


def run_identity_checks(
    model: PhysicalModel,
    numerics: Numerics,
    solver: BsSolver,
    tc: CriticalTemperature,
    pair_top: tuple[PairState, SpectralTop],
    t: TProfile,
    gl: GlCoefficients,
    t_half: Callable[[], TProfile],
) -> list[CheckResult]:
    """The full battery, in ``CHECKS`` order; failures recorded, never thrown.

    The arguments up to ``gl`` are the pipeline's stage outputs; ``solver.grids``
    is their grid pair.  ``t_half`` re-solves the profile at half resolution; a
    ToolError it raises fails ``norm_half_resolution`` with measured inf.
    """
    pair, top = pair_top
    rgrid = solver.grids.rgrid
    rng = random.Random(SEED)
    m = {}  # check id -> measured value; the order below fixes the random draws

    def uniforms(lo, hi, count):
        return np.array([rng.uniform(lo, hi) for _ in range(count)])

    # --- closed-form kernel identities -----------------------------------
    zs = np.array([1e-8, 1e-4, 0.1, 1.0, 10.0, 50.0])
    zs = np.concatenate([zs, -zs])
    m["aux_g1_dual_forms"] = np.max(np.abs(g1_exp_form(zs) - g1_sinh_form(zs)))
    m["aux_g2_dual_forms"] = np.max(np.abs(g2_exp_form(zs) - g2_tanh_form(zs)))
    m["aux_g_limits"] = max(abs(g0(0.0) - 0.5), abs(g1(0.0)), abs(g2(0.0) - 0.25))

    # --- frequency-sum convergence ----------------------------------------
    zt = np.linspace(-10.0, 10.0, 100)
    m["matsubara_tanh_convergence"] = max(
        abs(matsubara_tanh(z, 10**4) - math.tanh(z)) for z in zt
    )
    e1 = abs(matsubara_tanh(1.0, 20000) - math.tanh(1.0))
    e2 = abs(matsubara_tanh(1.0, 40000) - math.tanh(1.0))
    m["matsubara_tanh_decay_ratio"] = e1 / e2
    pairs_eep = [(1.0, 1.0, 2.0), (1.0, 0.3, -0.3), (2.0, -0.5, 1.2), (0.7, 1.5, 1.5)]
    m["matsubara_xi_convergence"] = max(
        abs(matsubara_xi(b, E, Ep, 10**4) - xi(b, E, Ep)) for b, E, Ep in pairs_eep
    )

    # --- Hessian of the two-point kernel ----------------------------------
    worst = 0.0
    for _ in range(20):
        beta = rng.uniform(0.5, 5.0)
        mu = rng.uniform(-1.0, 3.0)
        k = rng.uniform(0.05, 2.5)
        h = 1e-3 / max(1.0, beta * max(k, math.sqrt(abs(mu)), 1.0))
        closed = hessian_L_closed(beta, mu, k)
        fd = _fd_laplacian(beta, mu, k, h)
        worst = max(worst, abs(closed - fd) / max(1.0, abs(closed)))
    m["hessian_identity"] = worst

    # --- scalar inequalities ------------------------------------------------
    sample = uniforms(-20.0, 20.0, 100).reshape(50, 2)
    betas_s = uniforms(0.05, 20.0, 50)
    m["xi_bounded_by_chi_mean"] = max(
        xi(b, E, Ep) - 0.5 * (chi(b, E) + chi(b, Ep)) - 1e-13 * max(1.0, chi(b, E))
        for (E, Ep), b in zip(sample, betas_s)
    )
    es = uniforms(-10.0, 10.0, 20)
    m["chi_monotone_in_beta"] = min(
        float(np.min(chi(2.0 * b, es) - chi(b, es))) for b in (0.2, 0.7, 1.5)
    )

    # --- operator-level checks ----------------------------------------------
    lo, hi = tc.bracket
    betas = np.logspace(math.log10(max(lo / 4, 1e-3)), math.log10(hi * 4), 10)
    m["lambda_monotone_in_beta"] = np.min(np.diff([solver.lambda_of(b) for b in betas]))
    m["bracket_certificate"] = max(solver.lambda_of(lo) - 1.0, 1.0 - solver.lambda_of(hi))
    # the k x k matrices that lambda_of and top diagonalize, at amplitudes 1 and 4
    M1 = solver.reduced(tc.beta_c)
    M4 = BsSolver(_scaled(model, 4.0), solver.grids).reduced(tc.beta_c)
    m["kernel_symmetry"] = np.max(np.abs(M1 - M1.T))
    m["amplitude_linearity_matrix"] = np.max(np.abs(M4 - 4.0 * M1))
    lam_base = solver.lambda_of(tc.beta_c)
    m["amplitude_linearity_lambda"] = max(
        abs(BsSolver(_scaled(model, c), solver.grids).lambda_of(tc.beta_c) - c * lam_base)
        / (c * lam_base)
        for c in (0.5, 2.0, 10.0)
    )
    w_hat = ft3_radial(pair.v_half_phi, solver.grids)
    chi_w_hat = chi(tc.beta_c, w_hat.grid.nodes**2 - model.mu) * w_hat.values
    chi_w = ft3_radial(RadialFunction(w_hat.grid, chi_w_hat), solver.grids)
    recovered = np.sqrt(model.V(rgrid.nodes)) * chi_w.values
    diff = RadialFunction(rgrid, recovered - pair.phi_star.values)
    m["bs_round_trip"] = math.sqrt(radial_inner(diff, diff))

    # --- coefficient identities ----------------------------------------------
    m["lambda0_positive"] = gl.lambda0
    m["lambda2_positive"] = gl.lambda2
    m["spectral_gap_positive"] = top.gap
    try:
        n_half = t_half().normalization_N
    except ToolError:
        n_half = math.inf
    m["norm_half_resolution"] = abs(n_half - t.normalization_N) / t.normalization_N

    # kernel on an independent momentum quadrature, so the two routes do not
    # share their discretization and the comparison has real content
    beta_probe = 2.5
    pgrid_indep = build_momentum_grid(
        numerics.resolved_p_max(model), (3 * numerics.n_p) // 2, mu=model.mu
    )
    taus = [
        RadialFunction(rgrid, np.exp(-0.5 * (rgrid.nodes / rng.uniform(0.6, 1.6)) ** 2))
        for _ in range(5)
    ]
    a0_pos = _chi_quadratic_forms(beta_probe, model.mu, rgrid, pgrid_indep, taus)
    m["a0_two_route"] = max(
        abs(a_functionals(ft3_radial(tau, solver.grids), 1.0 / beta_probe, model.mu).a0 - pos)
        / abs(pos)
        for tau, pos in zip(taus, a0_pos)
    )

    tau_hat_c = tau_hat_from_t(t)
    a_at_tc = a_functionals(tau_hat_c, tc.T_c, model.mu)
    m["gl_kinetic_identity"] = abs(a_at_tc.a1 + gl.lambda0) / gl.lambda0
    m["gl_field_identity"] = abs(a_at_tc.a2 + gl.lambda1) / max(abs(gl.lambda1), 1e-30)
    dT = 1e-3 * tc.T_c
    slope = (
        a_functionals(tau_hat_c, tc.T_c + dT, model.mu).a0
        - a_functionals(tau_hat_c, tc.T_c - dT, model.mu).a0
    ) / (2.0 * dT)
    m["gl_thermal_slope"] = abs(slope + gl.lambda2 / tc.T_c) / (gl.lambda2 / tc.T_c)

    worst_bridge = 0.0
    for p in np.linspace(0.2, 2.4, 10):
        z = tc.beta_c * (p * p - model.mu)
        weight = -(tc.beta_c**2 / 4.0) * (g1(z) + (2.0 / 3.0) * tc.beta_c * p * p * g2(z))
        hess = hessian_L_closed(tc.beta_c, model.mu, p)
        worst_bridge = max(worst_bridge, abs(weight - hess / 6.0) / max(1.0, abs(hess)))
    m["hessian_bridge"] = worst_bridge

    lam_flip = compute_lambdas(
        TProfile(pgrid=t.pgrid, values=-t.values, normalization_N=t.normalization_N),
        tc,
        model.mu,
        top.gap,
    )
    m["t_sign_covariance"] = max(
        abs(lam_flip.lambda0 - gl.lambda0),
        abs(lam_flip.lambda1 - gl.lambda1),
        abs(lam_flip.lambda2 - gl.lambda2),
    )

    # --- overlap asymptotics ---------------------------------------------------
    coeff = small_p_overlap_coefficient(pair)
    p_small = 1e-3
    m["overlap_small_p"] = abs((1.0 - r_of_p(pair, p_small)) / p_small**2 - coeff) / coeff
    p_large = min(50.0 / model.V.reach, _p_res(pair))
    m["overlap_large_p"] = abs((1.0 - r_of_p(pair, p_large)) - 0.5)

    # certified at the geometric midpoints of the momenta that fixed c, where
    # the margin is not zero by construction
    c_min, e0_min = rbound_minorant(pair)
    p_fit = minorant_momenta(pair)
    p_mid = np.sqrt(p_fit[1:] * p_fit[:-1])
    margin = np.min(1.0 - r_of_p(pair, p_mid) - c_min * p_mid**2 / (e0_min + p_mid**2))
    m["minorant_certificate"] = min(c_min, float(margin))

    out = []
    for cid, (category, test, expected, description) in CHECKS.items():
        measured = float(m[cid])
        if test == ">":
            passed, tol = measured > expected, 0.0
        elif test == "<=":
            passed, tol = measured <= expected, 0.0
        else:
            passed, tol = abs(measured - expected) <= test, test
        out.append(
            CheckResult(
                id=cid,
                description=description.format(c=c_min, e0=e0_min, p_hi=p_fit[-1]),
                measured=measured,
                expected=expected,
                tolerance=tol,
                passed=bool(passed),
                category=category,
            )
        )
    return out
