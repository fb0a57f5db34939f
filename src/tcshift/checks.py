"""Executable identity battery over the pipeline artifacts.

Every closed-form identity, inequality, and two-route consistency relation
the pipeline relies on becomes one named CheckResult.  Checks never consume
the quantity they validate through the code path that produced it when a
second route exists; tolerances live in one table, split into an identity
class (exact or rounding-level) and a quadrature class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .birman_schwinger import BsSolver, CriticalTemperature, PairState, SpectralTop
from .errors import MinorantViolation
from .gl import (
    GlCoefficients,
    TProfile,
    a_functionals,
    compute_lambdas,
    normalization_position_route,
    r_of_p,
    small_p_overlap_coefficient,
    tau_hat_from_t,
)
from .grids import GridPair, RadialFunction, apply_kernel, assemble_chi_kernel, ft3_radial, radial_inner
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

__all__ = ["CheckResult", "Artifacts", "run_identity_checks", "rbound_minorant", "TOLERANCES"]

SEED = 20240811

# one table: check id -> (tolerance, class); bound-type checks carry 0.0
TOLERANCES = {
    "aux_g1_dual_forms": (1e-12, "identity"),
    "aux_g2_dual_forms": (1e-12, "identity"),
    "aux_g_limits": (1e-10, "identity"),
    "kernel_symmetry": (0.0, "identity"),
    "amplitude_linearity_matrix": (0.0, "identity"),
    "t_sign_covariance": (0.0, "identity"),
    "amplitude_linearity_lambda": (1e-12, "identity"),
    "xi_bounded_by_chi_mean": (0.0, "identity"),
    "chi_monotone_in_beta": (0.0, "identity"),
    "lambda_monotone_in_beta": (0.0, "identity"),
    "bracket_certificate": (0.0, "identity"),
    "lambda0_positive": (0.0, "identity"),
    "lambda2_positive": (0.0, "identity"),
    "spectral_gap_positive": (0.0, "identity"),
    "minorant_certificate": (0.0, "identity"),
    "matsubara_tanh_convergence": (1e-3, "quadrature"),
    "matsubara_tanh_decay_ratio": (0.4, "quadrature"),
    "matsubara_xi_convergence": (1e-3, "quadrature"),
    "hessian_identity": (1e-6, "quadrature"),
    "hessian_bridge": (1e-10, "identity"),
    "bs_round_trip": (1e-6, "quadrature"),
    "norm_two_route": (1e-8, "quadrature"),
    "a0_two_route": (1e-8, "quadrature"),
    "gl_kinetic_identity": (1e-5, "quadrature"),
    "gl_field_identity": (1e-5, "quadrature"),
    "gl_thermal_slope": (1e-4, "quadrature"),
    "overlap_small_p": (1e-4, "quadrature"),
    "overlap_large_p": (0.02, "quadrature"),
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


@dataclass
class Artifacts:
    """Immutable pipeline outputs the checks run against."""

    model: PhysicalModel
    numerics: Numerics
    grids: GridPair
    tc: CriticalTemperature
    pair: PairState
    top: SpectralTop
    t_profile: TProfile
    gl: GlCoefficients


def _close(cid, desc, measured, expected, category, scale=1.0, results=None):
    tol = TOLERANCES[cid][0] * scale
    passed = abs(measured - expected) <= tol
    results.append(
        CheckResult(
            id=cid,
            description=desc,
            measured=float(measured),
            expected=float(expected),
            tolerance=tol,
            passed=bool(passed),
            category=category,
        )
    )


def _bound(cid, desc, measured, bound, category, results, direction="gt"):
    passed = measured > bound if direction == "gt" else measured <= bound
    results.append(
        CheckResult(
            id=cid,
            description=desc,
            measured=float(measured),
            expected=float(bound),
            tolerance=0.0,
            passed=bool(passed),
            category=category,
        )
    )


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


def rbound_minorant(pair: PairState, n_samples: int = 200) -> tuple[float, float]:
    """Certificate (c, E0) with 1 - R(p) >= c p^2 / (E0 + p^2) at every sample.

    For each trial E0 the largest admissible c is the sampled minimum of
    (1 - R)(E0 + p^2)/p^2; the plateau of 1 - R at large p caps c near 1/2.
    Returns the smallest E0 whose c is within 0.1% of the best over the
    ladder.  Raises MinorantViolation if no positive c exists.
    """
    p = np.logspace(-3, 2, n_samples)
    one_minus_r = 1.0 - r_of_p(pair, p)
    ratios = one_minus_r * 1.0 / (p * p)
    best_c, best_e0 = -math.inf, None
    ladder = np.logspace(-2, 2, 41)
    cs = [float(np.min(ratios * (e0 + p * p))) for e0 in ladder]
    best_c = max(cs)
    if best_c <= 0.0:
        raise MinorantViolation("no positive minorant constant on the sample grid")
    for e0, c in zip(ladder, cs):
        if c >= 0.999 * best_c:
            return c, float(e0)
    raise MinorantViolation("minorant ladder exhausted")  # pragma: no cover


def run_identity_checks(arts: Artifacts, tolerance_scale: float = 1.0) -> list[CheckResult]:
    """The full battery; failures recorded, never thrown."""
    out: list[CheckResult] = []
    model, tc, gl, t = arts.model, arts.tc, arts.gl, arts.t_profile
    rgrid = arts.grids.rgrid
    rng = np.random.default_rng(SEED)

    # --- closed-form kernel identities -----------------------------------
    zs = np.array([1e-8, 1e-4, 0.1, 1.0, 10.0, 50.0])
    zs = np.concatenate([zs, -zs])
    _close(
        "aux_g1_dual_forms",
        "two printed forms of the odd auxiliary kernel agree",
        float(np.max(np.abs(g1_exp_form(zs) - g1_sinh_form(zs)))),
        0.0,
        "oracle",
        tolerance_scale,
        out,
    )
    _close(
        "aux_g2_dual_forms",
        "two printed forms of the even auxiliary kernel agree",
        float(np.max(np.abs(g2_exp_form(zs) - g2_tanh_form(zs)))),
        0.0,
        "oracle",
        tolerance_scale,
        out,
    )
    _close(
        "aux_g_limits",
        "series limits at zero: g0 -> 1/2, g1 -> 0, g2 -> 1/4",
        max(abs(g0(0.0) - 0.5), abs(g1(0.0)), abs(g2(0.0) - 0.25)),
        0.0,
        "identity",
        tolerance_scale,
        out,
    )

    # --- frequency-sum convergence ----------------------------------------
    zt = np.linspace(-10.0, 10.0, 100)
    errs = np.array([abs(matsubara_tanh(z, 10**4) - math.tanh(z)) for z in zt])
    _close(
        "matsubara_tanh_convergence",
        "paired pole expansion reproduces tanh at n_max = 1e4",
        float(errs.max()),
        0.0,
        "oracle",
        tolerance_scale,
        out,
    )
    z0 = 1.0
    e1 = abs(matsubara_tanh(z0, 20000) - math.tanh(z0))
    e2 = abs(matsubara_tanh(z0, 40000) - math.tanh(z0))
    _close(
        "matsubara_tanh_decay_ratio",
        "paired tail decays like 1/n_max (doubling halves the error)",
        e1 / e2,
        2.0,
        "oracle",
        tolerance_scale,
        out,
    )
    pairs_eep = [(1.0, 1.0, 2.0), (1.0, 0.3, -0.3), (2.0, -0.5, 1.2), (0.7, 1.5, 1.5)]
    xi_err = max(
        abs(matsubara_xi(b, E, Ep, 10**4) - xi(b, E, Ep)) for b, E, Ep in pairs_eep
    )
    _close(
        "matsubara_xi_convergence",
        "truncated frequency sum reproduces the two-energy kernel",
        xi_err,
        0.0,
        "oracle",
        tolerance_scale,
        out,
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
    _close(
        "hessian_identity",
        "closed-form Laplacian of L matches finite differences",
        worst,
        0.0,
        "oracle",
        tolerance_scale,
        out,
    )

    # --- scalar inequalities ------------------------------------------------
    sample = rng.uniform(-20.0, 20.0, size=(50, 2))
    betas_s = rng.uniform(0.05, 20.0, size=50)
    viol = max(
        xi(b, E, Ep) - 0.5 * (chi(b, E) + chi(b, Ep)) - 1e-13 * max(1.0, chi(b, E))
        for (E, Ep), b in zip(sample, betas_s)
    )
    _bound(
        "xi_bounded_by_chi_mean",
        "two-energy kernel bounded by the mean of one-energy kernels",
        viol,
        0.0,
        "identity",
        out,
        direction="leq",
    )
    es = rng.uniform(-10.0, 10.0, size=20)
    mono = min(float(np.min(chi(2.0 * b, es) - chi(b, es))) for b in (0.2, 0.7, 1.5))
    _bound(
        "chi_monotone_in_beta",
        "one-energy kernel strictly increasing in beta",
        mono,
        0.0,
        "identity",
        out,
    )

    # --- operator-level checks ----------------------------------------------
    solver = BsSolver(model, arts.grids)
    lo, hi = tc.bracket
    betas = np.logspace(math.log10(max(lo / 4, 1e-3)), math.log10(hi * 4), 10)
    lams = [solver.lambda_of(b) for b in betas]
    _bound(
        "lambda_monotone_in_beta",
        "top eigenvalue strictly increasing over a 10-point log grid",
        float(np.min(np.diff(lams))),
        0.0,
        "identity",
        out,
    )
    _bound(
        "bracket_certificate",
        "stored bisection bracket re-validates on both sides",
        max(solver.lambda_of(lo) - 1.0, 1.0 - solver.lambda_of(hi)),
        0.0,
        "identity",
        out,
        direction="leq",
    )

    M1 = solver.matrix(tc.beta_c)
    _close(
        "kernel_symmetry",
        "assembled operator matrix exactly symmetric",
        float(np.max(np.abs(M1 - M1.T))),
        0.0,
        "identity",
        tolerance_scale,
        out,
    )

    import dataclasses as _dc

    model4 = _dc.replace(
        model, V=_dc.replace(model.V, amplitude=4.0 * model.V.amplitude)
    )
    M4 = BsSolver(model4, arts.grids).matrix(tc.beta_c)
    _close(
        "amplitude_linearity_matrix",
        "x4 interaction amplitude scales the matrix entrywise by exactly 4",
        float(np.max(np.abs(M4 - 4.0 * M1))),
        0.0,
        "identity",
        tolerance_scale,
        out,
    )
    lam_base = solver.lambda_of(tc.beta_c)
    rel = 0.0
    for c in (0.5, 2.0, 10.0):
        mc = _dc.replace(model, V=_dc.replace(model.V, amplitude=c * model.V.amplitude))
        lam_c = BsSolver(mc, arts.grids).lambda_of(tc.beta_c)
        rel = max(rel, abs(lam_c - c * lam_base) / (c * lam_base))
    _close(
        "amplitude_linearity_lambda",
        "top eigenvalue scales linearly with the interaction amplitude",
        rel,
        0.0,
        "identity",
        tolerance_scale,
        out,
    )

    K = assemble_chi_kernel(tc.beta_c, model.mu, arts.grids)
    recovered = np.sqrt(model.V(rgrid.nodes)) * apply_kernel(K, arts.pair.v_half_phi).values
    diff = RadialFunction(rgrid, recovered - arts.pair.phi_star.values)
    _close(
        "bs_round_trip",
        "multiplier applied to the half-sandwiched state reproduces the eigenfunction",
        math.sqrt(radial_inner(diff, diff)),
        0.0,
        "oracle",
        tolerance_scale,
        out,
    )

    # --- coefficient identities ----------------------------------------------
    _bound(
        "lambda0_positive",
        "kinetic coefficient positive",
        gl.lambda0,
        0.0,
        "identity",
        out,
    )
    _bound(
        "lambda2_positive",
        "thermal coefficient positive",
        gl.lambda2,
        0.0,
        "identity",
        out,
    )
    _bound(
        "spectral_gap_positive",
        "gap below the leading eigenvalue at the critical temperature",
        arts.top.gap,
        0.0,
        "identity",
        out,
    )

    n_pos = normalization_position_route(arts.pair, tc, model, arts.numerics)
    _close(
        "norm_two_route",
        "profile normalization: momentum quadrature vs position-space route",
        abs(n_pos - t.normalization_N) / t.normalization_N,
        0.0,
        "oracle",
        tolerance_scale,
        out,
    )

    worst_a0 = 0.0
    beta_probe = 2.5
    # kernel on an independent momentum quadrature, so the two routes do not
    # share their discretization and the comparison has real content
    from .grids import build_momentum_grid

    pgrid_indep = build_momentum_grid(
        arts.numerics.resolved_p_max(model), (3 * arts.numerics.n_p) // 2, mu=model.mu
    )
    K_probe = assemble_chi_kernel(beta_probe, model.mu, GridPair(rgrid, pgrid_indep))
    for _ in range(5):
        width = rng.uniform(0.6, 1.6)
        tau_pos = RadialFunction(rgrid, np.exp(-0.5 * (rgrid.nodes / width) ** 2))
        tau_hat = ft3_radial(tau_pos, arts.grids)
        a = a_functionals(tau_hat, 1.0 / beta_probe, model.mu)
        a0_pos = radial_inner(tau_pos, apply_kernel(K_probe, tau_pos))
        worst_a0 = max(worst_a0, abs(a.a0 - a0_pos) / abs(a0_pos))
    _close(
        "a0_two_route",
        "quadratic form of the multiplier: momentum vs position space",
        worst_a0,
        0.0,
        "oracle",
        tolerance_scale,
        out,
    )

    tau_hat_c = tau_hat_from_t(t)
    a_at_tc = a_functionals(tau_hat_c, tc.T_c, model.mu)
    _close(
        "gl_kinetic_identity",
        "kinetic functional at T_c equals minus the kinetic coefficient",
        abs(a_at_tc.a1 + gl.lambda0) / gl.lambda0,
        0.0,
        "closed_form",
        tolerance_scale,
        out,
    )
    _close(
        "gl_field_identity",
        "field functional at T_c equals minus the field coefficient",
        abs(a_at_tc.a2 + gl.lambda1) / max(abs(gl.lambda1), 1e-30),
        0.0,
        "closed_form",
        tolerance_scale,
        out,
    )
    dT = 1e-3 * tc.T_c
    slope = (
        a_functionals(tau_hat_c, tc.T_c + dT, model.mu).a0
        - a_functionals(tau_hat_c, tc.T_c - dT, model.mu).a0
    ) / (2.0 * dT)
    _close(
        "gl_thermal_slope",
        "temperature derivative of the quadratic form equals -lambda2/T_c",
        abs(slope + gl.lambda2 / tc.T_c) / (gl.lambda2 / tc.T_c),
        0.0,
        "closed_form",
        tolerance_scale,
        out,
    )

    from .kernels import g1 as _g1, g2 as _g2

    worst_bridge = 0.0
    for p in np.linspace(0.2, 2.4, 10):
        z = tc.beta_c * (p * p - model.mu)
        weight = -(tc.beta_c**2 / 4.0) * (_g1(z) + (2.0 / 3.0) * tc.beta_c * p * p * _g2(z))
        hess = hessian_L_closed(tc.beta_c, model.mu, p)
        worst_bridge = max(worst_bridge, abs(weight - hess / 6.0) / max(1.0, abs(hess)))
    _close(
        "hessian_bridge",
        "kinetic-functional weight equals one sixth of the kernel Laplacian",
        worst_bridge,
        0.0,
        "identity",
        tolerance_scale,
        out,
    )

    lam_flip = compute_lambdas(
        TProfile(pgrid=t.pgrid, values=-t.values, normalization_N=t.normalization_N),
        tc,
        model.mu,
        arts.top.gap,
    )
    flip_dev = max(
        abs(lam_flip.lambda0 - gl.lambda0),
        abs(lam_flip.lambda1 - gl.lambda1),
        abs(lam_flip.lambda2 - gl.lambda2),
    )
    _close(
        "t_sign_covariance",
        "coefficients invariant under a global sign flip of the profile",
        flip_dev,
        0.0,
        "identity",
        tolerance_scale,
        out,
    )

    # --- overlap asymptotics ---------------------------------------------------
    coeff = small_p_overlap_coefficient(arts.pair)
    p_small = 1e-3
    _close(
        "overlap_small_p",
        "small-momentum overlap curvature matches the second-moment integral",
        abs((1.0 - r_of_p(arts.pair, p_small)) / p_small**2 - coeff) / coeff,
        0.0,
        "closed_form",
        tolerance_scale,
        out,
    )
    p_large = 50.0 / model.V.reach
    _close(
        "overlap_large_p",
        "large-momentum overlap deficit approaches one half",
        abs((1.0 - r_of_p(arts.pair, p_large)) - 0.5),
        0.0,
        "closed_form",
        tolerance_scale,
        out,
    )

    c_min, e0_min = rbound_minorant(arts.pair)
    p_scan = np.logspace(-3, 2, 200)
    margin = float(np.min(1.0 - r_of_p(arts.pair, p_scan) - c_min * p_scan**2 / (e0_min + p_scan**2)))
    _bound(
        "minorant_certificate",
        f"overlap minorant holds at 200 sampled momenta (c={c_min:.4g}, E0={e0_min:.4g})",
        min(c_min, margin + 1e-15),
        0.0,
        "oracle",
        out,
    )

    return out
