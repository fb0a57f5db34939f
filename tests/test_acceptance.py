"""Acceptance gate: the ten exit criteria, one test each, fixed tolerances.

Each test prints one PASS line on success (visible with -s / in failure
reports otherwise); tolerances are pinned here and nowhere else.  The whole
module runs on default grids (n_r = n_p = 400) well inside five minutes.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from tcshift.birman_schwinger import BsSolver
from tcshift.gl import (
    a_functionals,
    compute_lambdas,
    compute_t,
    r_of_p,
    small_p_overlap_coefficient,
    tau_hat_from_t,
)
from tcshift.checks import rbound_minorant
from tcshift.kernels import (
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
from tcshift.model import ExternalField, InteractionPotential, Numerics, PhysicalModel
from tcshift.pipeline import Pipeline, emit, sweep
from tcshift.schrodinger import EffectiveProblem, compute_dc, ground_energy, tc_of_h

from conftest import default_model
from test_kernels import fd_laplacian_of_L
from test_schrodinger import square_well_ground_energy


def report(num, name):
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def test_c01_auxiliary_function_identities():
    start = time.perf_counter()
    z = np.linspace(-50.0, 50.0, 10**4)
    assert np.max(np.abs(g1_exp_form(z) - g1_sinh_form(z))) <= 1e-12
    assert np.max(np.abs(g2_exp_form(z) - g2_tanh_form(z))) <= 1e-12
    assert abs(g0(0.0) - 0.5) <= 1e-10
    assert abs(g1(0.0)) <= 1e-10
    assert abs(g2(0.0) - 0.25) <= 1e-10
    assert time.perf_counter() - start < 1.0
    report(1, "auxiliary function identities")


def test_c02_matsubara_convergence():
    start = time.perf_counter()
    zs = np.linspace(-10.0, 10.0, 100)
    worst = max(abs(matsubara_tanh(z, 10**4) - math.tanh(z)) for z in zs)
    assert worst <= 1e-3

    grid = np.linspace(-5.0, 5.0, 10)
    worst_xi = max(
        abs(matsubara_xi(1.3, E, Ep, 10**4) - xi(1.3, E, Ep))
        for E in grid
        for Ep in grid
    )
    assert worst_xi <= 1e-3

    for z0 in (0.5, 1.0, 4.0):
        e1 = abs(matsubara_tanh(z0, 10**4) - math.tanh(z0))
        e2 = abs(matsubara_tanh(z0, 2 * 10**4) - math.tanh(z0))
        assert e1 / e2 == pytest.approx(2.0, rel=0.2)
    e1 = abs(matsubara_xi(1.0, 1.0, 2.0, 10**4) - xi(1.0, 1.0, 2.0))
    e2 = abs(matsubara_xi(1.0, 1.0, 2.0, 2 * 10**4) - xi(1.0, 1.0, 2.0))
    assert e1 / e2 == pytest.approx(2.0, rel=0.2)
    assert time.perf_counter() - start < 5.0
    report(2, "frequency-sum convergence with 1/n tail")


def test_c03_hessian_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    for _ in range(20):
        beta = rng.uniform(0.5, 5.0)
        mu = rng.uniform(-1.0, 3.0)
        k = rng.uniform(0.05, 2.5)
        h = 1e-3 / max(1.0, beta * max(k, math.sqrt(abs(mu)), 1.0))
        closed = hessian_L_closed(beta, mu, k)
        fd = fd_laplacian_of_L(beta, mu, k, h)
        assert abs(closed - fd) <= 1e-6 * max(1.0, abs(closed)), (beta, mu, k)
    assert time.perf_counter() - start < 1.0
    report(3, "closed-form Hessian vs finite differences")


def test_c04_gl_consistency_triangle():
    start = time.perf_counter()
    model = default_model()
    numerics = Numerics()
    solver = BsSolver(model, numerics.build_grids(model))
    tcrit = solver.solve_beta_c(numerics.beta_bracket, numerics.beta_c_rel_tol)
    pair, top = solver.extract_pair_state(tcrit, numerics.gap_tol)
    t = compute_t(pair, tcrit, model, solver.grids)
    gl = compute_lambdas(t, tcrit, model.mu, top.gap)
    tau = tau_hat_from_t(t)

    a = a_functionals(tau, tcrit.T_c, model.mu)
    assert abs(a.a1 + gl.lambda0) <= 1e-5 * gl.lambda0
    assert abs(a.a2 + gl.lambda1) <= 1e-5 * abs(gl.lambda1)

    dT = 1e-3 * tcrit.T_c
    slope = (
        a_functionals(tau, tcrit.T_c + dT, model.mu).a0
        - a_functionals(tau, tcrit.T_c - dT, model.mu).a0
    ) / (2.0 * dT)
    target = -gl.lambda2 / tcrit.T_c
    assert abs(slope - target) <= 1e-4 * abs(target)
    assert time.perf_counter() - start < 30.0
    report(4, "coefficient consistency triangle at T_c")


FAMILY_GRID = [
    ("gaussian", 1.5),
    ("gaussian", 3.0),
    ("exponential", 2.0),
    ("exponential", 4.0),
    ("square_well", 2.0),
    ("square_well", 4.0),
]


def test_c05_positivity_across_families():
    margin = 10.0 * 1e-8
    numerics = Numerics(n_r=160, n_p=160)
    for family, amp in FAMILY_GRID:
        model = PhysicalModel(
            V=InteractionPotential(family=family, amplitude=amp, range=1.0),
            W=ExternalField(family="zero"),
            mu=1.0,
            h_values=(0.01,),
        )
        solver = BsSolver(model, numerics.build_grids(model))
        tcrit = solver.solve_beta_c(numerics.beta_bracket, numerics.beta_c_rel_tol)
        pair, top = solver.extract_pair_state(tcrit, numerics.gap_tol)
        t = compute_t(pair, tcrit, model, solver.grids)
        gl = compute_lambdas(t, tcrit, model.mu, top.gap)
        assert gl.lambda0 > margin, (family, amp)
        assert gl.lambda2 > margin, (family, amp)
    report(5, "coefficient positivity across interaction families")


def test_c06_beta_c_well_posedness(model, numerics, solver, tc):
    lo, hi = tc.bracket
    betas = np.logspace(math.log10(tc.beta_c / 30.0), math.log10(tc.beta_c * 30.0), 10)
    lams = [solver.lambda_of(b) for b in betas]
    assert all(a < b for a, b in zip(lams, lams[1:]))

    assert solver.lambda_of(lo) < 1.0 < solver.lambda_of(hi)

    solver2 = BsSolver(model, numerics.build_grids(model, scale=2))
    tc2 = solver2.solve_beta_c(numerics.beta_bracket, numerics.beta_c_rel_tol)
    assert abs(tc2.beta_c - tc.beta_c) <= 1e-6 * tc.beta_c

    lam_base = solver.lambda_of(tc.beta_c)
    for c in (0.5, 2.0, 10.0):
        scaled = dataclasses.replace(
            model, V=dataclasses.replace(model.V, amplitude=c * model.V.amplitude)
        )
        lam_c = BsSolver(scaled, solver.grids).lambda_of(tc.beta_c)
        assert abs(lam_c - c * lam_base) <= 1e-12 * c * lam_base
    report(6, "critical temperature well-posedness")


def test_c07_overlap_asymptotics(pair, model):
    coeff = small_p_overlap_coefficient(pair)
    p0 = 1e-3
    measured = (1.0 - r_of_p(pair, p0)) / (p0 * p0)
    assert abs(measured - coeff) <= 1e-4 * coeff

    assert abs((1.0 - r_of_p(pair, 50.0 / model.V.range)) - 0.5) < 0.02

    c, e0 = rbound_minorant(pair)
    assert c > 0.0
    p = np.logspace(-3, 2, 200)
    assert np.all(1.0 - r_of_p(pair, p) >= c * p * p / (e0 + p * p) - 1e-14)
    report(7, "overlap asymptotics and minorant certificate")


def test_c08_field_sign_flexibility():
    model = default_model()
    numerics = Numerics(n_r=192, n_p=192, n_points=1200)
    base = Pipeline(model, numerics, {})
    shifts = {}
    dcs = {}
    for sign in (+1.0, -1.0):
        W = ExternalField(family="gaussian_well", amplitude=sign * 8.0, range=2.0)
        p = base.with_field(W)
        dcs[sign] = p.dc()
        shifts[sign] = [t - p.gl().T_c for _, t in p.shift().rows]
    d1, d2 = dcs[+1.0], dcs[-1.0]
    opposite_signs = d1 * d2 < 0.0
    one_zero = (d1 == 0.0) != (d2 == 0.0) and (d1 != 0.0 or d2 != 0.0)
    assert opposite_signs or one_zero, (d1, d2)
    up = shifts[+1.0] if d1 < d2 else shifts[-1.0]
    down = shifts[-1.0] if d1 < d2 else shifts[+1.0]
    assert all(s >= 0.0 for s in up) and any(s > 0.0 for s in up)
    assert all(s <= 0.0 for s in down)
    report(8, "field sign flexibility of the shift")


def test_c09_effective_schrodinger_oracle():
    from tcshift.gl import GlCoefficients

    V0, a = 2.0, 1.0
    ref = square_well_ground_energy(V0, a)
    W = ExternalField(family="square_well_1d", amplitude=-V0, range=a, dimensionality="one_d")
    prob = EffectiveProblem(coupling=1.0, W=W, domain_radius=25.0, n_points=2000)
    assert ground_energy(prob).e0 == pytest.approx(ref, abs=1e-6)

    gl = GlCoefficients(
        beta_c=8.0, T_c=0.125, lambda0=2.0, lambda1=-0.8, lambda2=0.5, gap=0.5
    )
    gs0 = ground_energy(EffectiveProblem.from_gl(gl, ExternalField(family="zero"), n_points=400))
    assert compute_dc(gl, gs0) == 0.0
    table = tc_of_h(gl, compute_dc(gl, gs0), [0.01, 0.05, 0.2])
    assert all(t == gl.T_c for _, t in table.rows)

    const = 0.37
    gsc = ground_energy(
        EffectiveProblem.from_gl(
            gl, ExternalField(family="constant", amplitude=const), domain_radius=30.0, n_points=400
        )
    )
    dc_const = compute_dc(gl, gsc)
    assert dc_const == pytest.approx(gl.lambda1 / gl.lambda2 * const, rel=1e-14)
    report(9, "effective ground-state oracle")


def test_c10_determinism_and_serialization(tmp_path):
    cfg = {
        "V": {"family": "gaussian", "amplitude": 2.0, "range": 1.0},
        "W": {
            "family": "gaussian_well",
            "amplitude": -8.0,
            "range": 2.0,
            "dimensionality": "radial_3d",
        },
        "mu": 1.0,
        "h_values": [0.01, 0.02],
        "numerics": {"n_r": 192, "n_p": 192, "n_points": 1200},
    }
    from tcshift.model import model_from_dict

    model, numerics = model_from_dict(cfg)
    b1 = Pipeline(model, numerics, cfg).bundle("shift")
    b2 = Pipeline(model, numerics, cfg).bundle("shift")
    emit(b1, tmp_path / "a")
    emit(b2, tmp_path / "b")
    assert (tmp_path / "a/result.json").read_bytes() == (tmp_path / "b/result.json").read_bytes()

    loaded = json.loads((tmp_path / "a/result.json").read_text())
    for key in ("lambda0", "lambda1", "lambda2", "beta_c", "T_c"):
        assert loaded["gl"][key] == b1.gl[key]
    gl_line = (tmp_path / "a/gl.csv").read_text().strip().splitlines()[1]
    assert [float(x) for x in gl_line.split(",")][2] == b1.gl["lambda0"]

    rows = sweep(cfg, "w_amplitude", [-8.0, -4.0])
    point_cfg = json.loads(json.dumps(cfg))
    point_cfg["W"]["amplitude"] = -4.0
    m2, n2 = model_from_dict(point_cfg)
    fresh = Pipeline(m2, n2, point_cfg).bundle("shift")
    assert rows[1]["D_c"] == fresh.shift["D_c"]
    assert rows[1]["beta_c"] == fresh.gl["beta_c"]
    report(10, "determinism, serialization, cache equivalence")
