"""Verification battery tests: all green on the default model, sensitive to
injected faults through both the tolerance and the bound pass rules, and
exact identities survive tolerance tightening that kills quadrature-limited
ones."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from tcshift.birman_schwinger import BsSolver
from tcshift.checks import (
    CHECKS,
    _chi_quadratic_forms,
    minorant_momenta,
    rbound_minorant,
    run_identity_checks,
)
from tcshift.errors import NoBracket
from tcshift.gl import compute_lambdas, compute_t, r_of_p
from tcshift.grids import (
    GridPair,
    RadialFunction,
    build_momentum_grid,
    radial_inner,
)
from tcshift.model import InteractionPotential, load_config
from tcshift.pipeline import Pipeline

from dense_reference import apply_kernel, assemble_chi_kernel


@pytest.fixture(scope="module")
def artifacts(model, numerics, solver, tc, pair_and_top):
    """``run_identity_checks``'s keyword arguments on the default model."""
    t = compute_t(pair_and_top[0], tc, model, solver.grids)
    gl = compute_lambdas(t, tc, model.mu, pair_and_top[1].gap)
    half = dataclasses.replace(numerics, n_r=numerics.n_r // 2, n_p=numerics.n_p // 2)
    t_half = Pipeline(model, half).t_profile()
    return dict(
        model=model,
        numerics=numerics,
        solver=solver,
        tc=tc,
        pair_top=pair_and_top,
        t=t,
        gl=gl,
        t_half=lambda: t_half,
    )


@pytest.fixture(scope="module")
def results(artifacts):
    return run_identity_checks(**artifacts)


class TestBattery:
    def test_all_pass_on_default_model(self, results):
        failed = [r.id for r in results if not r.passed]
        assert failed == [], f"failing checks: {failed}"

    def test_every_registered_check_ran(self, results):
        assert [r.id for r in results] == list(CHECKS)

    def test_reproducible(self, artifacts, results):
        again = run_identity_checks(**artifacts)
        assert [(r.id, r.measured) for r in again] == [(r.id, r.measured) for r in results]

    def test_corrupted_thermal_coefficient_trips_slope_check(self, artifacts):
        bad_gl = dataclasses.replace(artifacts["gl"], lambda2=1.1 * artifacts["gl"].lambda2)
        res = {r.id: r for r in run_identity_checks(**{**artifacts, "gl": bad_gl})}
        slope = res["gl_thermal_slope"]
        assert not slope.passed
        # measured relative deviation ~ 1 - 1/1.1
        assert slope.measured == pytest.approx(1.0 - 1.0 / 1.1, rel=1e-2)

    def test_corrupted_gap_trips_gt_bound(self, artifacts):
        pair, top = artifacts["pair_top"]
        top = dataclasses.replace(top, lambda2=top.lambda1 + 0.1)
        res = {r.id: r for r in run_identity_checks(**{**artifacts, "pair_top": (pair, top)})}
        assert [cid for cid, r in res.items() if not r.passed] == ["spectral_gap_positive"]
        gap = res["spectral_gap_positive"]
        assert gap.measured == pytest.approx(-0.1, rel=1e-12)
        assert (gap.expected, gap.tolerance) == (0.0, 0.0)

    def test_corrupted_bracket_trips_leq_bound(self, artifacts):
        hi = artifacts["tc"].bracket[1]
        tc = dataclasses.replace(artifacts["tc"], bracket=(hi, 2 * hi))
        res = {r.id: r for r in run_identity_checks(**{**artifacts, "tc": tc})}
        assert [cid for cid, r in res.items() if not r.passed] == ["bracket_certificate"]
        cert = res["bracket_certificate"]
        assert cert.measured > 0.0
        assert (cert.expected, cert.tolerance) == (0.0, 0.0)

    def test_minorant_description_carries_its_certificate(self, pair, results):
        c, e0 = rbound_minorant(pair)
        assert results[-1].id == "minorant_certificate"
        assert results[-1].description.endswith(f"(c={c:.4g}, E0={e0:.4g})")

    def test_tolerance_tightening_classifies(self, results):
        res = {r.id: r for r in results}
        # quadrature- and truncation-limited checks would fail a million-fold tightening
        quadrature_limited = (
            "matsubara_tanh_convergence",
            "matsubara_xi_convergence",
            "hessian_identity",
            "bs_round_trip",
            "norm_half_resolution",
            "gl_thermal_slope",
            "overlap_small_p",
        )
        for cid in quadrature_limited:
            r = res[cid]
            assert abs(r.measured - r.expected) > 1e-6 * r.tolerance, cid
        # structurally exact identities survive any tightening
        for cid in ("kernel_symmetry", "amplitude_linearity_matrix", "t_sign_covariance"):
            assert res[cid].measured == res[cid].expected == 0.0, cid

    def test_compressed_matrices_read_exactly_zero(self, results):
        res = {r.id: r for r in results}
        assert res["kernel_symmetry"].measured == 0.0
        assert res["amplitude_linearity_matrix"].measured == 0.0

    def test_asymmetric_reduced_matrix_trips_symmetry_only(self, artifacts, monkeypatch):
        # one ulp up above the diagonal of every solver's k x k matrix: x4 still
        # scales it exactly, and eigvalsh and eigh read the lower triangle only
        reduced = BsSolver.reduced

        def off_symmetric(solver, beta):
            M = reduced(solver, beta)
            M[0, 1] = np.nextafter(M[0, 1], np.inf)
            return M

        monkeypatch.setattr(BsSolver, "reduced", off_symmetric)
        res = {r.id: r for r in run_identity_checks(**artifacts)}
        assert [cid for cid, r in res.items() if not r.passed] == ["kernel_symmetry"]
        M = reduced(artifacts["solver"], artifacts["tc"].beta_c)
        assert res["kernel_symmetry"].measured == np.nextafter(M[0, 1], np.inf) - M[0, 1]

    def test_off_scale_x4_matrix_trips_linearity_only(self, artifacts, monkeypatch):
        # one ulp up on the diagonal of the x4 solver's k x k matrix only
        reduced = BsSolver.reduced
        amplitude4 = 4.0 * artifacts["model"].V.amplitude

        def off_scale(solver, beta):
            M = reduced(solver, beta)
            if solver.model.V.amplitude == amplitude4:
                M[0, 0] = np.nextafter(M[0, 0], np.inf)
            return M

        monkeypatch.setattr(BsSolver, "reduced", off_scale)
        res = {r.id: r for r in run_identity_checks(**artifacts)}
        assert [cid for cid, r in res.items() if not r.passed] == ["amplitude_linearity_matrix"]
        m4 = 4.0 * reduced(artifacts["solver"], artifacts["tc"].beta_c)[0, 0]
        assert res["amplitude_linearity_matrix"].measured == np.nextafter(m4, np.inf) - m4

    def test_probe_forms_match_the_assembled_kernel(self, grids, model):
        # the a0_two_route position side, against the kernel formed on the probe pair
        pgrid = build_momentum_grid(8.0, 600, mu=model.mu)
        taus = [RadialFunction(grids.rgrid, np.exp(-0.5 * (grids.rgrid.nodes / w) ** 2))
                for w in (0.6, 1.1, 1.6)]
        K = assemble_chi_kernel(2.5, model.mu, GridPair(grids.rgrid, pgrid))
        dense = [radial_inner(tau, apply_kernel(K, tau)) for tau in taus]
        forms = _chi_quadratic_forms(2.5, model.mu, grids.rgrid, pgrid, taus)
        assert forms == pytest.approx(dense, rel=1e-13)

    def test_categories_are_known(self, results):
        assert {r.category for r in results} <= {"closed_form", "identity", "oracle"}


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _battery(model, numerics) -> dict:
    return {r.id: r for r in Pipeline(model, numerics).checks()}


class TestMinorant:
    def test_certificate(self, pair):
        c, e0 = rbound_minorant(pair)
        assert c > 0.0
        assert e0 > 0.0
        # asymptotic cap: 1 - R(p) tends to one half, so no larger c holds for all p
        assert c <= 0.5

    def test_small_p_binding(self, pair):
        # minorant <= function at the smallest sampled momentum
        c, e0 = rbound_minorant(pair)
        p0 = 1e-3
        assert c * p0 * p0 / (e0 + p0 * p0) <= 1.0 - r_of_p(pair, p0)

    def test_holds_on_dense_scan(self, pair):
        # c is a minimum over the 200 fitted momenta in [1e-3, 50], so it is tested
        # between other momenta, out to p = 100, which the n = 400 grid still resolves
        c, e0 = rbound_minorant(pair)
        p_fit = np.logspace(-3, 2, 200)
        p = np.sqrt(p_fit[1:] * p_fit[:-1])
        lhs = 1.0 - r_of_p(pair, p)
        rhs = c * p * p / (e0 + p * p)
        assert np.all(lhs > rhs)

    def test_window_ends_where_the_radial_panels_resolve(self, pair):
        # 25 panels of 16 nodes on [0, 12]: P_res = 1.5 * 16 / 0.48 = 50
        p = minorant_momenta(pair)
        assert (len(p), p[0]) == (200, pytest.approx(1e-3))
        assert p[-1] == pytest.approx(50.0)

    @pytest.mark.parametrize(
        "config, V, n",
        [("gaussian.json", None, n) for n in range(160, 417, 16)]
        + [("square_well_1d.json", None, n) for n in (176, 208, 224, 288, 304)]
        + [("gaussian.json", InteractionPotential("square_well", 2.0, 1.0), 192)],
        ids=lambda v: getattr(v, "family", str(v)),
    )
    def test_certified_at_every_resolution(self, config, V, n):
        # with the window reaching p = 100 the certificate read about -1e-3 at
        # gaussian.json's n = 208, 288 and 304, square_well_1d.json's 176, 208,
        # 224, 288 and 304 and square-well V's 192: R(p) was quadrature noise there
        model, numerics = load_config(CONFIGS / config)
        if V is not None:
            model = dataclasses.replace(model, V=V)
        res = _battery(model, dataclasses.replace(numerics, n_r=n, n_p=n))
        cert = res["minorant_certificate"]
        assert cert.passed and 0.0 < cert.measured < 1e-6

    def test_minimum_between_fitted_momenta_is_certified(self, artifacts, pair):
        # 5 % of the pair density moved onto the node nearest r = 11.46 puts an
        # interior minimum into (1 - R)(E0 + p^2)/p^2 near p = 1.27; c taken as
        # the sampled minimum (0.49992) left a midpoint margin of -7.3e-5 there
        grid = pair.phi_star.grid
        i = int(np.argmin(abs(grid.nodes - 11.46)))
        dens = 4.0 * math.pi * grid.weights[i] * grid.nodes[i] ** 2
        values = math.sqrt(0.95) * pair.phi_star.values
        values[i] = math.sqrt(values[i] ** 2 + 0.05 / dens)
        corrupt = dataclasses.replace(pair, phi_star=RadialFunction(grid, values))
        c, e0 = rbound_minorant(corrupt)
        p_fit = minorant_momenta(corrupt)
        p_mid = np.sqrt(p_fit[1:] * p_fit[:-1])
        margin = 1.0 - r_of_p(corrupt, p_mid) - c * p_mid**2 / (e0 + p_mid**2)
        assert c > 0.0 and margin.min() > 0.0
        top = artifacts["pair_top"][1]
        res = {r.id: r for r in run_identity_checks(**{**artifacts, "pair_top": (corrupt, top)})}
        cert = res["minorant_certificate"]
        assert cert.passed and cert.measured == pytest.approx(margin.min(), rel=1e-12)

    def test_no_positive_minorant_is_recorded(self, artifacts, pair):
        # phi* scaled by 1 + 1e-6 lifts R(p) above 1 at small p, where 1 - R(p)
        # then falls below every c p^2 / (E0 + p^2) with c > 0
        grid = pair.phi_star.grid
        corrupt = dataclasses.replace(
            pair, phi_star=RadialFunction(grid, (1.0 + 1e-6) * pair.phi_star.values)
        )
        c, e0 = rbound_minorant(corrupt)
        p = minorant_momenta(corrupt)
        assert c <= 0.0 and e0 > 0.0
        assert np.all(1.0 - r_of_p(corrupt, p) >= c * p * p / (e0 + p * p))
        top = artifacts["pair_top"][1]
        results = run_identity_checks(**{**artifacts, "pair_top": (corrupt, top)})
        assert [r.id for r in results] == list(CHECKS)
        cert = results[-1]
        assert cert.id == "minorant_certificate"
        assert not cert.passed and cert.measured <= c

    def test_large_p_overlap_read_where_resolved(self):
        # at n = 160 the radial grid resolves R(p) only up to P_res = 20, and
        # R(50) read quadrature noise, 3.3e-3 off the limit
        model, numerics = load_config(CONFIGS / "gaussian.json")
        res = _battery(model, dataclasses.replace(numerics, n_r=160, n_p=160))
        assert res["overlap_large_p"].measured < 1e-8


class TestHalfResolution:
    """``norm_half_resolution`` re-solves the profile on half the grid nodes."""

    @pytest.mark.parametrize("config", ["gaussian.json", "square_well_1d.json"])
    def test_resolved_on_shipped_configs(self, config):
        res = _battery(*load_config(CONFIGS / config))
        assert [cid for cid, r in res.items() if not r.passed] == []
        assert res["kernel_symmetry"].measured == res["amplitude_linearity_matrix"].measured == 0.0
        assert res["norm_half_resolution"].measured <= 1e-10

    def test_trips_on_square_well_interaction(self, model, numerics):
        # the jump of V at r = range falls inside a quadrature panel, which
        # leaves lambda0 about 1.7 % off at n = 400 (a position-space route
        # on the same radial quadrature agreed to 5e-10)
        square = dataclasses.replace(model, V=InteractionPotential("square_well", 2.0, 1.0))
        res = _battery(square, numerics)
        assert [cid for cid, r in res.items() if not r.passed] == ["norm_half_resolution"]
        assert res["norm_half_resolution"].measured > 1e-3

    @pytest.mark.parametrize(
        "V",
        [
            # beta_c 617.6: the position-space route was 2.0e-2 off here
            InteractionPotential("gaussian", 0.8, 1.0),
            # the route was 1.4e-4 off here
            InteractionPotential("exponential", 1.0, 1.0),
        ],
        ids=["gaussian-0.8", "exponential-1"],
    )
    def test_passes_where_the_position_route_failed(self, model, numerics, V):
        res = _battery(dataclasses.replace(model, V=V), numerics)
        assert [cid for cid, r in res.items() if not r.passed] == []
        assert res["norm_half_resolution"].measured <= 1e-9

    def test_raising_re_solve_is_recorded(self, artifacts):
        def t_half():
            raise NoBracket("no crossing at half resolution")

        res = {r.id: r for r in run_identity_checks(**{**artifacts, "t_half": t_half})}
        assert [cid for cid, r in res.items() if not r.passed] == ["norm_half_resolution"]
        assert res["norm_half_resolution"].measured == math.inf

    def test_halved_grid_below_the_schema_minimum_is_recorded(self, model, numerics):
        # n_r = 15 halves to 7, below the minimum of 8 that Numerics enforces
        res = _battery(model, dataclasses.replace(numerics, n_r=15))
        norm = res["norm_half_resolution"]
        assert (norm.measured, norm.passed) == (math.inf, False)
