"""Verification battery tests: all green on the default model, sensitive to
injected faults, and classified so identity checks survive tolerance
tightening that kills quadrature-level ones."""

import dataclasses

import numpy as np
import pytest

from tcshift.checks import TOLERANCES, Artifacts, rbound_minorant, run_identity_checks
from tcshift.gl import compute_lambdas, compute_t


@pytest.fixture(scope="module")
def artifacts(model, numerics, grids, tc, pair_and_top):
    pair, top = pair_and_top
    t = compute_t(pair, tc, model, grids)
    gl = compute_lambdas(t, tc, model.mu, top.gap)
    return Artifacts(
        model=model,
        numerics=numerics,
        grids=grids,
        tc=tc,
        pair=pair,
        top=top,
        t_profile=t,
        gl=gl,
    )


@pytest.fixture(scope="module")
def results(artifacts):
    return run_identity_checks(artifacts)


class TestBattery:
    def test_all_pass_on_default_model(self, results):
        failed = [r.id for r in results if not r.passed]
        assert failed == [], f"failing checks: {failed}"

    def test_every_registered_check_ran(self, results):
        ran = {r.id for r in results}
        assert ran == set(TOLERANCES)

    def test_reproducible(self, artifacts, results):
        again = run_identity_checks(artifacts)
        assert [(r.id, r.measured) for r in again] == [(r.id, r.measured) for r in results]

    def test_corrupted_thermal_coefficient_trips_slope_check(self, artifacts):
        bad_gl = dataclasses.replace(artifacts.gl, lambda2=1.1 * artifacts.gl.lambda2)
        bad = dataclasses.replace(artifacts, gl=bad_gl)
        res = {r.id: r for r in run_identity_checks(bad)}
        slope = res["gl_thermal_slope"]
        assert not slope.passed
        # measured relative deviation ~ 1 - 1/1.1
        assert slope.measured == pytest.approx(1.0 - 1.0 / 1.1, rel=1e-2)

    def test_tolerance_tightening_classifies(self, artifacts):
        res = {r.id: r for r in run_identity_checks(artifacts, tolerance_scale=1e-6)}
        # quadrature- and truncation-limited checks fail a million-fold tightening
        quadrature_limited = (
            "matsubara_tanh_convergence",
            "matsubara_xi_convergence",
            "hessian_identity",
            "bs_round_trip",
            "norm_two_route",
            "gl_thermal_slope",
            "overlap_small_p",
        )
        for cid in quadrature_limited:
            assert not res[cid].passed, cid
        # structurally exact identities survive any tightening
        for cid in ("kernel_symmetry", "amplitude_linearity_matrix", "t_sign_covariance"):
            assert res[cid].passed, cid

    def test_categories_are_known(self, results):
        assert {r.category for r in results} <= {"closed_form", "identity", "oracle"}


class TestMinorant:
    def test_certificate(self, pair):
        c, e0 = rbound_minorant(pair)
        assert c > 0.0
        assert e0 > 0.0
        # asymptotic cap: the plateau of 1 - R at one half limits c
        assert c <= 0.5 * 1.05

    def test_small_p_binding(self, pair):
        # minorant <= function at the smallest sampled momentum
        from tcshift.gl import r_of_p

        c, e0 = rbound_minorant(pair)
        p0 = 1e-3
        assert c * p0 * p0 / (e0 + p0 * p0) <= 1.0 - r_of_p(pair, p0)

    def test_holds_on_dense_scan(self, pair):
        from tcshift.gl import r_of_p

        c, e0 = rbound_minorant(pair)
        p = np.logspace(-3, 2, 200)
        lhs = 1.0 - r_of_p(pair, p)
        rhs = c * p * p / (e0 + p * p)
        assert np.all(lhs >= rhs - 1e-14)
