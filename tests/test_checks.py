"""Verification battery tests: all green on the default model, sensitive to
injected faults through both the tolerance and the bound pass rules, and
exact identities survive tolerance tightening that kills quadrature-limited
ones."""

import dataclasses

import numpy as np
import pytest

from tcshift.checks import CHECKS, rbound_minorant, run_identity_checks
from tcshift.gl import compute_lambdas, compute_t


@pytest.fixture(scope="module")
def artifacts(model, numerics, solver, tc, pair_and_top):
    """``run_identity_checks``'s keyword arguments on the default model."""
    t = compute_t(pair_and_top[0], tc, model, solver.grids)
    gl = compute_lambdas(t, tc, model.mu, pair_and_top[1].gap)
    return dict(
        model=model, numerics=numerics, solver=solver, tc=tc, pair_top=pair_and_top, t=t, gl=gl
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

    def test_tolerance_tightening_classifies(self, artifacts):
        res = {r.id: r for r in run_identity_checks(**artifacts, tolerance_scale=1e-6)}
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
