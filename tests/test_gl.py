"""Coefficient pipeline tests: two-route normalizations, functional identities,
overlap asymptotics.  These are the checks that tie the momentum-space
formulas to the operator they came from."""

import math
import tracemalloc

import numpy as np
import pytest

from tcshift.birman_schwinger import PairState
from tcshift.errors import ZeroNormError
from tcshift.gl import (
    TAU_HAT_FACTOR,
    a_functionals,
    compute_lambdas,
    compute_t,
    normalization_position_route,
    r_of_p,
    small_p_overlap_coefficient,
    tau_hat_from_t,
)
from tcshift.grids import (
    RadialFunction,
    apply_kernel,
    assemble_chi_kernel,
    ft3_radial,
    radial_inner,
)
from tcshift.kernels import chi, hessian_L_closed


@pytest.fixture(scope="module")
def t_profile(pair, tc, model, grids):
    return compute_t(pair, tc, model, grids)


@pytest.fixture(scope="module")
def gl(t_profile, tc, model, spectral_top):
    return compute_lambdas(t_profile, tc, model.mu, spectral_top.gap)


class TestTProfile:
    def test_sign_flip_covariance(self, pair, tc, model, grids):
        flipped = PairState(
            phi_star=RadialFunction(pair.phi_star.grid, -pair.phi_star.values),
            v_half_phi=RadialFunction(pair.v_half_phi.grid, -pair.v_half_phi.values),
        )
        t1 = compute_t(pair, tc, model, grids)
        t2 = compute_t(flipped, tc, model, grids)
        np.testing.assert_array_equal(t2.values, -t1.values)

    def test_normalization_two_routes(self, pair, tc, model, numerics, t_profile):
        # position-space route on the enlarged verification domain
        n_pos = normalization_position_route(pair, tc, model, numerics)
        assert n_pos == pytest.approx(t_profile.normalization_N, rel=1e-8)

    def test_position_route_builds_no_full_table(self, pair, tc, model, numerics):
        # on the default model (configs/gaussian.json) the verification domain's
        # j0 table would be 2656 x 1596, 34 MB; the route builds it a block at a time
        tracemalloc.start()
        try:
            normalization_position_route(pair, tc, model, numerics)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_tail_decay(self, t_profile):
        tail = abs(t_profile.values[-1])
        assert tail < 1e-3 * np.max(np.abs(t_profile.values))

    def test_zero_state_raises(self, pair, tc, model, grids):
        zero = PairState(
            phi_star=RadialFunction(pair.phi_star.grid, 0.0 * pair.phi_star.values),
            v_half_phi=RadialFunction(pair.v_half_phi.grid, 0.0 * pair.v_half_phi.values),
        )
        with pytest.raises(ZeroNormError):
            compute_t(zero, tc, model, grids)


class TestLambdas:
    def test_positivity(self, gl):
        assert gl.lambda0 > 0.0
        assert gl.lambda2 > 0.0

    def test_invariant_under_t_sign(self, t_profile, tc, model, spectral_top, gl):
        flipped = type(t_profile)(
            pgrid=t_profile.pgrid,
            values=-t_profile.values,
            normalization_N=t_profile.normalization_N,
        )
        gl2 = compute_lambdas(flipped, tc, model.mu, spectral_top.gap)
        assert gl2.lambda0 == gl.lambda0
        assert gl2.lambda1 == gl.lambda1
        assert gl2.lambda2 == gl.lambda2

    def test_zero_profile_rejected(self, t_profile, tc, model, spectral_top):
        from tcshift.errors import PositivityViolation

        zero = type(t_profile)(
            pgrid=t_profile.pgrid,
            values=0.0 * t_profile.values,
            normalization_N=1.0,
        )
        with pytest.raises(PositivityViolation):
            compute_lambdas(zero, tc, model.mu, spectral_top.gap)


class TestAFunctionals:
    def test_a0_two_routes(self, grids, model):
        # momentum-space a0 vs position-space quadratic form of the multiplier
        rg = grids.rgrid
        rng = np.random.default_rng(7)
        beta = 2.5
        K = assemble_chi_kernel(beta, model.mu, grids)
        for _ in range(5):
            width = rng.uniform(0.6, 1.6)
            tau_pos = RadialFunction(rg, np.exp(-0.5 * (rg.nodes / width) ** 2))
            tau_hat = ft3_radial(tau_pos, grids)
            a = a_functionals(tau_hat, 1.0 / beta, model.mu)
            chi_tau = apply_kernel(K, tau_pos)
            a0_pos = radial_inner(tau_pos, chi_tau)
            assert a.a0 == pytest.approx(a0_pos, rel=1e-8)

    def test_a0_is_chi_quadratic_form(self, grids, model):
        # on-shell content: integrand weight equals chi at each node
        pg = grids.pgrid
        tau = RadialFunction(pg, np.exp(-(pg.nodes**2)))
        beta = 3.0
        a = a_functionals(tau, 1.0 / beta, model.mu)
        direct = 4.0 * math.pi * np.sum(
            pg.weights * pg.nodes**2 * tau.values**2 * chi(beta, pg.nodes**2 - model.mu)
        )
        assert a.a0 == pytest.approx(direct, rel=1e-13)

    def test_kinetic_identity(self, t_profile, tc, model, gl):
        tau_hat = tau_hat_from_t(t_profile)
        a = a_functionals(tau_hat, tc.T_c, model.mu)
        assert a.a1 == pytest.approx(-gl.lambda0, rel=1e-8)

    def test_field_identity(self, t_profile, tc, model, gl):
        tau_hat = tau_hat_from_t(t_profile)
        a = a_functionals(tau_hat, tc.T_c, model.mu)
        assert a.a2 == pytest.approx(-gl.lambda1, rel=1e-8)

    def test_thermal_slope_identity(self, t_profile, tc, model, gl):
        tau_hat = tau_hat_from_t(t_profile)
        dT = 1e-3 * tc.T_c
        hi = a_functionals(tau_hat, tc.T_c + dT, model.mu)
        lo = a_functionals(tau_hat, tc.T_c - dT, model.mu)
        slope = (hi.a0 - lo.a0) / (2.0 * dT)
        assert slope == pytest.approx(-gl.lambda2 / tc.T_c, rel=1e-5)

    def test_kinetic_integrand_matches_hessian(self, tc, model, grids):
        # a1's per-momentum weight is (1/6) of the closed-form Laplacian of
        # the two-point kernel; checked pointwise at sample momenta
        beta = tc.beta_c
        from tcshift.kernels import g1, g2

        for p in np.linspace(0.2, 2.4, 10):
            z = beta * (p * p - model.mu)
            weight = -(beta * beta / 4.0) * (g1(z) + (2.0 / 3.0) * beta * p * p * g2(z))
            hess = hessian_L_closed(beta, model.mu, p)
            assert weight == pytest.approx(hess / 6.0, rel=1e-10)

    def test_tau_hat_factor(self):
        assert TAU_HAT_FACTOR == pytest.approx(0.5 * (2 * math.pi) ** -1.5, rel=0)


class TestOverlap:
    def test_at_zero(self, pair):
        assert r_of_p(pair, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_bounded(self, pair):
        p = np.logspace(-3, 2, 200)
        R = r_of_p(pair, p)
        assert np.all(R >= 0.0) and np.all(R <= 1.0)
        assert np.all(1.0 - R > 0.0)

    def test_large_p_plateau(self, pair, model):
        p_large = 50.0 / model.V.range
        assert abs((1.0 - r_of_p(pair, p_large)) - 0.5) < 0.02

    def test_small_p_coefficient(self, pair):
        c = small_p_overlap_coefficient(pair)
        p = 1e-3
        measured = (1.0 - r_of_p(pair, p)) / (p * p)
        assert measured == pytest.approx(c, rel=1e-4)
