"""Coefficient pipeline tests: the profile and its normalization, functional
identities, overlap asymptotics.  These are the checks that tie the
momentum-space formulas to the operator they came from."""

import dataclasses
import math

import numpy as np
import pytest

from tcshift.birman_schwinger import PairState
from tcshift.errors import ZeroNormError
from tcshift.gl import (
    TAU_HAT_FACTOR,
    a_functionals,
    compute_lambdas,
    compute_t,
    r_of_p,
    small_p_overlap_coefficient,
    tau_hat_from_t,
)
from tcshift.grids import (
    RadialFunction,
    ft3_radial,
    radial_inner,
    spherical_j0,
)
from tcshift.kernels import chi, hessian_L_closed
from tcshift.model import InteractionPotential, Numerics
from tcshift.pipeline import Pipeline

from dense_reference import apply_kernel, assemble_chi_kernel


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


WEAK_COUPLING_LIMIT = 7.0 * 1.2020569031595942 / (12.0 * math.pi**2)  # 7 zeta(3) / (12 pi^2)


class TestWeakCouplingLimit:
    """(lambda0/lambda2) T_c^2 / mu tends to 7 zeta(3) / (12 pi^2) = 0.0710464 for every V.

    Units hbar = 2m = 1: a particle of momentum p has energy p^2 - mu, so
    the Fermi velocity is v_F = 2 sqrt(mu).  A pair of total momentum q has
    members at p + q/2 and -p + q/2, with energies xi_+- = xi +- v_F.q/2 near
    the Fermi sphere (xi = p^2 - mu).  In the weak-coupling limit the pair
    susceptibility comes from the thermal shell |xi| ~ T, where V is constant
    on the scale of T/v_F, so per unit density of states at the Fermi level
    it is 2 pi T sum over omega_n > 0 of the angle average of
    1 / (omega_n + (v_F.q/2)^2 / omega_n), with omega_n = (2n + 1) pi T.  To
    order q^2 it drops by 2 pi T (v_F^2 q^2 / 12) sum_n omega_n^-3 =
    7 zeta(3) v_F^2 q^2 / (48 pi^2 T^2), using sum_n (2n + 1)^-3 = 7 zeta(3) / 8.
    Its q = 0 value falls by d ln T, so the critical temperature of the
    pair obeys T_c(q) = T_c (1 - (lambda0/lambda2) q^2) with
    lambda0/lambda2 = 7 zeta(3) v_F^2 / (48 pi^2 T_c^2) = 7 zeta(3) mu / (12 pi^2 T_c^2),
    which is Gor'kov's coherence length of the clean BCS Ginzburg-Landau theory.

    Measured at n = 400 the ratio is within 3.7e-6 of the limit on the
    models below (T_c/mu from 1.6e-4 to 9.3e-4).  Above T_c/mu of about 1e-3
    the (T_c/mu)^2 correction shows (1e-5 at 1.6e-3); below about 1e-4 the
    momentum grid does not resolve the Fermi layer (gaussian mu = 1, a = 0.5
    reads +7.5e-4, exponential mu = 2, a = 0.4 reads -41 %).
    """

    @pytest.mark.parametrize(
        "family, mu, amplitude",
        [
            ("gaussian", 1.0, 0.6),
            ("gaussian", 1.0, 0.7),
            ("gaussian", 2.0, 0.7),
            ("gaussian", 2.0, 0.8),
            ("exponential", 1.0, 0.5),
            ("exponential", 2.0, 0.6),
            ("exponential", 2.0, 0.7),
        ],
    )
    def test_ratio_reaches_the_bcs_limit(self, model, family, mu, amplitude):
        weak = dataclasses.replace(model, V=InteractionPotential(family, amplitude, 1.0), mu=mu)
        gl = Pipeline(weak, Numerics(n_r=400, n_p=400)).gl()
        assert 1.5e-4 <= gl.T_c / mu <= 1e-3
        ratio = gl.lambda0 / gl.lambda2 * gl.T_c**2 / mu
        assert ratio == pytest.approx(WEAK_COUPLING_LIMIT, rel=1e-5)


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

    def test_matches_the_formula_on_all_momenta_at_once(self, pair):
        # R is built a block of momenta at a time; 200 momenta span several blocks
        p = np.logspace(-3, 2, 200)
        g = pair.phi_star.grid
        dens = 4.0 * math.pi * g.weights * g.nodes**2 * pair.phi_star.values**2
        formula = (0.5 * (1.0 + spherical_j0(np.outer(p, g.nodes)))) @ dens
        assert np.max(np.abs(r_of_p(pair, p) - formula)) <= 1e-15

    def test_large_p_plateau(self, pair, model):
        p_large = 50.0 / model.V.range
        assert abs((1.0 - r_of_p(pair, p_large)) - 0.5) < 0.02

    def test_small_p_coefficient(self, pair):
        c = small_p_overlap_coefficient(pair)
        p = 1e-3
        measured = (1.0 - r_of_p(pair, p)) / (p * p)
        assert measured == pytest.approx(c, rel=1e-4)
