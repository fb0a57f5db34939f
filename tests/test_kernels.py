"""Scalar kernel tests: dual closed forms, limits, frequency-sum convergence.

Expected values come from independent routes: direct evaluation of the
defining formulas away from singular points, mpmath high-precision
references, and finite-difference oracles.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tcshift.kernels import (
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

mp.mp.dps = 40

SAMPLE_Z = [1e-8, 1e-4, 0.1, 1.0, 10.0, 50.0]
SAMPLE_Z = SAMPLE_Z + [-z for z in SAMPLE_Z]


def mp_g1(z):
    z = mp.mpf(z)
    if z == 0:
        return mp.mpf(0)
    return (mp.sinh(z) - z) / (2 * z**2 * mp.cosh(z / 2) ** 2)


def mp_g2(z):
    z = mp.mpf(z)
    if z == 0:
        return mp.mpf("0.25")
    return mp.tanh(z / 2) / (2 * z * mp.cosh(z / 2) ** 2)


class TestG0:
    def test_limit_at_zero(self):
        assert g0(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_direct_value(self):
        # tanh(0.5)/1, direct evaluation of the defining formula
        assert g0(1.0) == pytest.approx(0.46211715726000976, abs=1e-14)

    def test_even(self):
        z = np.array([1e-9, 1e-5, 0.3, 3.0, 30.0, 300.0])
        np.testing.assert_allclose(g0(-z), g0(z), rtol=0, atol=0)

    def test_series_matches_direct_at_branch(self):
        # continuity across the series threshold
        for z in [0.9e-4, 1.1e-4]:
            assert g0(z) == pytest.approx(float(mp.tanh(mp.mpf(z) / 2) / mp.mpf(z)), rel=1e-14)

    def test_huge_argument(self):
        assert g0(1e8) == pytest.approx(1e-8, rel=1e-13)


class TestG1:
    def test_limit_at_zero(self):
        assert g1(0.0) == 0.0
        assert abs(g1(1e-9) - 1e-9 / 12.0) < 1e-22

    def test_two_forms_agree_on_sample(self):
        for z in SAMPLE_Z:
            a, b = g1_exp_form(z), g1_sinh_form(z)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a)), f"z={z}: {a} vs {b}"

    def test_against_mpmath(self):
        for z in SAMPLE_Z + [0.49, 0.51, 300.0, 350.0, 400.0, -400.0]:
            ref = float(mp_g1(z))
            assert g1(z) == pytest.approx(ref, rel=1e-13, abs=1e-300)
            assert g1_exp_form(z) == pytest.approx(ref, rel=5e-12, abs=1e-300)

    def test_odd(self):
        z = np.array([1e-8, 1e-3, 0.2, 2.0, 20.0, 200.0])
        np.testing.assert_allclose(g1(-z), -g1(z), rtol=0, atol=0)

    def test_no_overflow(self):
        assert np.isfinite(g1(1e6))
        assert np.isfinite(g1_exp_form(1e6))


class TestG2:
    def test_limit_at_zero(self):
        assert g2(0.0) == pytest.approx(0.25, abs=1e-15)

    def test_two_forms_agree_on_sample(self):
        for z in SAMPLE_Z:
            a, b = g2_exp_form(z), g2_tanh_form(z)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a)), f"z={z}: {a} vs {b}"

    def test_against_mpmath(self):
        for z in SAMPLE_Z + [250.0, 400.0, -400.0]:
            ref = float(mp_g2(z))
            assert g2(z) == pytest.approx(ref, rel=1e-13, abs=1e-300)
            assert g2_exp_form(z) == pytest.approx(ref, rel=5e-12, abs=1e-300)

    def test_even(self):
        z = np.array([1e-8, 1e-3, 0.2, 2.0, 20.0])
        np.testing.assert_allclose(g2(-z), g2(z), rtol=0, atol=0)

    def test_exponential_decay(self):
        assert abs(g2(100.0)) < 1e-12


class TestChi:
    def test_removable_singularity(self):
        for beta in [0.5, 2.0, 100.0]:
            assert chi(beta, 0.0) == pytest.approx(beta / 2.0, rel=1e-14)

    def test_even_in_E(self):
        E = np.array([1e-7, 0.1, 1.0, 10.0])
        np.testing.assert_allclose(chi(3.0, -E), chi(3.0, E), rtol=0)

    def test_direct_value(self):
        assert chi(2.0, 1.0) == pytest.approx(0.7615941559557649, abs=1e-15)

    def test_equals_scaled_g0(self):
        for beta, E in [(0.3, 2.0), (7.0, -0.4)]:
            assert chi(beta, E) == pytest.approx(beta * g0(beta * E), rel=1e-15)

    @given(
        E=st.floats(-30.0, 30.0),
        b1=st.floats(0.01, 50.0),
        scale=st.floats(1.01, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_strictly_increasing_in_beta(self, E, b1, scale):
        # away from tanh saturation, where strictness is representable in doubles
        assume(b1 * scale * abs(E) / 2.0 < 17.0)
        assert chi(b1 * scale, E) > chi(b1, E)

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            chi(0.0, 1.0)
        with pytest.raises(ValueError):
            chi(-1.0, 1.0)


class TestXi:
    def test_antidiagonal_limit(self):
        for beta, E in [(1.0, 0.7), (4.0, -2.0), (0.3, 10.0)]:
            ref = (beta / 2.0) / math.cosh(beta * E / 2.0) ** 2
            assert xi(beta, E, -E) == pytest.approx(ref, rel=1e-13)

    def test_coincident_equals_chi(self):
        for beta, E in [(1.0, 0.7), (2.5, -1.2), (1.0, 0.0)]:
            assert xi(beta, E, E) == pytest.approx(chi(beta, E), rel=1e-14)

    def test_continuity_across_antidiagonal(self):
        beta, E = 2.0, 1.3
        eps = 1e-5
        a = xi(beta, E, -E + eps)
        b = xi(beta, E, -E)
        c = xi(beta, E, -E - eps)
        assert abs(a - b) < 1e-4 * abs(b)
        assert abs(c - b) < 1e-4 * abs(b)

    @given(
        beta=st.floats(0.01, 100.0),
        E=st.floats(-40.0, 40.0),
        Ep=st.floats(-40.0, 40.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_symmetric_and_bounded_by_chi_mean(self, beta, E, Ep):
        a = xi(beta, E, Ep)
        assert a == xi(beta, Ep, E)
        bound = 0.5 * (chi(beta, E) + chi(beta, Ep))
        assert a <= bound * (1 + 1e-12) + 1e-15

    def test_large_beta_no_overflow(self):
        v = xi(1e6, 3.0, -3.0 + 1e-9)
        assert np.isfinite(v) and v >= 0.0

    def test_against_mpmath(self):
        for beta, E, Ep in [(1.0, 1.0, 2.0), (3.0, -0.5, 0.2), (10.0, 4.0, -3.99)]:
            ref = float(
                (mp.tanh(mp.mpf(beta) * E / 2) + mp.tanh(mp.mpf(beta) * Ep / 2)) / (mp.mpf(E) + mp.mpf(Ep))
            )
            assert xi(beta, E, Ep) == pytest.approx(ref, rel=1e-12)


class TestLpq:
    def test_coincident(self):
        assert L_pq(2.0, 1.0, 0.6, 0.6) == pytest.approx(chi(2.0, 0.6**2 - 1.0), rel=1e-14)

    def test_mirror_energies(self):
        beta, mu = 1.5, 1.0
        p = 1.2
        q = math.sqrt(2 * mu - p * p)  # q^2-mu = -(p^2-mu)
        ref = (beta / 2.0) / math.cosh(beta * (p * p - mu) / 2.0) ** 2
        assert L_pq(beta, mu, p, q) == pytest.approx(ref, rel=1e-12)

    @given(
        p=st.floats(0.0, 6.0),
        q=st.floats(0.0, 6.0),
        beta=st.floats(0.1, 20.0),
        mu=st.floats(-2.0, 4.0),
    )
    @settings(max_examples=200, deadline=None)
    @example(p=0.0, q=2.0, beta=2.25, mu=2.00001)  # near-diagonal branch, once 1 ulp apart
    def test_symmetry(self, p, q, beta, mu):
        assert L_pq(beta, mu, p, q) == L_pq(beta, mu, q, p)


def fd_laplacian_of_L(beta, mu, k, h):
    """Sum of the three axis second differences of ell -> L(|k+ell/2|, |k-ell/2|) at ell=0."""

    def f_par(t):
        return L_pq(beta, mu, abs(k + t / 2.0), abs(k - t / 2.0))

    def f_perp(t):
        m = math.sqrt(k * k + t * t / 4.0)
        return L_pq(beta, mu, m, m)

    c = f_par(0.0)
    d2_par = (f_par(h) - 2.0 * c + f_par(-h)) / (h * h)
    d2_perp = (f_perp(h) - 2.0 * c + f_perp(-h)) / (h * h)
    return d2_par + 2.0 * d2_perp


class TestHessian:
    def test_on_shell_value(self):
        # k^2 = mu: closed form collapses to -beta^3 mu / 4
        beta, mu = 1.7, 0.9
        k = math.sqrt(mu)
        assert hessian_L_closed(beta, mu, k) == pytest.approx(-(beta**3) * mu / 4.0, rel=1e-13)

    def test_matches_finite_differences_spot(self):
        val = hessian_L_closed(1.0, 1.0, 0.7)
        fd = fd_laplacian_of_L(1.0, 1.0, 0.7, 1e-3)
        assert abs(val - fd) < 1e-6

    def test_matches_finite_differences_sampled(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            beta = rng.uniform(0.5, 5.0)
            mu = rng.uniform(-1.0, 3.0)
            k = rng.uniform(0.05, 2.5)
            h = 1e-3 / max(1.0, beta * max(k, math.sqrt(abs(mu)), 1.0))
            val = hessian_L_closed(beta, mu, k)
            fd = fd_laplacian_of_L(beta, mu, k, h)
            assert abs(val - fd) <= 1e-6 * max(1.0, abs(val)), (beta, mu, k)

    def test_beta_scaling(self):
        # H(beta, mu, k) = beta^2 H(1, beta*mu, sqrt(beta)*k)
        for beta, mu, k in [(2.0, 0.7, 1.1), (5.0, -0.3, 0.4)]:
            lhs = hessian_L_closed(beta, mu, k)
            rhs = beta * beta * hessian_L_closed(1.0, beta * mu, math.sqrt(beta) * k)
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestMatsubaraTanh:
    def test_converges_to_tanh(self):
        assert matsubara_tanh(1.0, 10**4) == pytest.approx(math.tanh(1.0), abs=1e-4)

    def test_zero_is_exact_for_any_truncation(self):
        for n in [1, 7, 1000]:
            assert matsubara_tanh(0.0, n) == 0.0

    def test_error_decay_rate(self):
        # paired tail is O(1/n_max): halving the error when doubling n_max
        z = 1.0
        e1 = abs(matsubara_tanh(z, 20000) - math.tanh(z))
        e2 = abs(matsubara_tanh(z, 40000) - math.tanh(z))
        assert e1 / e2 == pytest.approx(2.0, rel=0.2)

    def test_complex_argument(self):
        z = 0.5 + 0.3j
        approx = matsubara_tanh(z, 10**5)
        ref = np.tanh(z)
        assert abs(approx - ref) < 1e-4

    def test_pole_proximity_raises(self):
        with pytest.raises(ValueError):
            matsubara_tanh(1j * (math.pi / 2) + 1e-12, 100)

    def test_rejects_bad_truncation(self):
        with pytest.raises(ValueError):
            matsubara_tanh(1.0, 0)


class TestMatsubaraXi:
    def test_converges_to_closed_form(self):
        ref = xi(1.0, 1.0, 2.0)
        assert matsubara_xi(1.0, 1.0, 2.0, 10**4) == pytest.approx(ref, abs=1e-3)
        # frozen: (tanh(1/2)+tanh(1))/3
        assert ref == pytest.approx(0.40790377107192488, abs=1e-15)

    def test_antidiagonal_limit(self):
        beta, E = 1.0, 0.8
        ref = (beta / 2.0) / math.cosh(beta * E / 2.0) ** 2
        assert matsubara_xi(beta, E, -E, 10**5) == pytest.approx(ref, abs=1e-4)

    def test_swap_is_identical(self):
        for n in [10, 1000]:
            a = matsubara_xi(2.0, 0.7, -1.3, n)
            b = matsubara_xi(2.0, -1.3, 0.7, n)
            assert a == b

    def test_error_decay_rate(self):
        ref = xi(1.0, 1.0, 2.0)
        e1 = abs(matsubara_xi(1.0, 1.0, 2.0, 5000) - ref)
        e2 = abs(matsubara_xi(1.0, 1.0, 2.0, 10000) - ref)
        assert e1 / e2 == pytest.approx(2.0, rel=0.2)

    def test_monotone_error(self):
        ref = xi(1.5, 0.3, 1.1)
        errs = [abs(matsubara_xi(1.5, 0.3, 1.1, n) - ref) for n in (100, 200, 400, 800)]
        assert all(a > b for a, b in zip(errs, errs[1:]))
