"""Spectral solver tests: monotonicity, linearity, bracket certificates."""

import dataclasses
import math
import random
from pathlib import Path

import numpy as np
import pytest

from tcshift import birman_schwinger as bs
from tcshift.birman_schwinger import RANGE_K0, RANGE_RTOL, BsSolver, sup_spec_zero_temperature
from tcshift.errors import AssumptionViolation, GridError, NoBracket
from tcshift.grids import (
    GridPair,
    RadialFunction,
    RadialGrid,
    radial_inner,
    row_blocks,
)
from tcshift.model import (
    ExternalField,
    InteractionPotential,
    Numerics,
    PhysicalModel,
    load_config,
)
from tcshift.pipeline import Pipeline

from conftest import default_model
from dense_reference import apply_kernel, assemble_chi_kernel, bs_matrix

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def scaled_model(c):
    m = default_model()
    return PhysicalModel(
        V=InteractionPotential(family="gaussian", amplitude=c * 2.0, range=1.0),
        W=m.W,
        mu=m.mu,
        h_values=m.h_values,
    )


def below_sphere(n=160):
    """Production solver at mu = -1, where 1/(p^2 - mu) is bounded and beta = inf is allowed."""
    m = dataclasses.replace(default_model(), mu=-1.0)
    return BsSolver(m, Numerics(n_r=n, n_p=n).build_grids(m))


class TestAssemble:
    def test_zero_interaction_gives_zero_matrix(self, grids):
        m = PhysicalModel(
            V=InteractionPotential(family="gaussian", amplitude=0.0, range=1.0),
            W=ExternalField(family="zero"),
            mu=1.0,
        )
        M = bs_matrix(BsSolver(m, grids), 2.0)
        assert np.all(M == 0.0)

    def test_amplitude_scaling_exact_at_matrix_level(self, grids, solver):
        # x4 amplitude scales sqrt(V) by exactly 2, every entry by exactly 4
        M1 = bs_matrix(solver, 2.0)
        M4 = bs_matrix(BsSolver(scaled_model(4.0), grids), 2.0)
        assert np.array_equal(M4, 4.0 * M1)

    def test_matrix_symmetric(self, solver):
        M = bs_matrix(solver, 3.0)
        assert np.array_equal(M, M.T)

    @pytest.mark.parametrize("beta", [0.5, 3.0, 50.0])
    def test_reduced_is_the_matrix_projected_on_the_range(self, solver, beta):
        # Q^T G = B, so Q^T M Q = B diag(chi) B^T up to rounding
        M, R = bs_matrix(solver, beta), solver.reduced(beta)
        assert np.array_equal(R, R.T)
        assert np.max(np.abs(solver._Q.T @ M @ solver._Q - R)) <= 1e-12 * np.max(np.abs(M))
        assert solver.lambda_of(beta) == float(np.linalg.eigvalsh(R)[-1])

    def test_matrix_psd(self, solver):
        vals = np.linalg.eigvalsh(bs_matrix(solver, 1.0))
        assert vals.min() > -1e-12 * vals.max()


class TestTopEigenvalues:
    def test_zero_matrix(self, grids):
        m = PhysicalModel(
            V=InteractionPotential(family="gaussian", amplitude=0.0, range=1.0),
            W=ExternalField(family="zero"),
            mu=1.0,
        )
        top = BsSolver(m, grids).top(1.0)
        assert top.lambda1 == 0.0 and top.lambda2 == 0.0 and top.gap == 0.0

    def test_rank_one(self, model, grids):
        # a one-node momentum grid makes G a single column
        one_node = RadialGrid(nodes=np.array([0.5]), weights=np.array([1.0]), r_max=1.0)
        s = BsSolver(model, GridPair(grids.rgrid, one_node))
        top = s.top(1.0)
        assert top.lambda1 == pytest.approx(float(np.trace(bs_matrix(s, 1.0))), rel=1e-12)
        assert abs(top.lambda2) < 1e-12 * top.lambda1

    def test_eigenvector_normalized_and_sign_fixed(self, solver):
        top = solver.top(5.0)
        phi = top.vector1
        assert radial_inner(phi, phi) == pytest.approx(1.0, rel=1e-12)
        r, w = phi.grid.nodes, phi.grid.weights
        assert 4.0 * math.pi * np.sum(w * r * r * phi.values) >= 0.0

    def test_deweight_reweight_round_trip(self, solver):
        top = solver.top(5.0)
        phi = top.vector1
        s = phi.grid.nodes * np.sqrt(4.0 * math.pi * phi.grid.weights)
        u = s * phi.values
        back = u / s
        assert np.max(np.abs(back - phi.values)) < 1e-14 * np.max(np.abs(phi.values))


class TestLambdaOfBeta:
    def test_monotone_on_log_grid(self, solver):
        betas = np.logspace(-1, 2, 10)
        lams = [solver.lambda_of(b) for b in betas]
        assert all(a < b for a, b in zip(lams, lams[1:]))

    def test_small_beta_vanishes(self, solver):
        assert solver.lambda_of(1e-4) < 1e-3

    def test_amplitude_linearity_of_lambda(self, grids, solver):
        lam1 = solver.lambda_of(2.0)
        for c in (0.5, 2.0, 10.0):
            lam_c = BsSolver(scaled_model(c), grids).lambda_of(2.0)
            assert lam_c == pytest.approx(c * lam1, rel=1e-12)

    def test_zero_temperature_dominates(self):
        # tanh(beta E / 2) / E < 1 / E for E = p^2 + 1 > 0
        s = below_sphere()
        assert all(s.lambda_of(math.inf) > s.lambda_of(b) for b in (0.5, 2.0, 10.0))


class TestSolveBetaC:
    def test_beta_c_value_and_bracket(self, tc, solver):
        lo, hi = tc.bracket
        assert lo < tc.beta_c < hi
        assert solver.lambda_of(lo) < 1.0 < solver.lambda_of(hi)

    def test_residual_at_beta_c(self, tc, solver):
        lam = solver.lambda_of(tc.beta_c)
        lo, hi = tc.bracket
        slope = (solver.lambda_of(hi) - solver.lambda_of(lo)) / (hi - lo)
        assert abs(lam - 1.0) <= 10.0 * tc.tolerance * tc.beta_c * abs(slope)

    def test_deterministic_rerun(self, model, grids, numerics):
        a = BsSolver(model, grids).solve_beta_c(numerics.beta_bracket, 1e-10)
        b = BsSolver(model, grids).solve_beta_c(numerics.beta_bracket, 1e-10)
        assert a.beta_c == b.beta_c

    def test_stronger_coupling_lowers_beta_c(self, grids, tc):
        tc2 = BsSolver(scaled_model(2.0), grids).solve_beta_c((0.1, 100.0), 1e-8)
        assert tc2.beta_c < tc.beta_c

    @pytest.mark.parametrize(
        "mu, amplitude, expands",
        [
            (1.0, 1.0, True),  # lambda(100) < 1: the hint's top end expands
            (-0.5, 8.0, False),  # mu <= 0: chi is bounded, T_c > 0 only from this coupling on
            (0.0, 4.0, False),
        ],
    )
    def test_bracket_certified(self, mu, amplitude, expands):
        m = dataclasses.replace(
            default_model(), mu=mu, V=InteractionPotential(family="gaussian", amplitude=amplitude)
        )
        num = Numerics(n_r=192, n_p=192)
        s = BsSolver(m, num.build_grids(m))
        assert (s.lambda_of(num.beta_bracket[1]) < 1.0) == expands
        tc = s.solve_beta_c(num.beta_bracket, num.beta_c_rel_tol)
        lo, hi = tc.bracket
        assert s.lambda_of(lo) < 1.0 < s.lambda_of(hi)
        assert hi - lo <= num.beta_c_rel_tol * 0.5 * (hi + lo)
        assert lo < tc.beta_c < hi

    def test_tc_stage_needs_few_lambda_evaluations(self, monkeypatch):
        # bisection from the default hint to 1e-8 takes 33 evaluations
        model, num = load_config(CONFIGS / "gaussian.json")
        p = Pipeline(model, num)
        p.validation()
        seen = set()
        lambda_of = BsSolver.lambda_of

        def counted(solver, beta):
            seen.add((id(solver), beta))
            return lambda_of(solver, beta)

        monkeypatch.setattr(BsSolver, "lambda_of", counted)
        p.tc()
        assert len(seen) <= 12

    def test_no_bracket_raises(self, grids):
        m = PhysicalModel(
            V=InteractionPotential(family="gaussian", amplitude=1e-6, range=1.0),
            W=ExternalField(family="zero"),
            mu=-1.0,  # bounded zero-temperature operator: weak coupling has no root
        )
        num = Numerics(n_r=128, n_p=128)
        with pytest.raises(NoBracket):
            BsSolver(m, num.build_grids(m)).solve_beta_c((0.1, 100.0), 1e-6)


class TestPairState:
    def test_lambda_one_at_beta_c(self, spectral_top, tc):
        assert spectral_top.lambda1 == pytest.approx(1.0, abs=1e-6)

    def test_gap_positive(self, spectral_top):
        assert spectral_top.gap > 1e-3

    def test_sign_convention(self, pair):
        phi = pair.phi_star
        r, w = phi.grid.nodes, phi.grid.weights
        assert 4.0 * math.pi * np.sum(w * r * r * phi.values) >= 0.0

    def test_birman_schwinger_round_trip(self, model, grids, tc, pair):
        # applying chi at beta_c then sqrt(V) reproduces phi*  (eigenvalue 1)
        rg = grids.rgrid
        K = assemble_chi_kernel(tc.beta_c, model.mu, grids)
        chi_w = apply_kernel(K, pair.v_half_phi)
        recovered = RadialFunction(
            grid=rg, values=np.sqrt(model.V(rg.nodes)) * chi_w.values
        )
        diff = RadialFunction(grid=rg, values=recovered.values - pair.phi_star.values)
        assert math.sqrt(radial_inner(diff, diff)) < 1e-6

    def test_phi_stable_under_grid_doubling(self, model, numerics, tc, pair):
        from scipy.interpolate import CubicSpline

        doubled = dataclasses.replace(numerics, n_r=2 * numerics.n_r, n_p=2 * numerics.n_p)
        s2 = BsSolver(model, doubled.build_grids(model))
        rg2 = s2.grids.rgrid
        tc2 = s2.solve_beta_c(numerics.beta_bracket, numerics.beta_c_rel_tol)
        pair2, _ = s2.extract_pair_state(tc2, numerics.gap_tol)
        coarse = CubicSpline(pair.phi_star.grid.nodes, pair.phi_star.values)(rg2.nodes)
        diff = RadialFunction(grid=rg2, values=pair2.phi_star.values - coarse)
        assert math.sqrt(radial_inner(diff, diff)) < 1e-5

    def test_degenerate_gap_raises(self, solver, tc):
        with pytest.raises(AssumptionViolation):
            solver.extract_pair_state(tc, gap_tol=1.0)


class TestZeroTemperature:
    def test_reported_with_delta(self, solver):
        # the bounded mu = -1 operator converges under grid doubling; mu > 0 is refused
        val, fine = (sup_spec_zero_temperature(below_sphere(n)) for n in (160, 320))
        assert val > 0.0
        assert abs(fine - val) < 1e-12 * val
        with pytest.raises(GridError):
            sup_spec_zero_temperature(solver)


def dense_compress(G, n_s):
    """The range finder on the first ``n_s`` rows of a formed G: Q (zero from row n_s
    on), B = Q^T G and ||G - Q B||_F over all of G."""
    n_r, n_p = G.shape
    tol = RANGE_RTOL * np.linalg.norm(G)
    k = RANGE_K0
    while k < min(n_s, n_p):
        Q = np.zeros((n_r, k))
        Q[:n_s], _ = np.linalg.qr(G[:n_s] @ bs._standard_normal(random.Random(0), (n_p, k)))
        B = Q.T @ G
        residual = float(np.linalg.norm(G - Q @ B))
        if residual <= tol:
            return Q, B, residual
        k *= 2
    return np.eye(n_r, n_s), G[:n_s], float(np.linalg.norm(G[n_s:]))


def fresh_compress(d, e, j0):
    """``_compress`` drawing each test matrix from a new ``random.Random(0)`` instead of
    the cache and summing ||G||_F in a pass of its own."""
    n_r, n_p = j0.shape

    def frobenius(Q=None, B=None):
        total = 0.0
        for rows in row_blocks(n_r):
            G = bs._g1_rows(d, e, j0, rows)
            if Q is not None:
                G -= Q[rows] @ B
            G = G.ravel()
            total += float(G @ G)
        return math.sqrt(total)

    norm = frobenius()
    k = RANGE_K0
    while k < min(n_r, n_p):
        omega = bs._standard_normal(random.Random(0), (n_p, k))
        Q, _ = np.linalg.qr(d[:, None] * (j0 @ (e[:, None] * omega)))
        B = (d[:, None] * Q).T @ j0
        B *= e
        residual = frobenius(Q, B)
        if residual <= RANGE_RTOL * norm:
            return Q, B, residual, norm
        k *= 2
    return np.eye(n_r), bs._g1_rows(d, e, j0), 0.0, norm


def dense_lambda(solver, beta):
    return float(np.linalg.eigvalsh(bs_matrix(solver, beta))[-1])


def formed_factor(solver):
    """The solver's uncompressed factor G = sqrt(g) G1, formed whole."""
    d, e = bs._shape_columns(solver.model.V, solver.grids), bs._momentum_columns(solver.grids)
    return math.sqrt(solver.model.V.gain) * bs._g1_rows(d, e, solver.grids.j0)


class TestCompression:
    @pytest.mark.parametrize("family", ["gaussian", "exponential", "square_well"])
    def test_lambda_within_weyl_bound(self, family):
        m = PhysicalModel(
            V=InteractionPotential(family=family, amplitude=2.0, range=1.0),
            W=ExternalField(family="zero"),
            mu=1.0,
        )
        num = Numerics(n_r=192, n_p=192)
        s = BsSolver(m, num.build_grids(m))
        # a square well's d is exactly 0 past r = range, so its 16 support rows are
        # taken whole and the factor is exact
        assert s.rank < 192 and (s.residual == 0.0) == (family == "square_well")
        tc = s.solve_beta_c(num.beta_bracket, num.beta_c_rel_tol)
        below = dataclasses.replace(m, mu=-1.0)
        cases = [(s, b) for b in (0.5, tc.beta_c, 50.0)]
        cases.append((BsSolver(below, num.build_grids(below)), math.inf))
        for solver, beta in cases:
            dense = dense_lambda(solver, beta)
            # the Weyl bound covers the truncation; both eigensolves round on their own
            slack = 8 * np.spacing(dense)
            assert abs(solver.lambda_of(beta) - dense) <= solver.lambda_bound(beta) + slack

    def test_beta_c_bracket_certified_on_dense_matrix(self):
        model, num = load_config(CONFIGS / "gaussian.json")
        num = Numerics(n_r=192, n_p=192, beta_bracket=num.beta_bracket, beta_c_rel_tol=num.beta_c_rel_tol)
        s = BsSolver(model, num.build_grids(model))
        tc = s.solve_beta_c(num.beta_bracket, num.beta_c_rel_tol)
        lo, hi = tc.bracket
        # the signs hold on the uncompressed matrix, not only on the k x k problem
        assert dense_lambda(s, lo) < 1.0 < dense_lambda(s, hi)
        assert hi - lo <= num.beta_c_rel_tol * 0.5 * (hi + lo)
        assert lo < tc.beta_c < hi

    def test_top_vector_matches_dense(self, model):
        num = Numerics(n_r=192, n_p=192)
        s = BsSolver(model, num.build_grids(model))
        rg = s.grids.rgrid
        top = s.top(5.0)
        vals, vecs = np.linalg.eigh(bs_matrix(s, 5.0))
        phi = vecs[:, -1] / (rg.nodes * np.sqrt(4.0 * math.pi * rg.weights))
        phi *= np.sign(np.sum(rg.weights * rg.nodes**2 * phi))
        phi /= math.sqrt(radial_inner(RadialFunction(rg, phi), RadialFunction(rg, phi)))
        assert np.max(np.abs(top.vector1.values - phi)) < 1e-10 * np.max(np.abs(phi))
        assert top.lambda1 == pytest.approx(vals[-1], rel=1e-13)
        assert top.lambda2 == pytest.approx(vals[-2], rel=1e-12)

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("family", ["gaussian", "exponential", "square_well"])
    def test_rank_sized_to_the_factor(self, family, mu):
        model, num = load_config(CONFIGS / "gaussian.json")
        model = dataclasses.replace(model, V=dataclasses.replace(model.V, family=family), mu=mu)
        s = BsSolver(model, num.build_grids(model))
        G = formed_factor(s)
        tol = RANGE_RTOL * np.linalg.norm(G)
        assert s.residual <= tol
        sv = np.linalg.svd(G, compute_uv=False)
        tails = np.sqrt(np.cumsum(sv[::-1] ** 2))[::-1]  # tails[j] = ||sv[j:]||
        numerical_rank = int(np.count_nonzero(tails > tol))
        # doubling from RANGE_K0 overshoots the numerical rank by less than 2x
        assert s.rank <= max(RANGE_K0, 2 * numerical_rank)
        if family == "gaussian":
            # the shipped config's V (numerical rank 25-29) needs no restart
            assert s.rank == 32

    @pytest.mark.parametrize("n", [192, 400])
    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("family", ["gaussian", "exponential", "square_well"])
    def test_matches_the_range_finder_on_the_formed_factor(self, family, mu, n):
        model, num = load_config(CONFIGS / "gaussian.json")
        model = dataclasses.replace(model, V=dataclasses.replace(model.V, family=family), mu=mu)
        grids = Numerics(n_r=n, n_p=n).build_grids(model)
        d, e = bs._shape_columns(model.V, grids), bs._momentum_columns(grids)
        G1 = bs._g1_rows(d, e, grids.j0)
        Q_ref, B_ref, residual_ref = dense_compress(G1, bs._support(d))
        Q, B, residual, norm = bs._compress(d, e, grids.j0)
        scale = np.linalg.norm(G1)
        assert norm == pytest.approx(scale, rel=1e-14)
        assert B.shape == B_ref.shape
        assert abs(residual - residual_ref) <= 1e-15 * scale
        # Q B and Q_ref B_ref are both within their residuals of G1.  B itself is
        # not compared: columns of Q past the numerical rank span rounding noise,
        # so their rows of B differ by up to the residual-sized tail of G1
        assert np.linalg.norm(Q @ B - Q_ref @ B_ref) <= residual + residual_ref + 1e-15 * scale

    @pytest.mark.parametrize("n_p", [192, 405])
    def test_test_matrices_are_fresh_draws_and_read_only(self, n_p):
        for k in (RANGE_K0, 2 * RANGE_K0, 4 * RANGE_K0):
            drawn = bs._standard_normal(random.Random(0), (n_p, k))
            cached = bs._test_matrix(n_p, k)
            assert bs._test_matrix(n_p, k) is cached
            assert np.array_equal(cached.view(np.int64), drawn.view(np.int64))
            with pytest.raises(ValueError):
                cached[0, 0] = 0.0

    @pytest.mark.parametrize("mu", [0.5, 2.5])
    def test_restart_matches_fresh_draws_bitwise(self, mu):
        # an exponential V restarts at 2 RANGE_K0 columns, which the cache must
        # draw as a new random.Random(0) would
        model, num = load_config(CONFIGS / "gaussian.json")
        model = dataclasses.replace(model, V=dataclasses.replace(model.V, family="exponential"), mu=mu)
        grids = num.build_grids(model)
        d, e = bs._shape_columns(model.V, grids), bs._momentum_columns(grids)
        Q, B, residual, norm = bs._compress(d, e, grids.j0)
        Q_ref, B_ref, residual_ref, norm_ref = fresh_compress(d, e, grids.j0)
        assert Q.shape[1] == 2 * RANGE_K0
        assert np.array_equal(Q, Q_ref) and np.array_equal(B, B_ref)
        assert residual == residual_ref and norm == norm_ref

    def test_small_grid_is_exact(self, model):
        # V's support holds 24 of the 32 rows: Q = I on them and B = G[:24], so the
        # residual is the bound on the 8 dropped rows only
        num = Numerics(n_r=RANGE_K0, n_p=RANGE_K0)
        s = BsSolver(model, num.build_grids(model))
        G = formed_factor(s)
        assert s.rank == 24 and np.array_equal(s._Q, np.eye(RANGE_K0, 24))
        assert np.linalg.norm(G[24:]) <= s.residual <= 1e-16 * np.linalg.norm(G)
        for beta in (0.5, 5.0, 50.0):
            dense = dense_lambda(s, beta)
            assert abs(s.lambda_of(beta) - dense) <= s.lambda_bound(beta) + 8 * np.spacing(dense)

    # rows of V's numerical support at n = 192 and 400, the same for every mu
    SUPPORT_ROWS = {"gaussian": (138, 287), "exponential": (192, 400), "square_well": (16, 35)}

    @pytest.mark.parametrize("n", [192, 400])
    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("family", ["gaussian", "exponential", "square_well"])
    def test_support_cut_bounds_the_dropped_rows(self, family, mu, n):
        model, num = load_config(CONFIGS / "gaussian.json")
        model = dataclasses.replace(model, V=dataclasses.replace(model.V, family=family), mu=mu)
        grids = Numerics(n_r=n, n_p=n).build_grids(model)
        d, e = bs._shape_columns(model.V, grids), bs._momentum_columns(grids)
        n_s = bs._support(d)
        assert n_s == self.SUPPORT_ROWS[family][n == 400]
        assert np.linalg.norm(d[n_s:]) <= np.finfo(float).eps * np.linalg.norm(d)
        assert np.linalg.norm(d[n_s - 1 :]) > np.finfo(float).eps * np.linalg.norm(d)
        Q, B, residual, norm = bs._compress(d, e, grids.j0)
        assert not Q[n_s:].any()
        G1 = bs._g1_rows(d, e, grids.j0)
        scale = np.linalg.norm(G1)
        # both hold up to the rounding of the norms themselves
        rounding = np.finfo(float).eps * scale
        assert residual >= np.linalg.norm(G1 - Q @ B) - rounding
        assert norm >= scale - rounding

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.5])
    def test_square_well_is_exact_on_its_support(self, mu):
        # at n = 192 the range finder's first RANGE_K0 columns cover the 16 support
        # rows, so Q = I there; at n = 400 it accepts 32 columns on the 35 rows
        model = dataclasses.replace(
            default_model(), V=InteractionPotential(family="square_well", amplitude=2.0), mu=mu
        )
        s = BsSolver(model, Numerics(n_r=192, n_p=192).build_grids(model))
        assert s.rank == 16 and s.residual == 0.0 and np.array_equal(s._Q, np.eye(192, 16))
        for beta in (0.5, 5.0, 50.0):
            assert s.lambda_bound(beta) == 0.0
            assert s.lambda_of(beta) == pytest.approx(dense_lambda(s, beta), rel=1e-14, abs=0.0)
