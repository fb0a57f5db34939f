"""Effective ground-state tests with textbook oracles.

The 1D square well has a transcendental ground-energy equation
k tan(k a) = sqrt(V0 - k^2), E = k^2 - V0, solved here by bracketed root
finding as the independent reference.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq

from tcshift.errors import DomainTooSmall
from tcshift.gl import GlCoefficients
from tcshift.model import ExternalField
from tcshift import schrodinger
from tcshift.schrodinger import (
    MAX_SOLVES,
    PRE_LEVEL_DIVISOR,
    EffectiveProblem,
    _dirichlet_lowest,
    _potential_on_axis,
    _solve_at_resolution,
    compute_dc,
    default_domain_radius,
    ground_energy,
    tc_of_h,
)


def square_well_ground_energy(V0: float, a: float, R: float = math.inf) -> float:
    """Even ground state of -u'' - V0 1_{|x|<a} u via the matching condition.

    With Dirichlet walls at |x| = R, cos(k x) inside matches
    sinh(kappa (R - |x|)) outside: k tan(k a) = kappa coth(kappa (R - a)),
    kappa = sqrt(V0 - k^2); R = inf is the whole line.
    """

    def f(k):
        kappa = math.sqrt(V0 - k * k)
        return k * math.tan(k * a) - kappa / math.tanh(kappa * (R - a))

    k_hi = min(math.sqrt(V0), math.pi / (2.0 * a)) - 1e-12
    k = brentq(f, 1e-12, k_hi, xtol=1e-14, rtol=1e-15)
    return k * k - V0


def brute_force_1d(V0: float, a: float, R: float = 25.0, n: int = 60000) -> float:
    """Dense uniform-grid reference solve, independent of the production path.

    The well edge is cell-averaged (fractional coverage of each grid cell),
    otherwise the eigenvalue error is first order with an alignment-dependent
    constant.
    """
    h = 2.0 * R / (n + 1)
    x = -R + h * np.arange(1, n + 1)
    cover = np.clip(np.minimum(x + h / 2, a) - np.maximum(x - h / 2, -a), 0.0, None) / h
    pot = -V0 * cover
    vals = eigh_tridiagonal(
        2.0 / (h * h) + pot, np.full(n - 1, -1.0 / (h * h)), select="i", select_range=(0, 0)
    )[0]
    return float(vals[0])


def make_gl(lambda0=2.0, lambda1=-1.0, lambda2=0.5):
    return GlCoefficients(
        beta_c=8.0, T_c=0.125, lambda0=lambda0, lambda1=lambda1, lambda2=lambda2, gap=0.5
    )


class TestGroundEnergy:
    def test_free_operator(self):
        prob = EffectiveProblem(
            coupling=1.0, W=ExternalField(family="zero"), domain_radius=20.0, n_points=400
        )
        gs = ground_energy(prob)
        assert gs.e0 == 0.0
        assert not gs.bound_state

    def test_constant_shift_exact(self):
        W = ExternalField(family="constant", amplitude=-0.7)
        prob = EffectiveProblem(coupling=2.0, W=W, domain_radius=30.0, n_points=400)
        gs = ground_energy(prob)
        assert gs.e0 == 2.0 * (-0.7)
        assert not gs.bound_state

    def test_1d_square_well_oracle(self):
        V0, a = 2.0, 1.0
        ref = square_well_ground_energy(V0, a)
        assert brute_force_1d(V0, a) == pytest.approx(ref, abs=2e-6)
        W = ExternalField(
            family="square_well_1d", amplitude=-V0, range=a, dimensionality="one_d"
        )
        prob = EffectiveProblem(coupling=1.0, W=W, domain_radius=25.0, n_points=2000)
        gs = ground_energy(prob)
        assert gs.bound_state
        assert gs.e0 == pytest.approx(ref, abs=1e-6)

    def test_3d_gaussian_well_binds_when_deep(self):
        W = ExternalField(family="gaussian_well", amplitude=-6.0, range=1.0)
        prob = EffectiveProblem(coupling=1.0, W=W, domain_radius=40.0, n_points=2000)
        gs = ground_energy(prob)
        assert gs.bound_state
        assert gs.e0 < 0.0

    def test_3d_shallow_well_does_not_bind(self):
        # 3D wells need finite depth; a very shallow one leaves only continuum
        W = ExternalField(family="gaussian_well", amplitude=-0.2, range=1.0)
        prob = EffectiveProblem(coupling=1.0, W=W, domain_radius=40.0, n_points=1500)
        gs = ground_energy(prob)
        assert not gs.bound_state
        assert gs.e0 == pytest.approx(0.0, abs=1e-10)

    def test_repulsive_bump_gives_continuum_bottom(self):
        W = ExternalField(family="gaussian_well", amplitude=1.5, range=1.0)
        prob = EffectiveProblem(coupling=1.0, W=W, domain_radius=40.0, n_points=1500)
        gs = ground_energy(prob)
        assert not gs.bound_state
        assert gs.e0 == pytest.approx(0.0, abs=1e-10)

    def test_unbound_decaying_well_reports_the_limit_at_infinity(self):
        # the Gaussian tail at the box edge (-1.4e-12 here) is not the essential bottom
        W = ExternalField(family="gaussian_well", amplitude=-0.1, range=1.0)
        gs = ground_energy(EffectiveProblem(coupling=1.0, W=W, domain_radius=5.0, n_points=2000))
        assert not gs.bound_state
        assert gs.e0 == gs.essential_bottom == 0.0

    @pytest.mark.parametrize("R", [20.0, 40.0])
    def test_negative_coupling_takes_the_lower_end_one_d(self, R):
        # coupling * W runs from 0 on the left to -1 on the right and never dips
        # below -1, so the essential bottom -1 is the infimum and nothing binds
        W = ExternalField(
            family="tabulated_1d", dimensionality="one_d", table=[(-5.0, 0.0), (5.0, 1.0)]
        )
        gs = ground_energy(EffectiveProblem(coupling=-1.0, W=W, domain_radius=R, n_points=400))
        assert gs.essential_bottom == -1.0
        assert gs.e0 == -1.0
        assert not gs.bound_state

    def test_lower_bound_by_potential_minimum(self):
        W = ExternalField(family="gaussian_well", amplitude=-6.0, range=1.0)
        prob = EffectiveProblem(coupling=1.0, W=W, domain_radius=40.0, n_points=2000)
        gs = ground_energy(prob)
        assert gs.e0 >= -6.0

    def test_variational_upper_bound(self):
        # Rayleigh quotient of a gaussian trial in the reduced radial problem
        W = ExternalField(family="gaussian_well", amplitude=-6.0, range=1.0)
        prob = EffectiveProblem(coupling=1.0, W=W, domain_radius=40.0, n_points=2000)
        gs = ground_energy(prob)
        r = np.linspace(1e-4, 12.0, 4000)
        for width in (0.7, 1.0, 1.5):
            u = r * np.exp(-0.5 * (r / width) ** 2)
            du = np.gradient(u, r)
            num = np.trapezoid(du * du + W(r) * u * u, r)
            den = np.trapezoid(u * u, r)
            assert gs.e0 <= num / den + 1e-8

    def test_refinement_delta_reported(self):
        W = ExternalField(family="gaussian_well", amplitude=-6.0, range=1.0)
        prob = EffectiveProblem(coupling=1.0, W=W, domain_radius=40.0, n_points=1000)
        gs = ground_energy(prob)
        assert gs.refinement_delta < 1e-6 * max(1.0, abs(gs.e0))

    def test_dirichlet_monotone_in_domain(self):
        W = ExternalField(family="gaussian_well", amplitude=-6.0, range=1.0)
        evs = []
        for R in (30.0, 45.0, 60.0):
            prob = EffectiveProblem(coupling=1.0, W=W, domain_radius=R, n_points=3000)
            evs.append(ground_energy(prob).e0)
        assert evs[1] <= evs[0] + 1e-9
        assert evs[2] <= evs[1] + 1e-9

    def test_leak_detection(self):
        # barely-bound state in a cramped box: the tail reaches the edge
        W = ExternalField(family="gaussian_well", amplitude=-3.5, range=1.0)
        prob = EffectiveProblem(coupling=1.0, W=W, domain_radius=6.0, n_points=1000)
        with pytest.raises(DomainTooSmall):
            ground_energy(prob)

    def test_default_domain_radius_caps(self):
        W = ExternalField(family="gaussian_well", amplitude=-1e-8, range=1.0)
        assert default_domain_radius(1.0, W) == 1e4


# lambda1 / lambda0 of configs/gaussian.json: the coupling of every field_scan field
GAUSSIAN_CONFIG_COUPLING = 0.10458689266989643


class TestBoxOracle:
    """The reported refinement_delta against the exact root of the truncated box."""

    @pytest.mark.parametrize(
        "amplitude",
        [
            -1.0,
            -0.5,
            # two levels agree by chance: the error is 50x (-2.8345) and 17x
            # (-2.4344) the n-to-2n change the ladder stops on
            pytest.param(-2.8345, marks=pytest.mark.xfail(strict=True, reason="chance agreement")),
            pytest.param(-2.4344, marks=pytest.mark.xfail(strict=True, reason="chance agreement")),
        ],
    )
    def test_error_within_refinement_delta(self, amplitude):
        W = ExternalField(
            family="square_well_1d", amplitude=amplitude, range=2.0, dimensionality="one_d"
        )
        R = default_domain_radius(GAUSSIAN_CONFIG_COUPLING, W)
        prob = EffectiveProblem(
            coupling=GAUSSIAN_CONFIG_COUPLING, W=W, domain_radius=R, n_points=2000
        )
        gs = ground_energy(prob)
        exact = square_well_ground_energy(-GAUSSIAN_CONFIG_COUPLING * amplitude, 2.0, R)
        assert abs(gs.e0 - exact) <= gs.refinement_delta


def level_matrix(prob: EffectiveProblem, n: int):
    """Potential and spacing of the n-node level, built as the solver builds them."""
    R = prob.domain_radius
    if prob.W.dimensionality == "radial_3d":
        h = R / (n + 1)
        x = h * np.arange(1, n + 1)
    else:
        h = 2.0 * R / (n + 1)
        x = -R + h * np.arange(1, n + 1)
    return _potential_on_axis(prob, x, h), h


def tight_eigenvalue(u_pot: np.ndarray, h: float, index: int = 0):
    """Bisection to the smallest tolerance, independent of the inverse iteration."""
    vals, vecs = eigh_tridiagonal(
        2.0 / (h * h) + u_pot,
        np.full(len(u_pot) - 1, -1.0 / (h * h)),
        select="i",
        select_range=(index, index),
        tol=1e-300,
    )
    return float(vals[0]), vecs[:, 0]


LADDER_PROBLEMS = {
    "gaussian_well": EffectiveProblem(
        coupling=1.0,
        W=ExternalField(family="gaussian_well", amplitude=-6.0, range=1.0),
        domain_radius=20.0,
        n_points=400,
    ),
    "square_well_1d": EffectiveProblem(
        coupling=1.0,
        W=ExternalField(
            family="square_well_1d", amplitude=-2.0, range=1.0, dimensionality="one_d"
        ),
        domain_radius=15.0,
        n_points=400,
    ),
    "constant": EffectiveProblem(
        coupling=2.0,
        W=ExternalField(family="constant", amplitude=-0.7),
        domain_radius=10.0,
        n_points=400,
    ),
}


class TestLadder:
    """Level-by-level refinement by certified inverse iteration."""

    @pytest.mark.parametrize("family", sorted(LADDER_PROBLEMS))
    def test_each_level_matches_tight_bisection(self, family):
        prob = LADDER_PROBLEMS[family]
        level, n = None, prob.n_points
        for _ in range(4):
            level = _solve_at_resolution(prob, n, level)
            ref, _ = tight_eigenvalue(*level_matrix(prob, n))
            assert not level.fell_back
            assert abs(level.ev - ref) <= level.residual + 1e-10
            n *= 2

    def test_second_eigenpair_guess_falls_back_to_the_lowest(self):
        # the guess converges to the second level; the LDL^T certificate must reject it
        u_pot, h = level_matrix(LADDER_PROBLEMS["gaussian_well"], 800)
        lowest, _ = tight_eigenvalue(u_pot, h, 0)
        second = tight_eigenvalue(u_pot, h, 1)
        ev, vec, residual, fell_back, solves = _dirichlet_lowest(u_pot, h, second)
        assert fell_back
        assert 1 <= solves <= MAX_SOLVES
        assert second[0] - lowest > 0.5
        assert abs(ev - lowest) <= residual + 1e-10
        assert len(vec) == len(u_pot)

    def test_ladder_stats(self):
        prob = LADDER_PROBLEMS["gaussian_well"]
        gs = ground_energy(prob)
        stats = gs.ladder
        assert stats.levels >= 2
        assert stats.final_n == prob.n_points * 2 ** (stats.levels - 1)
        assert stats.domain_radius == prob.domain_radius
        assert stats.fallbacks == 0
        assert stats.solves >= stats.levels
        assert 0.0 < stats.max_residual < 1e-8

    @pytest.mark.parametrize("amplitude", [-3.0, -8.0, -20.0])
    def test_e0_smooth_in_coupling(self, amplitude):
        # bisection resolves each level only to ~eps ||A||, which made e0 a step
        # function of the coupling with jumps of ~1e-9 relative
        W = ExternalField(family="gaussian_well", amplitude=amplitude, range=2.0)
        R = default_domain_radius(0.37, W)

        def e0(coupling):
            prob = EffectiveProblem(coupling=coupling, W=W, domain_radius=R, n_points=2000)
            return ground_energy(prob).e0

        base = e0(0.37)
        assert base < 0.0
        assert abs(e0(math.nextafter(0.37, 1.0)) - base) <= 1e-13 * abs(base)
        # steps of 1e-9 relative: second differences of a smooth function vanish
        lo, hi = e0(0.37 * (1 - 1e-9)), e0(0.37 * (1 + 1e-9))
        assert hi != base
        assert abs(lo - 2.0 * base + hi) <= 1e-13 * abs(base)


# lambda1 / lambda0 of configs/gaussian.json, whose W has range 2
BENCH_COUPLING = 0.10458689266989643


def bench_field_problem(family, amplitude, n_points=2000):
    """A field as the field scan draws it, at the shipped gaussian config's coupling."""
    dim = "one_d" if family == "square_well_1d" else "radial_3d"
    W = ExternalField(family=family, amplitude=amplitude, range=2.0, dimensionality=dim)
    R = default_domain_radius(BENCH_COUPLING, W)
    return EffectiveProblem(coupling=BENCH_COUPLING, W=W, domain_radius=R, n_points=n_points)


@pytest.fixture
def tridiagonal_orders(monkeypatch):
    """Orders of the eigh_tridiagonal calls made while the fixture is active."""
    import scipy.linalg

    orders = []
    real = scipy.linalg.eigh_tridiagonal

    def spy(d, e, *args, **kwargs):
        orders.append(len(d))
        return real(d, e, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", spy)
    return orders


class TestPreLevel:
    """Only a pre-level of max(n_points // 16, 64) nodes starts by bisection."""

    @pytest.mark.parametrize(
        "family, n_points, order",
        [
            pytest.param("gaussian_well", 2000, 125, id="gaussian_well"),
            pytest.param("constant", 2000, 125, id="constant"),
            # an odd pre-level has a node at x = 0 and stays on the full line
            pytest.param("square_well_1d", 2000, 125, id="square_well_1d"),
            # an even one folds: its 130 nodes are bisected on their x > 0 half
            pytest.param("square_well_1d", 2080, 65, id="square_well_1d-folded"),
        ],
    )
    def test_one_small_bisection(self, tridiagonal_orders, family, n_points, order):
        gs = ground_energy(bench_field_problem(family, -20.0, n_points))
        pre = n_points // PRE_LEVEL_DIVISOR
        assert tridiagonal_orders == [order] == [pre // 2 if order < pre else pre]
        assert gs.ladder.fallbacks == 0
        assert gs.ladder.final_n == n_points * 2 ** (gs.ladder.levels - 1)

    @pytest.mark.parametrize("n_points, order", [(200, 64), (500, 64), (1024, 64), (1040, 65)])
    def test_small_ladders_bisect_a_small_pre_level(self, tridiagonal_orders, n_points, order):
        gs = ground_energy(bench_field_problem("gaussian_well", -20.0, n_points))
        assert tridiagonal_orders == [order]
        assert gs.ladder.fallbacks == 0

    @pytest.mark.parametrize(
        "amplitude", [-6.5, -6.7, -6.9, -7.1, -7.3, -7.5, -7.7, -7.75, -7.8, -8.0]
    )
    def test_e0_matches_a_ladder_started_by_bisection(self, monkeypatch, amplitude):
        # through the binding threshold: unbound, DomainTooSmall, then bound
        prob = bench_field_problem("gaussian_well", amplitude)

        def solve():
            try:
                return ground_energy(prob)
            except DomainTooSmall as exc:
                return exc

        pre = solve()
        # a pre-level at full size bisects the first level, as a ladder without one would
        monkeypatch.setattr(schrodinger, "PRE_LEVEL_DIVISOR", 1)
        bisected = solve()
        if isinstance(bisected, DomainTooSmall):
            assert isinstance(pre, DomainTooSmall)
            return
        assert not isinstance(pre, DomainTooSmall)
        assert abs(pre.e0 - bisected.e0) <= 1e-12 * abs(bisected.e0)
        assert pre.bound_state == bisected.bound_state
        assert pre.ladder.levels == bisected.ladder.levels
        assert pre.ladder.fallbacks == bisected.ladder.fallbacks == 0


# one_d problems whose field is even, so that every even level folds
FOLD_PROBLEMS = {
    "square_well_1d": EffectiveProblem(
        coupling=1.0,
        W=ExternalField(
            family="square_well_1d", amplitude=-2.0, range=1.0, dimensionality="one_d"
        ),
        domain_radius=15.0,
        n_points=2000,
    ),
    "gaussian_well": EffectiveProblem(
        coupling=-0.5,
        W=ExternalField(family="gaussian_well", amplitude=8.0, range=1.0, dimensionality="one_d"),
        domain_radius=20.0,
        n_points=2000,
    ),
}


def full_line(monkeypatch):
    """Solve every level on the full line, as before the fold."""
    monkeypatch.setattr(schrodinger, "_folds", lambda W, n: False)


class TestFold:
    """Even one_d fields are solved on x > 0 with a mirror end at the centre."""

    @pytest.mark.parametrize("n_points", [2000, 1999])
    @pytest.mark.parametrize("family", sorted(FOLD_PROBLEMS))
    def test_half_line_matches_full_line(self, monkeypatch, family, n_points):
        prob = dataclasses.replace(FOLD_PROBLEMS[family], n_points=n_points)
        assert schrodinger._folds(prob.W, 2 * n_points)
        half = ground_energy(prob)
        full_line(monkeypatch)
        full = ground_energy(prob)
        assert full.bound_state and half.bound_state
        assert abs(half.e0 - full.e0) <= 1e-12 * abs(full.e0)
        assert half.ladder.levels == full.ladder.levels
        assert half.ladder.final_n == full.ladder.final_n
        assert half.ladder.fallbacks == full.ladder.fallbacks == 0

    @pytest.mark.parametrize(
        "amplitude", [-0.518378844569545, -0.7584953323004885, -1.442202467817925, -5.94654306884217]
    )
    def test_mirror_end_keeps_every_level_certified(self, monkeypatch, amplitude):
        # seed-0 field-scan square wells whose 2000-node level fell back to bisection
        # when the mirror was the last row: dgtsv's last pivot rounded to exactly zero
        prob = bench_field_problem("square_well_1d", amplitude)
        half = ground_energy(prob)
        full_line(monkeypatch)
        full = ground_energy(prob)
        assert half.ladder.fallbacks == full.ladder.fallbacks == 0
        assert half.ladder.solves == full.ladder.solves
        assert abs(half.e0 - full.e0) <= 1e-12 * abs(full.e0)

    def test_folded_level_holds_half_the_nodes(self):
        prob = FOLD_PROBLEMS["square_well_1d"]
        assert len(_solve_at_resolution(prob, 400).vec) == 200
        assert len(_solve_at_resolution(prob, 401).vec) == 401

    def test_asymmetric_table_stays_on_the_full_line(self, monkeypatch):
        W = ExternalField(
            family="tabulated_1d",
            dimensionality="one_d",
            table=[(-4.0, 0.0), (-2.0, -3.0), (0.0, -1.0), (1.0, 0.0), (4.0, 0.0)],
        )
        prob = EffectiveProblem(coupling=1.0, W=W, domain_radius=15.0, n_points=400)
        gs = ground_energy(prob)
        n = gs.ladder.final_n
        fine, coarse = (tight_eigenvalue(*level_matrix(prob, k))[0] for k in (n, n // 2))
        reference = fine + (fine - coarse) / 3.0
        assert gs.bound_state
        assert abs(gs.e0 - reference) <= 1e-9 * abs(reference)
        # mirroring the x > 0 half of this table is a different problem
        monkeypatch.setattr(schrodinger, "_folds", lambda W, n: n % 2 == 0)
        assert abs(ground_energy(prob).e0 - reference) > 1e-3


class TestMemory:
    def test_deep_radial_ladder_peak(self):
        # the deepest seed-0 radial field of the field scan: its ladder runs to 32000 nodes
        prob = bench_field_problem("gaussian_well", -58.942278158791396)
        ground_energy(bench_field_problem("gaussian_well", -20.0))  # imports scipy.linalg
        tracemalloc.start()
        try:
            gs = ground_energy(prob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gs.ladder.final_n == 32000
        # the finest level's potential, vector and three work arrays (5 x 250 KiB),
        # the coarse vector and small change: 1.35 MiB; 2.81 MiB with fresh arrays per use
        assert peak <= 1.5 * 2**20


class TestDc:
    def test_zero_field(self):
        from tcshift.schrodinger import EffectiveGroundState

        gs = EffectiveGroundState(e0=0.0, bound_state=False, refinement_delta=0.0)
        assert compute_dc(make_gl(), gs) == 0.0

    def test_unbound_negative_coupling_gives_positive_zero(self):
        # lambda1 < 0 times a vanishing field is -0.0; e0 and D_c must not inherit the sign
        gl = make_gl()
        prob = EffectiveProblem.from_gl(
            gl, ExternalField(family="zero"), domain_radius=10.0, n_points=200
        )
        assert prob.coupling < 0.0
        gs = ground_energy(prob)
        assert math.copysign(1.0, gs.e0) == 1.0
        assert math.copysign(1.0, compute_dc(gl, gs)) == 1.0

    def test_sign_flip_well_vs_bump(self):
        gl = make_gl(lambda0=2.0, lambda1=-1.0, lambda2=0.5)
        coupling = gl.lambda1 / gl.lambda0
        results = {}
        for amp in (+8.0, -8.0):
            W = ExternalField(family="gaussian_well", amplitude=amp, range=1.0)
            prob = EffectiveProblem.from_gl(gl, W, domain_radius=None, n_points=2000)
            gs = ground_energy(prob)
            results[amp] = compute_dc(gl, gs)
        # coupling < 0: positive amplitude makes the effective well attractive
        binding = results[+8.0] if coupling < 0 else results[-8.0]
        flat = results[-8.0] if coupling < 0 else results[+8.0]
        assert binding < 0.0
        # the repulsive side sits at the continuum bottom: zero up to the
        # boundary tail of the field, which is denormal-level here
        assert abs(flat) < 1e-50

    def test_constant_shift_scaling(self):
        gl = make_gl()
        W1 = ExternalField(family="constant", amplitude=0.3)
        W2 = ExternalField(family="constant", amplitude=0.6)
        d = []
        for W in (W1, W2):
            prob = EffectiveProblem.from_gl(gl, W, domain_radius=25.0, n_points=500)
            d.append(compute_dc(gl, ground_energy(prob)))
        assert d[1] == pytest.approx(2.0 * d[0], rel=1e-12)
        # analytic: D_c = (lambda1/lambda2) * const
        assert d[0] == pytest.approx(gl.lambda1 / gl.lambda2 * 0.3, rel=1e-12)


class TestShiftTable:
    def test_h_zero_limit(self):
        rep = tc_of_h(make_gl(), 0.5, [1e-9])
        assert rep.rows[0][1] == pytest.approx(make_gl().T_c, rel=1e-12)

    def test_negative_dc_raises_tc(self):
        rep = tc_of_h(make_gl(), -2.0, [0.01, 0.02])
        assert all(t > make_gl().T_c for _, t in rep.rows)

    def test_pure_quadratic_law(self):
        rep = tc_of_h(make_gl(), 1.5, [0.01, 0.02])
        t_c = make_gl().T_c
        s1 = t_c - rep.rows[0][1]
        s2 = t_c - rep.rows[1][1]
        assert s2 == pytest.approx(4.0 * s1, rel=1e-12)

    def test_validity_warning(self):
        rep = tc_of_h(make_gl(), 1e4, [0.2])
        assert rep.warnings
