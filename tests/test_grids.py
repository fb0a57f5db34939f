"""Grid and transform tests against closed-form integrals.

Oracles: the Gaussian is self-dual under the unitary convention,
int_0^inf e^{-2r} r^2 dr = 1/4 gives the inner-product normalization, and
the multiplier kernel must converge entrywise under momentum refinement.
"""

import dataclasses
import math
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest

from tcshift.errors import GridError
from tcshift.grids import (
    TABLE_BLOCK_BYTES,
    GridPair,
    RadialFunction,
    RadialGrid,
    build_momentum_grid,
    build_radial_grid,
    composite_gauss_legendre,
    ft3_radial,
    gauss_legendre,
    radial_inner,
    spherical_j0,
)
from tcshift.kernels import chi
from tcshift.model import load_config

from dense_reference import apply_kernel, assemble_chi_kernel

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture(scope="module")
def rgrid():
    return build_radial_grid(12.0, 400)


@pytest.fixture(scope="module")
def pgrid():
    return build_momentum_grid(8.0, 400, mu=1.0)


@pytest.fixture(scope="module")
def grids(rgrid, pgrid):
    return GridPair(rgrid, pgrid)


class TestQuadrature:
    def test_weights_sum_to_length(self, rgrid):
        assert rgrid.weights.sum() == pytest.approx(12.0, abs=1e-12 * 12.0)

    def test_polynomial_exactness(self):
        nodes, weights = composite_gauss_legendre([0.0, 1.0, 3.0], 8)
        # degree-15 polynomial integrated exactly per panel
        exact = 3.0**16 / 16.0
        assert np.sum(weights * nodes**15) == pytest.approx(exact, rel=1e-14)

    def test_cached_nodes_are_read_only_and_unchanged(self):
        x, w = gauss_legendre(16)
        assert gauss_legendre(16)[0] is x
        ref_x, ref_w = np.polynomial.legendre.leggauss(16)
        assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
        for arr in (x, w):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        nodes, weights = composite_gauss_legendre([0.0, 1.0, 3.0], 16)
        assert np.array_equal(nodes[16:], 2.0 + 1.0 * ref_x)
        assert np.array_equal(weights[:16], 0.5 * ref_w)

    def test_composite_matches_the_panel_loop_bitwise(self):
        boundaries = np.array([0.0, 0.3, 0.31, 1.7, 2.0, 9.5])
        x, w = gauss_legendre(12)
        nodes, weights = [], []
        for a, b in zip(boundaries[:-1], boundaries[1:]):
            half = 0.5 * (b - a)
            nodes.append(0.5 * (a + b) + half * x)
            weights.append(half * w)
        got = composite_gauss_legendre(boundaries, 12)
        for arr, ref in zip(got, (np.concatenate(nodes), np.concatenate(weights))):
            assert np.array_equal(arr.view(np.int64), ref.view(np.int64))

    def test_rejects_bad_boundaries(self):
        with pytest.raises(GridError):
            composite_gauss_legendre([0.0, 0.0, 1.0], 4)

    def test_momentum_grid_refined_near_sphere(self, pgrid):
        # node spacing near p = sqrt(mu) is much finer than the mean spacing
        near = np.abs(pgrid.nodes - 1.0) < 0.05
        assert near.sum() > 8

    def test_j0_series_branch(self):
        for x in [0.0, 1e-5, 9e-5]:
            assert spherical_j0(x) == pytest.approx(1.0 - x * x / 6.0, abs=1e-18)
        assert spherical_j0(2.0) == pytest.approx(math.sin(2.0) / 2.0, rel=1e-15)

    def test_j0_matches_the_two_branch_formula_bitwise(self):
        # the formula as written with full-size temporaries on both branches
        def reference(x):
            small = np.abs(x) < 1e-4
            xs = np.where(small, 1.0, x)
            x2 = x * x
            return np.where(small, 1.0 - x2 / 6.0 + x2 * x2 / 120.0, np.sin(xs) / xs)

        edge = np.array([0.0, 1e-5, 9.99999e-5, 1e-4, 1.00001e-4, 0.3, 1.0, 50.0])
        edge = np.concatenate([edge, -edge])
        table = np.outer(np.linspace(0.0, 12.0, 97), np.linspace(0.0, 8.0, 61))
        near_branch = np.linspace(-2e-4, 2e-4, 4001)
        for x in (edge, table, near_branch):
            assert np.array_equal(spherical_j0(x).view(np.int64), reference(x).view(np.int64))
        for v in edge:
            assert spherical_j0(v) == reference(np.array(v))


class TestFourier:
    def test_gaussian_self_dual(self, rgrid, pgrid, grids):
        f = RadialFunction(rgrid, np.exp(-0.5 * rgrid.nodes**2))
        fhat = ft3_radial(f, grids)
        for p in [0.0, 0.5, 1.0, 2.0]:
            idx = np.argmin(np.abs(pgrid.nodes - p))
            pn = pgrid.nodes[idx]
            assert fhat.values[idx] == pytest.approx(math.exp(-0.5 * pn * pn), abs=1e-8)

    def test_zero_maps_to_zero(self, rgrid, grids):
        f = RadialFunction(rgrid, np.zeros(len(rgrid)))
        assert np.all(ft3_radial(f, grids).values == 0.0)

    def test_plancherel(self, rgrid, grids):
        # 1 + r^2 keeps the 3D function smooth at the origin, so the
        # transform decays fast enough for the p_max truncation
        f = RadialFunction(rgrid, np.exp(-0.5 * rgrid.nodes**2) * (1 + rgrid.nodes**2))
        fhat = ft3_radial(f, grids)
        a = radial_inner(f, f)
        b = radial_inner(fhat, fhat)
        assert b == pytest.approx(a, rel=1e-8)

    def test_round_trip(self, rgrid, grids):
        f = RadialFunction(rgrid, np.exp(-0.5 * rgrid.nodes**2))
        back = ft3_radial(ft3_radial(f, grids), grids)
        assert back.grid is rgrid
        assert np.max(np.abs(back.values - f.values)) < 1e-8

    def test_table_is_read_only(self, grids):
        assert grids.j0.shape == (len(grids.rgrid), len(grids.pgrid))
        with pytest.raises(ValueError):
            grids.j0[0, 0] = 0.0

    @pytest.mark.parametrize(
        "config, mu, n",
        [
            ("gaussian.json", None, None),
            ("square_well_1d.json", None, None),
            ("gaussian.json", 0.5, 400),
            ("gaussian.json", 2.5, 400),
            ("gaussian.json", 0.5, 800),
            ("gaussian.json", 2.5, 800),
        ],
    )
    def test_table_is_j0_to_a_few_ulps(self, config, mu, n):
        # against 40-digit sin(x)/x of the exact product of the two nodes, on the
        # first radial panel (its start is 0), the corner where r p < 1e-4 and a
        # seeded sample of the rest; sin(x)/x evaluated entry by entry meets the
        # same bound
        model, numerics = load_config(CONFIGS / config)
        if mu is not None:
            model = dataclasses.replace(model, mu=mu)
            numerics = dataclasses.replace(numerics, n_r=n, n_p=n)
        pair = numerics.build_grids(model)
        r, p = pair.rgrid.nodes, pair.pgrid.nodes
        rng = np.random.default_rng(0)
        corner = np.argwhere(np.outer(r, p) < 1e-4)
        assert len(corner) > 0
        i = np.concatenate([corner[:, 0], np.repeat(np.arange(16), 40), rng.integers(0, len(r), 2000)])
        a = np.concatenate([corner[:, 1], rng.integers(0, len(p), 640), rng.integers(0, len(p), 2000)])
        with mpmath.workdps(40):
            exact = np.array(
                [float(mpmath.sin(x) / x) for x in map(mpmath.fmul, r[i].tolist(), p[a].tolist())]
            )
        bound = 4.0 * np.finfo(float).eps
        assert np.max(np.abs(pair.j0[i, a] - exact)) <= bound
        assert np.max(np.abs(spherical_j0(np.outer(r, p))[i, a] - exact)) <= bound

    def test_hand_built_table_is_j0_to_a_few_ulps(self):
        # one-node panels: the sines come from the products themselves.  r_i p_a < 1e-4
        # on 648 entries, a staircase in the first 40 rows and 31 columns, where the
        # table has no series branch: sin(x) (1/p) (1/r) keeps its relative accuracy
        rg = RadialGrid(np.geomspace(1e-4, 3.0, 60), np.full(60, 0.05), r_max=3.0)
        pg = RadialGrid(np.geomspace(1e-3, 6.0, 40), np.full(40, 0.15), r_max=6.0)
        assert np.array_equal(rg.starts, rg.nodes) and np.array_equal(rg.offsets, [0.0])
        table = GridPair(rg, pg).j0
        small = np.outer(rg.nodes, pg.nodes) < 1e-4
        assert small.sum() == 648 and not small[:40, :31].all()
        with mpmath.workdps(40):
            exact = np.array(
                [[float(mpmath.sin(x) / x) for x in (mpmath.fmul(r, q) for q in pg.nodes.tolist())]
                 for r in rg.nodes.tolist()]
            )
        assert np.max(np.abs(table - exact)) <= 4.0 * np.finfo(float).eps

    def test_table_build_frees_a_block_of_table_block_bytes(self, rgrid, pgrid):
        # the freed block keeps glibc's mmap and trim thresholds above it (TABLE_BLOCK_BYTES)
        GridPair(rgrid, pgrid)
        tracemalloc.start()
        try:
            pair = GridPair(rgrid, pgrid)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        table = pair.j0.nbytes
        assert peak - table >= TABLE_BLOCK_BYTES > current - table

    def test_radial_grid_is_panel_starts_plus_offsets(self, rgrid):
        x, w = gauss_legendre(16)
        width = 12.0 / 25
        assert len(rgrid.starts) == 25 and rgrid.starts[0] == 0.0
        assert np.array_equal(rgrid.offsets, 0.5 * width * (1.0 + x))
        assert np.array_equal(rgrid.nodes, np.add.outer(rgrid.starts, rgrid.offsets).ravel())
        assert np.array_equal(rgrid.weights, np.tile(0.5 * width * w, 25))
        with pytest.raises(GridError):
            RadialGrid(rgrid.nodes, rgrid.weights, 12.0, rgrid.starts, rgrid.offsets[::-1])

    @pytest.mark.parametrize("direction", ["r_to_p", "p_to_r"])
    def test_transform_allocates_vectors_only(self, rgrid, pgrid, grids, direction):
        # sqrt(2/pi) * kernel @ v once scaled a copy of the whole table
        grid = rgrid if direction == "r_to_p" else pgrid
        f = RadialFunction(grid, np.exp(-0.5 * grid.nodes**2))
        ft3_radial(f, grids)
        tracemalloc.start()
        try:
            ft3_radial(f, grids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        vector = 8 * max(len(rgrid), len(pgrid))
        assert peak <= 8 * vector < grids.j0.nbytes / 10

    def test_function_on_neither_grid_raises(self, grids):
        other = build_radial_grid(12.0, 200)
        with pytest.raises(GridError):
            ft3_radial(RadialFunction(other, np.zeros(len(other))), grids)

    def test_refinement_convergence(self):
        # transform evaluated at fixed probe momenta straight from the
        # quadrature formula, so only the r-grid resolution varies
        probe = np.array([0.3, 1.0, 2.5])

        def transform_at(n_r):
            rg = build_radial_grid(12.0, n_r)
            f = np.exp(-0.5 * rg.nodes**2)
            kern = spherical_j0(np.outer(probe, rg.nodes))
            return math.sqrt(2.0 / math.pi) * kern @ (rg.weights * rg.nodes**2 * f)

        a, b = transform_at(200), transform_at(400)
        assert np.max(np.abs(a - b) / np.abs(b)) < 1e-6


class TestInner:
    def test_exponential_oracle(self):
        # 4 pi int e^{-2r} r^2 dr = 4 pi / 4 = pi
        g = build_radial_grid(40.0, 600)
        f = RadialFunction(g, np.exp(-g.nodes))
        assert radial_inner(f, f) == pytest.approx(math.pi, rel=1e-8)

    def test_zero(self, rgrid):
        f = RadialFunction(rgrid, np.zeros(len(rgrid)))
        assert radial_inner(f, f) == 0.0

    def test_symmetry(self, rgrid):
        f = RadialFunction(rgrid, np.sin(rgrid.nodes))
        g = RadialFunction(rgrid, np.exp(-rgrid.nodes))
        assert radial_inner(f, g) == radial_inner(g, f)

    def test_grid_mismatch_raises(self, rgrid):
        other = build_radial_grid(12.0, 200)
        f = RadialFunction(rgrid, np.zeros(len(rgrid)))
        g = RadialFunction(other, np.zeros(len(other)))
        with pytest.raises(GridError):
            radial_inner(f, g)


class TestChiKernel:
    def test_exact_symmetry(self, grids):
        K = assemble_chi_kernel(2.0, 1.0, grids)
        assert np.array_equal(K, K.T)

    def test_positive_diagonal(self, grids):
        K = assemble_chi_kernel(2.0, 1.0, grids)
        assert np.all(np.diag(K) > 0.0)

    def test_small_beta_kernel_vanishes(self, grids):
        # chi_beta <= beta/2 uniformly, so the kernel norm goes to zero
        norms = [np.linalg.norm(assemble_chi_kernel(b, 1.0, grids)) for b in (1e-2, 1e-4)]
        assert norms[1] < norms[0] * 1e-1
        assert norms[1] < 1e-3 * np.linalg.norm(assemble_chi_kernel(1.0, 1.0, grids))

    def test_momentum_refinement_cauchy(self, rgrid):
        p1 = build_momentum_grid(8.0, 400, mu=1.0)
        p2 = build_momentum_grid(8.0, 800, mu=1.0)
        K1 = assemble_chi_kernel(2.0, 1.0, GridPair(rgrid, p1))
        K2 = assemble_chi_kernel(2.0, 1.0, GridPair(rgrid, p2))
        assert np.max(np.abs(K1 - K2)) < 1e-7

    def test_identity_multiplier_reproduces_function(self, rgrid):
        # chi == 1 would make the kernel a delta; instead check the multiplier
        # route against the direct transform: apply chi_beta then compare with
        # the momentum-space multiplication, both on the same grids.
        pg = build_momentum_grid(8.0, 400, mu=1.0)
        grids = GridPair(rgrid, pg)
        K = assemble_chi_kernel(1.5, 1.0, grids)
        f = RadialFunction(rgrid, np.exp(-0.5 * rgrid.nodes**2))
        via_kernel = apply_kernel(K, f)
        fhat = ft3_radial(f, grids)
        mult = RadialFunction(pg, chi(1.5, pg.nodes**2 - 1.0) * fhat.values)
        via_fourier = ft3_radial(mult, grids)
        assert np.max(np.abs(via_kernel.values - via_fourier.values)) < 1e-9

    @pytest.mark.parametrize("beta", [0.5, 2.0, 40.0])
    def test_applied_without_assembly(self, rgrid, grids, beta):
        # the route bs_round_trip takes: to momentum space, times chi, and back
        f = RadialFunction(rgrid, np.exp(-0.5 * rgrid.nodes**2) * (1 + rgrid.nodes))
        dense = apply_kernel(assemble_chi_kernel(beta, 1.0, grids), f).values
        fhat = ft3_radial(f, grids)
        mult = RadialFunction(fhat.grid, chi(beta, fhat.grid.nodes**2 - 1.0) * fhat.values)
        applied = ft3_radial(mult, grids)
        assert applied.grid is rgrid
        assert np.max(np.abs(applied.values - dense)) <= 1e-13 * np.max(np.abs(dense))
        with pytest.raises(GridError):
            ft3_radial(f, GridPair(build_radial_grid(12.0, 96), grids.pgrid))

    def test_inf_requires_guard(self, rgrid, grids):
        # 1/(p^2 - mu) is singular on the sphere p^2 = mu > 0 and finite for mu <= 0
        with pytest.raises(GridError):
            assemble_chi_kernel(math.inf, 1.0, grids)
        below = GridPair(rgrid, build_momentum_grid(8.0, 400, mu=-1.0))
        K = assemble_chi_kernel(math.inf, -1.0, below)
        assert np.all(np.isfinite(K))
        assert np.array_equal(K, K.T)
