"""Shared fixtures: the default model pipeline, computed once per session."""

import pytest

from tcshift.model import ExternalField, InteractionPotential, Numerics, PhysicalModel


def default_model(w_family="gaussian_well", w_amp=-8.0, w_range=2.0):
    return PhysicalModel(
        V=InteractionPotential(family="gaussian", amplitude=2.0, range=1.0),
        W=ExternalField(family=w_family, amplitude=w_amp, range=w_range),
        mu=1.0,
        h_values=(0.01, 0.02, 0.04),
    )


@pytest.fixture(scope="session")
def model():
    return default_model()


@pytest.fixture(scope="session")
def numerics():
    return Numerics(n_r=400, n_p=400)


@pytest.fixture(scope="session")
def grids(model, numerics):
    return numerics.build_grids(model)


@pytest.fixture(scope="session")
def solver(model, grids):
    from tcshift.birman_schwinger import BsSolver

    return BsSolver(model, grids)


@pytest.fixture(scope="session")
def tc(solver, numerics):
    return solver.solve_beta_c(numerics.beta_bracket, numerics.beta_c_rel_tol)


@pytest.fixture(scope="session")
def pair_and_top(solver, tc, numerics):
    return solver.extract_pair_state(tc, numerics.gap_tol)


@pytest.fixture(scope="session")
def pair(pair_and_top):
    return pair_and_top[0]


@pytest.fixture(scope="session")
def spectral_top(pair_and_top):
    return pair_and_top[1]
