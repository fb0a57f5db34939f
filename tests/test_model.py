"""Model configuration and assumption-validation tests."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import trapezoid

from tcshift.birman_schwinger import BsSolver
from tcshift.errors import ConfigError
from tcshift.model import (
    ExternalField,
    InteractionPotential,
    Numerics,
    PhysicalModel,
    load_config,
    model_from_dict,
    model_to_dict,
    validate_assumptions,
)

ROOT = Path(__file__).resolve().parents[1]


def make_model(v_amp=2.0, mu=1.0):
    return PhysicalModel(
        V=InteractionPotential(family="gaussian", amplitude=v_amp, range=1.0),
        W=ExternalField(family="zero", range=2.0),
        mu=mu,
        h_values=(0.01, 0.02),
    )


def validate(model, n=128):
    numerics = Numerics(n_r=n, n_p=n)
    return validate_assumptions(model, numerics, BsSolver(model, numerics.build_grids(model)))


class TestInteraction:
    def test_gaussian_at_origin(self):
        V = InteractionPotential(family="gaussian", amplitude=10.0, range=1.0)
        assert V(0.0) == 10.0

    def test_square_well_outside(self):
        V = InteractionPotential(family="square_well", amplitude=5.0, range=2.0)
        assert V(3.0) == 0.0
        assert V(1.9) == 5.0

    def test_tabulated_midpoint(self):
        V = InteractionPotential(family="tabulated", table=[(0.0, 1.0), (1.0, 0.0)])
        assert V(0.5) == pytest.approx(0.5)

    def test_tabulated_out_of_range(self):
        V = InteractionPotential(family="tabulated", table=[(0.0, 1.0), (1.0, 0.0)])
        with pytest.raises(ValueError):
            V(1.5)

    def test_negative_table_rejected(self):
        with pytest.raises(ConfigError):
            InteractionPotential(family="tabulated", table=[(0.0, 1.0), (1.0, -0.1)])

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ConfigError):
            InteractionPotential(family="gaussian", amplitude=-1.0)

    @pytest.mark.parametrize(
        "family,K",
        [("gaussian", 5.0), ("exponential", 3.0), ("tabulated", 2.0)],
    )
    def test_continuity(self, family, K):
        if family == "tabulated":
            V = InteractionPotential(family=family, table=[(0.0, 1.0), (2.0, 0.5), (4.0, 0.0)])
        else:
            V = InteractionPotential(family=family, amplitude=2.0, range=1.0)
        r = np.linspace(0.0, 3.5, 500)
        d = np.abs(np.diff(V(r)))
        assert np.all(d <= K * np.diff(r))


class TestExternalField:
    def test_zero(self):
        W = ExternalField(family="zero")
        assert W(1.0) == 0.0

    def test_constant(self):
        W = ExternalField(family="constant", amplitude=-0.7)
        assert W(5.0) == -0.7

    def test_square_well_requires_1d(self):
        with pytest.raises(ConfigError):
            ExternalField(family="square_well_1d", amplitude=-1.0, dimensionality="radial_3d")

    def test_boundary_value_one_d(self):
        W = ExternalField(
            family="tabulated_1d",
            dimensionality="one_d",
            table=[(0.0, 1.0), (10.0, 0.25)],
        )
        assert W.boundary_value() == 0.25

    def test_boundary_value_negative_coupling_takes_the_higher_end(self):
        W = ExternalField(
            family="tabulated_1d",
            dimensionality="one_d",
            table=[(0.0, 1.0), (10.0, 0.25)],
        )
        assert W.boundary_value(-2.0) == -2.0

    def test_tabulated_1d_keeps_sign_of_coordinate(self):
        W = ExternalField(
            family="tabulated_1d",
            dimensionality="one_d",
            table=[[-2.0, -1.0], [0.0, 0.0], [2.0, 5.0]],
        )
        assert W(-2.0) == -1.0
        assert W(2.0) == 5.0
        assert W(-1.0) == -0.5

    @pytest.mark.parametrize(
        "table, reach",
        [
            ([[-4.3, 3.1], [-2.9, 1.35], [-1.7, 0.0], [-0.27, -3.09]], 4.3),
            ([[-5.0, 0.0], [-4.5, -3.0], [-3.5, -3.0], [-3.0, 0.0], [0.1, 0.0]], 5.0),
            ([[-1.0, 0.0], [3.0, 1.0]], 3.0),
        ],
    )
    def test_table_reach_is_its_largest_abscissa_magnitude(self, table, reach):
        # the last abscissa made a left-side table's default box negative or too small
        W = ExternalField(family="tabulated_1d", dimensionality="one_d", table=table)
        assert W.reach == reach

    @pytest.mark.parametrize(
        "kwargs, coupling",
        [
            ({"family": "zero"}, -2.0),
            ({"family": "constant", "amplitude": 0.7}, -2.0),
            ({"family": "gaussian_well", "amplitude": -3.0, "range": 1.5}, 0.4),
            ({"family": "gaussian_well", "amplitude": -3.0, "range": 1.5}, -0.4),
            ({"family": "square_well_1d", "amplitude": 2.0, "dimensionality": "one_d"}, -0.3),
            ({"family": "square_well_1d", "amplitude": 2.0, "dimensionality": "one_d"}, 0.3),
            (
                {
                    "family": "tabulated_1d",
                    "dimensionality": "one_d",
                    "table": [[-3.0, 1.0], [-1.0, -2.0], [0.5, 4.0], [2.0, 0.5]],
                },
                -1.5,
            ),
        ],
    )
    def test_infimum_bounds_a_fine_sample(self, kwargs, coupling):
        W = ExternalField(**kwargs)
        x = np.linspace(-40.0, 40.0, 160001)
        sample = float(np.min(coupling * W(np.abs(x) if W.dimensionality == "radial_3d" else x)))
        assert W.infimum(coupling) <= sample
        assert W.infimum(coupling) == pytest.approx(min(sample, W.boundary_value(coupling)), abs=1e-12)

    @pytest.mark.parametrize(
        "kwargs, coupling",
        [
            ({"family": "gaussian_well", "amplitude": -3.0, "range": 1.5}, 0.4),
            ({"family": "gaussian_well", "amplitude": 3.0, "range": 1.5}, 0.4),
            ({"family": "constant", "amplitude": -3.0}, 0.4),
            # a table with a node below r = 0, a sign change in a segment and a
            # flat start before its first positive node
            (
                {"family": "tabulated_radial", "table": [[-1.0, 0.5], [1.0, -2.0], [2.5, 1.0], [4.0, 0.25]]},
                1.3,
            ),
            ({"family": "tabulated_radial", "table": [[0.5, -1.0], [1.5, -3.0], [3.0, 0.0]]}, -0.7),
        ],
    )
    def test_bargmann_integral_matches_quadrature(self, kwargs, coupling):
        W = ExternalField(**kwargs)
        b = W.boundary_value(coupling)
        # trapezoid on a grid through every node: exact up to O(h^2) at the zero crossings
        r = np.unique(np.concatenate([np.linspace(0.0, 40.0, 400001), [0.5, 1.0, 1.5, 2.5, 3.0, 4.0]]))
        quadrature = trapezoid(r * np.maximum(b - coupling * W(r), 0.0), r)
        assert W.bargmann_integral(coupling) == pytest.approx(quadrature, rel=1e-8, abs=1e-12)

    def test_bargmann_integral_of_a_gaussian_well(self):
        W = ExternalField(family="gaussian_well", amplitude=-6.0, range=2.0)
        assert W.bargmann_integral(0.25) == 0.25 * 6.0 * 2.0**2 / 2.0
        assert W.bargmann_integral(-0.25) == 0.0

    def test_bargmann_integral_is_radial_only(self):
        W = ExternalField(family="gaussian_well", amplitude=-1.0, dimensionality="one_d")
        with pytest.raises(ValueError, match="radial_3d"):
            W.bargmann_integral()


@pytest.mark.parametrize(
    "cls, kwargs",
    [
        (InteractionPotential, {"family": "gaussian", "amplitude": math.nan}),
        (InteractionPotential, {"family": "exponential", "range": math.inf}),
        (InteractionPotential, {"family": "tabulated", "table": [(0.0, 1.0), (1.0, math.nan)]}),
        (ExternalField, {"family": "gaussian_well", "amplitude": math.nan, "range": 2.0}),
        (ExternalField, {"family": "gaussian_well", "amplitude": -1.0, "range": math.inf}),
        (ExternalField, {"family": "tabulated_radial", "table": [(0.0, -1.0), (math.inf, 0.0)]}),
    ],
    ids=["V-amplitude", "V-range", "V-table", "W-amplitude", "W-range", "W-table"],
)
def test_non_finite_parameters_rejected(cls, kwargs):
    with pytest.raises(ConfigError, match="finite"):
        cls(**kwargs)


class TestPhysicalModel:
    def test_h_values_range(self):
        with pytest.raises(ConfigError):
            make_model().__class__(
                V=make_model().V, W=make_model().W, mu=1.0, h_values=(1.5,)
            )

    def test_mu_finite(self):
        with pytest.raises(ConfigError):
            PhysicalModel(V=make_model().V, W=make_model().W, mu=float("nan"))

    def test_eval_V(self):
        m = make_model()
        assert m.V(0.0) == 2.0


class TestNumerics:
    def test_defaults(self):
        m = make_model()
        n = Numerics()
        assert n.resolved_r_max(m) == 12.0
        assert n.resolved_p_max(m) == 8.0

    def test_tabulated_truncates_at_table_end(self):
        V = InteractionPotential(family="tabulated", table=[(0.0, 1.0), (3.0, 0.0)])
        m = PhysicalModel(V=V, W=ExternalField(family="zero"), mu=0.5)
        assert Numerics().resolved_r_max(m) == 3.0


class TestValidation:
    def test_default_model_passes(self):
        rep = validate(make_model(), n=160)
        assert rep.passed
        # mu > 0: the coupling criterion is the theorem, measured as sup V
        assert rep["zero_temperature_coupling"].measured == 2.0

    def test_zero_interaction_fails_coupling(self):
        for mu in (1.0, -1.0):
            item = validate(make_model(v_amp=0.0, mu=mu))["zero_temperature_coupling"]
            assert not item.passed
            assert item.measured == 0.0

    def test_coupling_scales_linearly_in_amplitude(self):
        # mu = -1: the measured value is lambda(inf) of the production solver
        m1 = validate(make_model(v_amp=1.0, mu=-1.0))["zero_temperature_coupling"]
        m2 = validate(make_model(v_amp=2.0, mu=-1.0))["zero_temperature_coupling"]
        assert 0.0 < m1.measured < 1.0 and not m1.passed
        assert m2.measured == pytest.approx(2.0 * m1.measured, rel=1e-12)


class TestConfigIO:
    def test_round_trip(self, tmp_path):
        cfg = {
            "V": {"family": "gaussian", "amplitude": 2.0, "range": 1.0},
            "W": {"family": "gaussian_well", "amplitude": -1.0, "range": 2.0, "dimensionality": "radial_3d"},
            "mu": 1.0,
            "h_values": [0.01, 0.02],
            "numerics": {"n_r": 128, "n_p": 128, "beta_bracket": [0.1, 100.0], "tolerances": {"beta_c_rel": 1e-8}},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        model, numerics = load_config(path)
        assert model.mu == 1.0
        assert model.W.amplitude == -1.0
        assert numerics.n_r == 128
        assert numerics.beta_c_rel_tol == 1e-8

    def test_missing_key(self):
        with pytest.raises(ConfigError):
            model_from_dict({"V": {"family": "gaussian"}})

    def test_bad_bracket(self):
        with pytest.raises(ConfigError):
            model_from_dict(
                {
                    "V": {"family": "gaussian"},
                    "W": {"family": "zero"},
                    "mu": 1.0,
                    "numerics": {"beta_bracket": [5.0, 1.0]},
                }
            )

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")


def dotted_keys(mapping, prefix=""):
    keys = set()
    for key, value in mapping.items():
        keys.add(prefix + key)
        if isinstance(value, dict):
            keys |= dotted_keys(value, f"{prefix}{key}.")
    return keys


def test_readme_schema_names_the_config_keys():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("### Configuration schema", 1)[1].split("```jsonc", 1)[1].split("```")[0]
    # the block is JSON with comments and placeholders: walk its keys and braces
    prefixes, keys, last = [], set(), ""
    for key, brace in re.findall(r'"(\w+)"\s*:|([{}])', block):
        if key:
            last = prefixes[-1] + key
            keys.add(last)
        elif brace == "{":
            prefixes.append(last + "." if last else "")
        else:
            prefixes.pop()
    assert keys == dotted_keys(model_to_dict(*load_config(ROOT / "configs" / "gaussian.json")))
