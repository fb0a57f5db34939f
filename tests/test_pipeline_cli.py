"""Pipeline orchestration and CLI contract tests: determinism, caching,
serialization round-trips, exit codes."""

import dataclasses
import inspect
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tcshift import errors
from tcshift.birman_schwinger import BsSolver
from tcshift.cli import main as cli_main
from tcshift.errors import ConfigError, DomainTooSmall
from tcshift.grids import GridPair, build_momentum_grid, build_radial_grid
from tcshift.model import ExternalField, load_config, model_from_dict, model_to_dict
from tcshift.pipeline import SWEEP_AXES, STAGES, VERBS, Pipeline, config_digest, emit, sweep

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

CFG = {
    "V": {"family": "gaussian", "amplitude": 2.0, "range": 1.0},
    "W": {
        "family": "gaussian_well",
        "amplitude": -8.0,
        "range": 2.0,
        "dimensionality": "radial_3d",
    },
    "mu": 1.0,
    "h_values": [0.01, 0.02, 0.04],
    "numerics": {"n_r": 192, "n_p": 192, "n_points": 1200},
}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def pipe():
    model, numerics = model_from_dict(CFG)
    return Pipeline(model, numerics, CFG)


@pytest.fixture(scope="module")
def bundle(pipe):
    return pipe.bundle("verify")


@pytest.fixture(scope="module")
def result(bundle):
    return bundle[0]


class TestDigest:
    def test_key_order_independent(self):
        a = {"mu": 1.0, "V": {"family": "gaussian", "amplitude": 2.0}}
        b = {"V": {"amplitude": 2.0, "family": "gaussian"}, "mu": 1.0}
        assert config_digest(a) == config_digest(b)

    def test_changes_with_any_field(self):
        base = config_digest(CFG)
        changed = json.loads(json.dumps(CFG))
        changed["numerics"]["n_r"] = 193
        assert config_digest(changed) != base

    def test_derived_pipeline_digests_its_own_model(self, pipe):
        W = dataclasses.replace(pipe.model.W, amplitude=-3.0)
        for changes, edits in (
            ({"mu": 1.5}, {"mu": 1.5}),
            ({"h_values": (0.05,)}, {"h_values": [0.05]}),
            ({"W": W}, {"W": {**CFG["W"], "amplitude": -3.0}}),
        ):
            point = pipe.derive(**changes)
            edited = {**CFG, **edits}
            assert point.cfg == edited
            assert point.bundle("validate")[0]["manifest"]["config_digest"] == config_digest(edited)
            assert model_from_dict(point.cfg)[0] == point.model

    def test_model_to_dict_reads_back(self):
        for path in sorted(CONFIGS.glob("*.json")):
            model, numerics = load_config(path)
            cfg = json.loads(json.dumps(model_to_dict(model, numerics)))
            assert model_from_dict(cfg) == (model, numerics)
        tabulated = {**CFG, "W": {"family": "tabulated_1d", "dimensionality": "one_d",
                                  "table": [[-1.0, 0.0], [0.0, -2.0], [1.0, 0.0]]}}
        cfg = model_to_dict(*model_from_dict(tabulated))
        assert model_to_dict(*model_from_dict(cfg)) == cfg

    def test_pipeline_without_cfg_digests_its_model(self):
        digests = {
            Pipeline(*load_config(path)).bundle("validate")[0]["manifest"]["config_digest"]
            for path in (CONFIGS / "gaussian.json", CONFIGS / "square_well_1d.json")
        }
        assert len(digests) == 2 and config_digest({}) not in digests


class TestPipeline:
    def test_bundle_consistency(self, result):
        assert result["shift"]["T_c"] == result["tc"]["T_c"]
        assert result["gl"]["beta_c"] == result["tc"]["beta_c"]
        assert all(c["passed"] for c in result["checks"])

    def test_zero_field_gives_flat_table(self, tmp_path):
        cfg = json.loads(json.dumps(CFG))
        cfg["W"] = {"family": "zero"}
        model, numerics = model_from_dict(cfg)
        b, _ = Pipeline(model, numerics, cfg).bundle("shift")
        assert b["ground_state"]["D_c"] == 0.0
        assert all(t == b["tc"]["T_c"] for _, t in b["shift"]["rows"])

    def test_deterministic_bundles(self, result):
        # result holds no timestamps, its manifest included
        model, numerics = model_from_dict(CFG)
        again, _ = Pipeline(model, numerics, CFG).bundle("verify")
        assert again == result

    def test_derived_pipeline_keeps_unreached_stages(self, pipe, bundle):
        every = set(STAGES)
        assert set(pipe._cache) == every
        keeps = {
            "h": every - {"shift"},
            "w_amplitude": {"grids", "solver", "tc", "pair_top", "t_profile", "gl", "checks"},
            "mu": set(),
            "v_amplitude": {"grids"},
        }
        for axis, kept in keeps.items():
            field_name, field_value = SWEEP_AXES[axis]
            point = pipe.derive(**{field_name: field_value(pipe.model, 0.5)})
            assert set(point._cache) == kept, axis
            assert point.cache_hits == 0
        W = ExternalField(family="zero")
        assert set(pipe.with_field(W)._cache) == keeps["w_amplitude"]

    def test_stage_table_is_ordered(self):
        # stages_reading and stages_used rely on each entry following the stages it uses
        seen = set()
        for name, (_reads, uses, _build) in STAGES.items():
            assert set(uses) <= seen, name
            assert callable(Pipeline.__dict__.get(name)), name
            seen.add(name)

    def test_derive_validates_the_new_model(self, pipe):
        with pytest.raises(ConfigError):
            pipe.derive(h_values=(1.5,))

    def test_verify_builds_one_solver_per_route(self, monkeypatch):
        # 1 tc solver, which validation shares, and 4 scaled-amplitude solvers for the battery
        built = []
        init = BsSolver.__init__

        def counted(solver, *args):
            built.append(solver)
            init(solver, *args)

        monkeypatch.setattr(BsSolver, "__init__", counted)
        model, numerics = model_from_dict(CFG)
        Pipeline(model, numerics, CFG).bundle("verify")
        assert len(built) == 5

    def test_stage_prefixes(self):
        model, numerics = model_from_dict(CFG)
        p = Pipeline(model, numerics, CFG)
        b, _ = p.bundle("tc")
        assert b["tc"] is not None and b["gl"] is None and b["checks"] == []

    def test_verb_prefixes_share_sections(self):
        # each verb emits the sections of verify's bundle up to its own; later ones are empty
        model, numerics = load_config(CONFIGS / "gaussian.json")
        full, _ = Pipeline(model, numerics).bundle("verify")
        sections = [section for section, _build in VERBS.values()]
        assert set(full) == {"manifest", *sections}
        for i, verb in enumerate(VERBS):
            result, _ = Pipeline(model, numerics).bundle(verb)
            assert set(result) == set(full), verb
            for section in sections[: i + 1]:
                assert result[section] == full[section], (verb, section)
            for section in sections[i + 1 :]:
                assert result[section] == ([] if section == "checks" else None), (verb, section)

    def test_stage_builders_take_their_uses(self):
        # derive trusts STAGES for cache reuse; a builder receives the model, the
        # numerics and the value of each declared use, so it reads no other stage
        for name, (_reads, uses, build) in STAGES.items():
            params = inspect.signature(build).parameters.values()
            assert [p.name for p in params][:2] == ["model", "numerics"], name
            positional = [inspect.Parameter.POSITIONAL_OR_KEYWORD] * (2 + len(uses))
            assert [p.kind for p in params] == positional, name


class TestEmit:
    def test_round_trip(self, pipe, bundle, tmp_path):
        result, diagnostics = bundle
        emit(result, diagnostics, tmp_path, "json")
        loaded = json.loads((tmp_path / "result.json").read_text())
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        for key in ("cache_hits", "solver_rank", "lambda_truncation_bound", "ground_state_ladder"):
            assert key not in loaded["manifest"], key
            assert manifest[key] == diagnostics[key], key
        assert 0 < manifest["solver_rank"] <= CFG["numerics"]["n_r"]
        assert 0.0 <= manifest["lambda_truncation_bound"] < 1e-10
        ladder = manifest["ground_state_ladder"]
        assert ladder == dataclasses.asdict(pipe.ground_state().ladder)
        assert ladder["levels"] >= 2 and ladder["fallbacks"] == 0
        assert ladder["solves"] >= ladder["levels"]
        assert ladder["final_n"] == CFG["numerics"]["n_points"] * 2 ** (ladder["levels"] - 1)
        assert 0.0 < ladder["max_residual"] < 1e-8
        assert loaded["tc"] == result["tc"]
        assert loaded["gl"] == result["gl"]
        assert loaded["shift"] == result["shift"]

    def test_float_round_trip_via_json(self, bundle, result, tmp_path):
        emit(*bundle, tmp_path, "json")
        loaded = json.loads((tmp_path / "result.json").read_text())
        for key in ("lambda0", "lambda1", "lambda2"):
            assert loaded["gl"][key] == result["gl"][key]

    def test_csv_tables(self, bundle, result, tmp_path):
        emit(*bundle, tmp_path, "csv")
        checks = (tmp_path / "checks.csv").read_text().strip().splitlines()
        assert checks[0] == "id,measured,expected,tolerance,passed"
        assert len(checks) - 1 == len(result["checks"])
        shift = (tmp_path / "tc_shift.csv").read_text().strip().splitlines()
        assert shift[0] == "h,T_c_shifted"
        assert len(shift) - 1 == len(result["shift"]["rows"])
        gl = (tmp_path / "gl.csv").read_text().strip().splitlines()
        assert gl[0] == "beta_c,T_c,lambda0,lambda1,lambda2,D_c"

    def test_csv_17_digit_round_trip(self, bundle, result, tmp_path):
        emit(*bundle, tmp_path, "csv")
        rows = (tmp_path / "gl.csv").read_text().strip().splitlines()[1]
        vals = [float(x) for x in rows.split(",")]
        assert vals[0] == result["gl"]["beta_c"]
        assert vals[2] == result["gl"]["lambda0"]

    def test_byte_identical_reruns(self, tmp_path):
        model, numerics = model_from_dict(CFG)
        b1 = Pipeline(model, numerics, CFG).bundle("shift")
        b2 = Pipeline(model, numerics, CFG).bundle("shift")
        emit(*b1, tmp_path / "a", "json")
        emit(*b2, tmp_path / "b", "json")
        assert (tmp_path / "a/result.json").read_bytes() == (
            tmp_path / "b/result.json"
        ).read_bytes()


# the same axes set through the configuration mapping, independent of sweep()
SET_IN_CONFIG = {
    "h": lambda cfg, v: cfg.update(h_values=[v]),
    "mu": lambda cfg, v: cfg.update(mu=v),
    "v_amplitude": lambda cfg, v: cfg["V"].update(amplitude=v),
    "w_amplitude": lambda cfg, v: cfg["W"].update(amplitude=v),
}


class TestSweep:
    def test_h_square_law(self):
        rows = sweep(CFG, "h", [0.01, 0.02, 0.04])
        t_c = rows[0]["T_c"]
        shifts = [t_c - r["T_c_shifted"] for r in rows]
        assert shifts[1] == pytest.approx(4.0 * shifts[0], rel=1e-10)
        assert shifts[2] == pytest.approx(16.0 * shifts[0], rel=1e-10)

    def test_w_amplitude_crossing_zero(self):
        rows = sweep(CFG, "w_amplitude", [-8.0, 0.0, 8.0])
        dcs = [r["D_c"] for r in rows]
        assert dcs[1] == 0.0
        assert dcs[0] != dcs[2]

    def test_cache_reuse_matches_fresh_run(self):
        for axis, value in (("h", 0.03), ("mu", 1.2), ("v_amplitude", 2.5), ("w_amplitude", -4.0)):
            rows = sweep(CFG, axis, [value - 0.005, value])
            cfg = json.loads(json.dumps(CFG))
            SET_IN_CONFIG[axis](cfg, value)
            model, numerics = model_from_dict(cfg)
            fresh, _ = Pipeline(model, numerics, cfg).bundle("shift")
            row = rows[1]
            assert row["error"] == "", axis
            assert row["beta_c"] == fresh["gl"]["beta_c"], axis
            assert row["lambda1"] == fresh["gl"]["lambda1"], axis
            assert row["e0"] == fresh["ground_state"]["e0"], axis
            assert row["D_c"] == fresh["shift"]["D_c"], axis
            assert row["T_c_shifted"] == fresh["shift"]["rows"][0][1], axis

    def test_error_column_on_bad_point(self):
        rows = sweep(CFG, "v_amplitude", [2.0, 0.0])
        assert rows[0]["error"] == ""
        assert rows[1]["error"] != ""
        assert math.isnan(rows[1]["beta_c"])

    def test_mu_sweep_smooth(self):
        rows = sweep(CFG, "mu", [0.9, 1.0, 1.1])
        bcs = [r["beta_c"] for r in rows]
        assert all(np.isfinite(bcs))
        d1, d2 = abs(bcs[1] - bcs[0]), abs(bcs[2] - bcs[1])
        assert d1 < 10 * d2 and d2 < 10 * d1

    def test_h_sweep_solves_ground_state_once(self, monkeypatch):
        import tcshift.pipeline as pipeline

        calls = []

        def counted(problem):
            calls.append(problem)
            return ground_energy(problem)

        ground_energy = pipeline.ground_energy
        monkeypatch.setattr(pipeline, "ground_energy", counted)
        rows = sweep(CFG, "h", [0.01, 0.02, 0.03, 0.04])
        assert all(r["error"] == "" for r in rows)
        assert len(calls) == 1

    def test_production_table_built_once_per_pipeline(self, monkeypatch):
        model, numerics = load_config(CONFIGS / "gaussian.json")
        built, solvers = [], []
        post_init, solver_init = GridPair.__post_init__, BsSolver.__init__

        def counted(pair):
            built.append(pair)
            post_init(pair)

        def counted_solver(solver, *args):
            solvers.append(solver)
            solver_init(solver, *args)

        monkeypatch.setattr(GridPair, "__post_init__", counted)
        monkeypatch.setattr(BsSolver, "__init__", counted_solver)

        def production(mu):
            rg = build_radial_grid(numerics.resolved_r_max(model), numerics.n_r)
            pg = build_momentum_grid(numerics.resolved_p_max(model), numerics.n_p, mu=mu)
            return sum(
                np.array_equal(b.rgrid.nodes, rg.nodes) and np.array_equal(b.pgrid.nodes, pg.nodes)
                for b in built
            )

        Pipeline(model, numerics).bundle("verify")
        assert production(model.mu) == 1
        built.clear()
        solvers.clear()
        fresh = Pipeline(model, numerics)
        fresh.validation()
        fresh.tc()
        assert production(model.mu) == len(built) == len(solvers) == 1
        cfg = json.loads((CONFIGS / "gaussian.json").read_text())
        for axis, value in (("mu", 1.3), ("v_amplitude", 3.0)):
            built.clear()
            solvers.clear()
            assert sweep(cfg, axis, [value])[0]["error"] == ""
            assert production(value if axis == "mu" else model.mu) == 1, axis
            assert len(built) == len(solvers) == 1, axis

    def test_warm_up_failure_lands_in_rows(self):
        cfg = json.loads(json.dumps(CFG))
        # a barely bound state in a cramped box: ground_state fails in the warm-up
        cfg["W"].update(amplitude=-33.5, range=1.0)
        cfg["numerics"]["domain_radius"] = 6.0
        rows = sweep(cfg, "h", [0.01, 0.02])
        for r in rows:
            assert r["error"].startswith("DomainTooSmall"), r["error"]
            assert math.isfinite(r["beta_c"]) and math.isnan(r["e0"])

    def test_v_amplitude_sweep_compresses_once(self, monkeypatch):
        import tcshift.birman_schwinger as bs

        built, compressed = [], []
        post_init, compress = GridPair.__post_init__, bs._compress

        def counted(pair):
            built.append(pair)
            post_init(pair)

        def counted_compress(G):
            compressed.append(G.shape)
            return compress(G)

        monkeypatch.setattr(GridPair, "__post_init__", counted)
        monkeypatch.setattr(bs, "_compress", counted_compress)
        rows = sweep(CFG, "v_amplitude", [1.5 + 0.25 * k for k in range(8)])
        assert all(r["error"] == "" for r in rows)
        assert len(built) == len(compressed) == 1

    def test_threads_match_serial(self):
        for axis, values in (("h", [0.01, 0.02]), ("v_amplitude", [2.0, 2.5, 3.0])):
            serial = sweep(CFG, axis, values)
            threaded = sweep(CFG, axis, values, threads=2)
            assert serial == threaded, axis


class TestCli:
    def run_cli(self, *argv):
        return cli_main(list(argv))

    def test_shift_verb(self, tmp_path):
        cfg_path = write_cfg(tmp_path, CFG)
        code = self.run_cli("shift", "--config", str(cfg_path), "--out", str(tmp_path / "out"))
        assert code == 0
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        assert result["shift"]["rows"]
        assert (tmp_path / "out" / "tc_shift.csv").exists()
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_validate_verb(self, tmp_path):
        cfg_path = write_cfg(tmp_path, CFG)
        code = self.run_cli("validate", "--config", str(cfg_path), "--out", str(tmp_path / "v"))
        assert code == 0

    def test_validate_failure_exit_code(self, tmp_path):
        bad = json.loads(json.dumps(CFG))
        bad["V"]["amplitude"] = 0.0
        cfg_path = write_cfg(tmp_path, bad)
        code = self.run_cli("validate", "--config", str(cfg_path), "--out", str(tmp_path / "v"))
        assert code == 3

    def test_tc_requires_passing_validation(self, tmp_path):
        # validation is tc's precondition, not one of its inputs
        cfg = json.loads((CONFIGS / "gaussian.json").read_text())
        cfg["V"]["amplitude"] = 0.0
        cfg_path = write_cfg(tmp_path, cfg)
        code = self.run_cli("tc", "--config", str(cfg_path), "--out", str(tmp_path / "t"))
        record = json.loads((tmp_path / "t" / "error.json").read_text())
        assert code == 3 and record["error"] == "AssumptionViolation"

    def test_no_bracket_exit_code_and_error_record(self, tmp_path):
        bad = json.loads(json.dumps(CFG))
        bad["V"]["amplitude"] = 0.05
        bad["mu"] = -1.0  # bounded zero-temperature operator, weak coupling
        cfg_path = write_cfg(tmp_path, bad)
        code = self.run_cli("tc", "--config", str(cfg_path), "--out", str(tmp_path / "e"))
        record = json.loads((tmp_path / "e" / "error.json").read_text())
        assert code == record["exit_code"]
        assert record["error"] in ("NoBracket", "AssumptionViolation")

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("tolerances", "beta_c_rel", 0.0),
            ("tolerances", "beta_c_rel", -1e-8),
            ("tolerances", "gap_tol", -1.0),
            (None, "beta_bracket", [-1.0, 100.0]),
            (None, "beta_bracket", [0.1, math.inf]),
            (None, "domain_radius", -5.0),
            (None, "n_points", 50),
            (None, "n_r", 4),
            (None, "n_p", -3),
            (None, "r_max", -3.0),
            (None, "p_max", 0.0),
        ],
    )
    def test_unrunnable_numerics_exit_2(self, tmp_path, section, key, value):
        cfg = json.loads((CONFIGS / "gaussian.json").read_text())
        block = cfg["numerics"] if section is None else cfg["numerics"].setdefault(section, {})
        block[key] = value
        out = tmp_path / "out"
        assert self.run_cli("tc", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)) == 2
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "ConfigError" and record["exit_code"] == 2
        assert key in record["message"]

    @pytest.mark.parametrize(
        "dotted",
        [
            "numerics.n_rr",
            "numerics.tolerances.guard_epsilon",
            "numerics.tolerances.guard_eps",
            "V.amp",
            "Mu",
        ],
    )
    def test_unknown_key_exit_2(self, tmp_path, dotted):
        cfg = json.loads((CONFIGS / "gaussian.json").read_text())
        *outer, key = dotted.split(".")
        block = cfg
        for part in outer:
            block = block.setdefault(part, {})
        block[key] = -1.0
        out = tmp_path / "out"
        code = self.run_cli("validate", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out))
        assert code == 2
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "ConfigError" and record["exit_code"] == 2
        assert repr(dotted) in record["message"]

    @pytest.mark.parametrize(
        "dotted, value, named",
        [
            ("numerics", None, "numerics"),
            ("numerics.tolerances", [1], "numerics.tolerances"),
            ("V", 3, "V"),
            ("W", "x", "W"),
            ("", [1], "configuration"),
        ],
    )
    def test_non_object_entry_exit_2(self, tmp_path, dotted, value, named):
        cfg = json.loads((CONFIGS / "gaussian.json").read_text())
        if dotted:
            *outer, key = dotted.split(".")
            block = cfg
            for part in outer:
                block = block[part]
            block[key] = value
        else:
            cfg = value
        out = tmp_path / "out"
        code = self.run_cli("validate", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out))
        assert code == 2
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "ConfigError" and record["exit_code"] == 2
        assert record["message"].startswith(f"{named} must be a JSON object")

    @pytest.mark.parametrize(
        "dotted, value",
        [
            ("numerics.n_r", 400.7),
            ("numerics.n_r", True),
            ("numerics.n_r", "x"),
            ("numerics.r_max", "x"),
            ("numerics.beta_bracket", 5),
            ("numerics.tolerances.beta_c_rel", "x"),
            ("h_values", 3),
        ],
    )
    def test_wrongly_typed_value_exit_2(self, tmp_path, dotted, value):
        # a count must be integral, and the message names the key it read
        cfg = json.loads((CONFIGS / "gaussian.json").read_text())
        *outer, key = dotted.split(".")
        block = cfg
        for part in outer:
            block = block[part]
        block[key] = value
        out = tmp_path / "out"
        code = self.run_cli("validate", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out))
        assert code == 2
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "ConfigError" and record["exit_code"] == 2
        assert record["message"].startswith(f"{dotted} cannot be {value!r}")

    def test_unreadable_config_records_error(self, tmp_path, monkeypatch):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        for path in (broken, tmp_path / "absent.json"):
            out = tmp_path / f"out-{path.stem}"
            assert self.run_cli("tc", "--config", str(path), "--out", str(out)) == 2
            record = json.loads((out / "error.json").read_text())
            assert record["error"] == "ConfigError" and str(path) in record["message"]
        monkeypatch.setenv("TCSHIFT_OUT", str(tmp_path / "env"))
        assert self.run_cli("validate", "--config", str(broken)) == 2
        assert json.loads((tmp_path / "env" / "error.json").read_text())["exit_code"] == 2
        # with neither --out nor $TCSHIFT_OUT the directory would be named by the config
        monkeypatch.delenv("TCSHIFT_OUT")
        monkeypatch.chdir(tmp_path)
        assert self.run_cli("validate", "--config", str(broken)) == 2
        assert not (tmp_path / "tcshift_out").exists()

    def test_tabulated_v_amplitude_sweep_exit_2(self, tmp_path):
        cfg = json.loads(json.dumps(CFG))
        cfg["V"] = {"family": "tabulated", "table": [[0.0, 2.0], [1.5, 1.0], [3.0, 0.0]]}
        out = tmp_path / "out"
        code = self.run_cli(
            "sweep", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out),
            "--sweep-axis", "v_amplitude", "--sweep-values", "0.5,2",
        )
        assert code == 2
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "ConfigError" and "v_amplitude" in record["message"]
        assert not (out / "sweep.csv").exists()

    def test_weak_coupling_tc_below_search_range(self, tmp_path):
        # mu > 0 gives T_c > 0 by theorem; at this amplitude T_c lies below 1/BETA_MAX
        cfg = json.loads((CONFIGS / "gaussian.json").read_text())
        cfg["V"]["amplitude"] = 0.4
        path = str(write_cfg(tmp_path, cfg))
        assert self.run_cli("validate", "--config", path, "--out", str(tmp_path / "v")) == 0
        out = tmp_path / "tc"
        assert self.run_cli("tc", "--config", path, "--out", str(out)) == 4
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "NoBracket" and record["exit_code"] == 4
        assert "1e-06" in record["message"]

    def test_v_table_shorter_than_r_max_exit_2(self, tmp_path):
        cfg = json.loads(json.dumps(CFG))
        cfg["V"] = {"family": "tabulated", "table": [[0.0, 2.0], [1.5, 1.0], [3.0, 0.0]]}
        cfg["numerics"]["r_max"] = 5.0
        out = tmp_path / "out"
        code = self.run_cli("validate", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out))
        assert code == 2
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "ConfigError" and record["exit_code"] == 2
        assert "r_max" in record["message"]

    @pytest.mark.parametrize(
        "path",
        [
            pytest.param(
                path,
                id=path.name,
                marks=[
                    pytest.mark.xfail(
                        strict=True,
                        raises=DomainTooSmall,
                        reason="DomainTooSmall: domain_radius 25 truncates the bound state",
                    )
                ]
                if path.name == "square_well_1d.json"
                else [],
            )
            for path in sorted(CONFIGS.glob("*.json"))
        ],
    )
    def test_shipped_config_verifies(self, tmp_path, path):
        code = self.run_cli("verify", "--config", str(path), "--out", str(tmp_path))
        if code != 0 and (tmp_path / "error.json").exists():
            record = json.loads((tmp_path / "error.json").read_text())
            raise getattr(errors, record["error"])(record["message"])
        assert code == 0
        checks = json.loads((tmp_path / "result.json").read_text())["checks"]
        assert len(checks) == 28 and all(c["passed"] for c in checks)

    def test_square_well_config_runs_gl(self, tmp_path):
        config = str(CONFIGS / "square_well_1d.json")
        assert self.run_cli("gl", "--config", config, "--out", str(tmp_path)) == 0

    def test_square_well_config_dc_names_the_truncated_box(self, tmp_path):
        # the half-line solve sees the same edge mass as the full line did
        config = str(CONFIGS / "square_well_1d.json")
        assert self.run_cli("dc", "--config", config, "--out", str(tmp_path)) == 6
        record = json.loads((tmp_path / "error.json").read_text())
        assert record == {
            "error": "DomainTooSmall",
            "message": "bound state keeps 7.06e-04 of its mass near the box edge; "
            "enlarge domain_radius",
            "exit_code": 6,
        }

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert self.run_cli("tc", "--config", str(path)) == 2

    def test_sweep_verb(self, tmp_path):
        cfg_path = write_cfg(tmp_path, CFG)
        code = self.run_cli(
            "sweep",
            "--config",
            str(cfg_path),
            "--out",
            str(tmp_path / "s"),
            "--sweep-axis",
            "h",
            "--sweep-values",
            "0.01,0.02,0.04",
        )
        assert code == 0
        lines = (tmp_path / "s" / "sweep.csv").read_text().strip().splitlines()
        assert lines[0].startswith("value,beta_c,T_c,lambda0")
        assert len(lines) == 4

        # negative values in the space-separated form
        code = self.run_cli(
            "sweep",
            "--config",
            str(cfg_path),
            "--out",
            str(tmp_path / "n"),
            "--sweep-axis",
            "w_amplitude",
            "--sweep-values",
            "-1,-2",
        )
        assert code == 0
        lines = (tmp_path / "n" / "sweep.csv").read_text().strip().splitlines()
        assert [float(line.split(",")[0]) for line in lines[1:]] == [-1.0, -2.0]

    @pytest.mark.parametrize(
        "extra",
        [
            ("--sweep-values", ","),
            ("--sweep-values", "0.01", "--threads", "0"),
            ("--sweep-values", "0.01", "--threads", "-3"),
        ],
    )
    def test_meaningless_sweep_exit_2(self, tmp_path, extra):
        out = tmp_path / "out"
        code = self.run_cli(
            "sweep", "--config", str(write_cfg(tmp_path, CFG)), "--out", str(out),
            "--sweep-axis", "h", *extra,
        )
        assert code == 2
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "ConfigError" and record["exit_code"] == 2
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("verb", list(VERBS))
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_2(self, tmp_path, verb, threads):
        out = tmp_path / "out"
        code = self.run_cli(
            verb, "--config", str(write_cfg(tmp_path, CFG)), "--out", str(out),
            "--threads", threads,
        )
        assert code == 2
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "ConfigError" and "threads" in record["message"]
        assert not (out / "result.json").exists()

    def test_import_leaves_scipy_unloaded(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, tcshift.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_console_entry_point(self, tmp_path):
        cfg_path = write_cfg(tmp_path, CFG)
        proc = subprocess.run(
            [sys.executable, "-m", "tcshift.cli", "validate", "--config", str(cfg_path),
             "--out", str(tmp_path / "sub")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
