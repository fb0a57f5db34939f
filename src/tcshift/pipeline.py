"""End-to-end orchestration: validate -> beta_c -> pair state -> coefficients
-> ground energy -> shift table -> identity checks, plus sweeps and
serialization.

Everything here is deterministic: identical configurations produce
byte-identical result files, timestamps live only in the manifest file, and
sweep caching reuses a stage exactly when the fields it depends on are
unchanged.
"""

from __future__ import annotations

import dataclasses
import json
import math
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .birman_schwinger import BsSolver
from .checks import run_identity_checks
from .errors import AssumptionViolation, ConfigError, ToolError
from .gl import compute_lambdas, compute_t
from .model import (
    TOLERANCES,
    ExternalField,
    Numerics,
    PhysicalModel,
    _plain,
    model_from_dict,
    model_to_dict,
    validate_assumptions,
)
from .schrodinger import EffectiveProblem, compute_dc, ground_energy, tc_of_h

__all__ = [
    "Pipeline",
    "sweep",
    "emit",
    "config_digest",
    "SWEEP_AXES",
    "STAGES",
    "VERBS",
]

# The model field each sweep axis sets, and that field's value at a swept number.
SWEEP_AXES = {
    "h": ("h_values", lambda model, v: (v,)),
    "mu": ("mu", lambda model, v: v),
    "v_amplitude": ("V", lambda model, v: dataclasses.replace(model.V, amplitude=v)),
    "w_amplitude": ("W", lambda model, v: dataclasses.replace(model.W, amplitude=v)),
}


def config_digest(cfg: dict) -> str:
    """Order-independent digest of a parsed configuration mapping."""
    import hashlib  # here, not at the top: it maps OpenSSL (~3.5 MB) for one small sha256

    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _tc(model, numerics, solver, validation):
    """beta_c from the production solver, for a model whose validation passed."""
    if not validation.passed:
        failed = [i.name for i in validation.items if not i.passed]
        raise AssumptionViolation(f"model validation failed: {', '.join(failed)}")
    return solver.solve_beta_c(numerics.beta_bracket, numerics.beta_c_rel_tol)


# Each stage: the PhysicalModel fields it reads, the stages it uses and its
# builder, called as ``build(model, numerics, *uses)`` with the value of each
# used stage in order, so a stage sees no stage it does not declare.  Entries
# come after every stage they use.  ``V.shape`` is V but for its gain: a
# change that moves only the amplitude of a parametric V is ``V.amplitude``,
# which reaches the readers of ``V`` but not those of ``V.shape`` (a new
# solver on kept grids shares the compressed shape factor; see ``BsSolver``).
# Builders name module-level functions at call time, so a wrapper bound to
# such a name later sees every call.
STAGES = {
    "grids": (("V.shape", "mu"), (), lambda model, numerics: numerics.build_grids(model)),
    "solver": (("V", "mu"), ("grids",), lambda model, numerics, grids: BsSolver(model, grids)),
    "validation": (
        ("V", "mu"), ("solver",),
        lambda model, numerics, solver: validate_assumptions(model, numerics, solver),
    ),
    "tc": ((), ("solver", "validation"), _tc),
    "pair_top": (
        (), ("solver", "tc"),
        lambda model, numerics, solver, tc: solver.extract_pair_state(tc, numerics.gap_tol),
    ),
    "t_profile": (
        ("mu",), ("pair_top", "tc", "grids"),
        lambda model, numerics, pair_top, tc, grids: compute_t(pair_top[0], tc, model, grids),
    ),
    "gl": (
        ("mu",), ("t_profile", "tc", "pair_top"),
        lambda model, numerics, t, tc, pair_top: compute_lambdas(
            t, tc, model.mu, pair_top[1].gap
        ),
    ),
    "ground_state": (
        ("W",), ("gl",),
        lambda model, numerics, gl: ground_energy(
            EffectiveProblem.from_gl(gl, model.W, numerics.domain_radius, numerics.n_points)
        ),
    ),
    "dc": ((), ("gl", "ground_state"), lambda model, numerics, gl, gs: compute_dc(gl, gs)),
    "shift": (
        ("h_values",), ("gl", "dc"),
        lambda model, numerics, gl, dc: tc_of_h(gl, dc, model.h_values),
    ),
    "checks": (
        ("V", "mu"), ("solver", "tc", "pair_top", "t_profile", "gl"),
        lambda model, numerics, solver, tc, pair_top, t, gl: run_identity_checks(
            model, numerics, solver, tc, pair_top, t, gl,
            lambda: Pipeline(
                model, dataclasses.replace(numerics, n_r=numerics.n_r // 2, n_p=numerics.n_p // 2)
            ).t_profile(),
        ),
    ),
}

_READ_PATHS = {path for reads, _uses, _build in STAGES.values() for path in reads}


def _tc_section(p: "Pipeline", manifest: dict, diagnostics: dict) -> dict:
    tcrit, grids, solver = p.tc(), p.grids(), p.solver()
    manifest["grids"] = {
        "n_r": len(grids.rgrid),
        "n_p": len(grids.pgrid),
        "r_max": grids.rgrid.r_max,
        "p_max": grids.pgrid.r_max,
    }
    diagnostics["solver_rank"] = solver.rank  # k of the compressed Birman-Schwinger factor
    # Weyl bound on lambda(beta_c) from that compression
    diagnostics["lambda_truncation_bound"] = solver.lambda_bound(tcrit.beta_c)
    return _plain(tcrit)


def _ground_state_section(p: "Pipeline", manifest: dict, diagnostics: dict) -> dict:
    section = _plain(p.ground_state())
    diagnostics["ground_state_ladder"] = section.pop("ladder")  # schrodinger.LadderStats
    return {**section, "D_c": p.dc()}


# CLI verbs in prefix order (each verb also runs every verb before it), the
# result.json section each adds and its builder.  A builder reads the
# pipeline's stages and may add reproducible facts to the run's manifest and
# manifest.json-only diagnostics.
VERBS = {
    "validate": ("validation", lambda p, *_: _plain(p.validation().items)),
    "tc": ("tc", _tc_section),
    "gl": ("gl", lambda p, *_: _plain(p.gl())),
    "dc": ("ground_state", _ground_state_section),
    "shift": ("shift", lambda p, *_: _plain(p.shift())),
    "verify": ("checks", lambda p, *_: _plain(p.checks())),
}


def _touches(change: str, read: str) -> bool:
    """Whether a change of model path ``change`` moves what path ``read`` reads.

    ``V`` touches ``V.shape`` and ``V.amplitude``; those two leave each other alone.
    """
    return change == read or read.startswith(change + ".") or change.startswith(read + ".")


def stages_reading(fields) -> set:
    """Stages that read any of the model paths ``fields``, directly or through a stage they use."""
    touched = {r for r in _READ_PATHS if any(_touches(f, r) for f in fields)}
    reached = set()
    for name, (reads, uses, _build) in STAGES.items():
        if touched.intersection(reads) or reached.intersection(uses):
            reached.add(name)
    return reached


def _changed_paths(model: PhysicalModel, changes: dict) -> set:
    """The model paths that ``dataclasses.replace(model, **changes)`` moves.

    A V that differs from ``model.V`` at most in the amplitude of a
    parametric family is ``V.amplitude``; every other change is its field.
    """
    paths = set(changes)
    if "V" in changes and model.V.family != "tabulated":
        old, new = _plain(model.V), _plain(changes["V"])
        if all(old[key] == new[key] for key in old if key != "amplitude"):
            paths = paths - {"V"} | {"V.amplitude"}
    return paths


def stages_used(stage: str) -> set:
    """``stage`` and every stage it uses, directly or through another stage."""
    used = {stage}
    for name in reversed(STAGES):
        if name in used:
            used.update(STAGES[name][1])
    return used


def _config_entry(old, new, entry):
    """Configuration entry for model field value ``new``, edited from ``entry`` (which gave ``old``).

    A V or W entry keeps the spelling of every member that did not change.
    """
    old, new = _plain(old), _plain(new)
    if not isinstance(new, dict):
        return new
    return {**(entry or {}), **{key: value for key, value in new.items() if value != old[key]}}


class Pipeline:
    """Lazily evaluated pipeline over one model; stages cache their results.

    ``derive`` builds a variant of the model that reuses every cached stage
    the changed fields do not reach (see ``STAGES``).  Without ``cfg`` the
    configuration mapping is ``model_to_dict(model, numerics)``.
    """

    def __init__(self, model: PhysicalModel, numerics: Numerics, cfg: dict | None = None):
        self.model = model
        self.numerics = numerics
        self.cfg = cfg if cfg is not None else model_to_dict(model, numerics)
        self._cache: dict = {}
        self.cache_hits = 0

    def derive(self, **model_changes) -> "Pipeline":
        """Pipeline on ``dataclasses.replace(model, **model_changes)`` sharing unaffected stages.

        The replaced model is validated again; numerics carry over, and ``cfg``
        takes the changed fields in configuration form, so the manifest's
        ``config_digest`` names the model that ran.
        """
        model = dataclasses.replace(self.model, **model_changes)
        cfg = dict(self.cfg)
        for name in model_changes:
            cfg[name] = _config_entry(getattr(self.model, name), getattr(model, name), cfg.get(name))
        clone = Pipeline(model, self.numerics, cfg)
        stale = stages_reading(_changed_paths(self.model, model_changes))
        clone._cache.update((k, v) for k, v in self._cache.items() if k not in stale)
        return clone

    def with_field(self, W: ExternalField) -> "Pipeline":
        return self.derive(W=W)

    # --- stages -------------------------------------------------------------

    def _stage(self, name: str):
        """Stage ``name``'s value, built from its uses (see ``STAGES``) on first request.

        Each use is requested through its method, so a wrapper on a stage
        method sees the nested requests.  A ``ToolError`` leaves with the name
        of the innermost stage it passed through as its ``stage``.
        """
        _reads, uses, build = STAGES[name]
        try:
            if name in self._cache:
                self.cache_hits += 1
                return self._cache[name]
            value = build(self.model, self.numerics, *(getattr(self, use)() for use in uses))
        except ToolError as exc:
            exc.stage = exc.stage or name
            raise
        self._cache[name] = value
        return value

    # --- bundling -------------------------------------------------------------

    def bundle(self, verb: str = "shift") -> tuple[dict, dict]:
        """Run the stage prefix ``verb`` needs; return ``(result, diagnostics)``.

        ``result`` is what result.json holds: every section of ``VERBS`` (those
        of later verbs null, ``checks`` empty) and the reproducible
        ``manifest``.  ``diagnostics`` holds what manifest.json adds to that
        manifest: timestamps, cache hits and solver diagnostics.
        """
        if verb not in VERBS:
            raise ConfigError(f"unknown pipeline stage {verb!r}")
        manifest = {
            "config_digest": config_digest(self.cfg),
            "tool_version": __version__,
            "grids": {},
            "tolerances": {key: getattr(self.numerics, name) for key, name in TOLERANCES.items()},
        }
        result = {section: None for section, _ in VERBS.values()}
        result.update(manifest=manifest, checks=[])
        # a diagnostic of a stage the verb does not reach stays null
        diagnostics = {
            "started_at": datetime.now(timezone.utc).isoformat(),
            "solver_rank": None,
            "lambda_truncation_bound": None,
            "ground_state_ladder": None,
        }
        for name, (section, build) in VERBS.items():
            result[section] = build(self, manifest, diagnostics)
            if name == verb:
                break
        diagnostics["finished_at"] = datetime.now(timezone.utc).isoformat()
        diagnostics["cache_hits"] = self.cache_hits  # stage reads served from this cache
        return result, diagnostics


def _stage_method(name: str):
    def stage(self):
        return self._stage(name)

    stage.__name__, stage.__qualname__ = name, f"Pipeline.{name}"
    stage.__doc__ = f"The cached ``{name}`` stage (see ``STAGES``)."
    return stage


for _name in STAGES:
    setattr(Pipeline, _name, _stage_method(_name))


def sweep(cfg: dict, axis: str, values, threads: int = 1) -> list[dict]:
    """One row per axis value; per-point failures land in the error column.

    Every point is ``base.derive`` of the configured model, so a stage is
    recomputed only when the swept field reaches it in ``STAGES``.  Values
    are numbers or numeric strings; any other raises ConfigError.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; choose one of {tuple(SWEEP_AXES)}")
    field_name, field_value = SWEEP_AXES[axis]
    try:
        values = [float(v) for v in values]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad sweep value: {exc}") from exc
    if not values:
        raise ConfigError("sweep needs at least one value")
    for v in values:
        if not math.isfinite(v):
            raise ConfigError("sweep values must be finite")
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, not {threads}")

    base_model, base_numerics = model_from_dict(cfg)
    if axis == "v_amplitude" and base_model.V.family == "tabulated":
        raise ConfigError("v_amplitude: a tabulated V ignores its amplitude")
    base = Pipeline(base_model, base_numerics, cfg)

    def run_point(value: float) -> dict:
        # stages fill incrementally, so a late failure keeps earlier columns
        row = dict.fromkeys(SWEEP_COLUMNS, math.nan)
        row.update(value=value, error="")
        try:
            p = base.derive(**{field_name: field_value(base_model, value)})
            gl = p.gl()
            row.update(
                beta_c=gl.beta_c,
                T_c=gl.T_c,
                lambda0=gl.lambda0,
                lambda1=gl.lambda1,
                lambda2=gl.lambda2,
            )
            row["e0"] = p.ground_state().e0
            rep = p.shift()
            row["D_c"] = rep.D_c
            row["T_c_shifted"] = rep.rows[0][1] if rep.rows else math.nan
        except Exception as exc:  # per-point failure: record, keep sweeping
            row["error"] = f"{type(exc).__name__}: {exc}"
        return row

    # warm the stages no point can change once, so every point reuses them and
    # pool threads never race to build them; a failure here (a first value the
    # model refuses included) is left for the points to meet and record in
    # their rows.
    try:
        moved = _changed_paths(base_model, {field_name: field_value(base_model, values[0])})
        shared = stages_used("shift") - stages_reading(moved)
        for name in STAGES:
            if name in shared:
                getattr(base, name)()
    except Exception:
        pass

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(run_point, values))
    else:
        rows = [run_point(v) for v in values]
    return rows


SWEEP_COLUMNS = (
    "value",
    "beta_c",
    "T_c",
    "lambda0",
    "lambda1",
    "lambda2",
    "e0",
    "D_c",
    "T_c_shifted",
    "error",
)


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(c) for c in row))
    path.write_text("\n".join(lines) + "\n")


def emit(result: dict, diagnostics: dict, out_dir, fmt: str = "all") -> list[Path]:
    """Write result.json / CSV tables / manifest.json from ``bundle``'s pair; returns written paths.

    fmt selects "json" (result.json only), "csv" (flat tables only) or "all".
    result.json carries no timestamps, so identical configurations produce
    byte-identical files; manifest.json is result.json's ``manifest`` plus
    the run's diagnostics, wall-clock data included.
    """
    if fmt not in ("json", "csv", "all"):
        raise ConfigError(f"unknown output format {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    documents = {"result.json": result} if fmt in ("json", "all") else {}
    documents["manifest.json"] = {**result["manifest"], **diagnostics}
    tables = {}
    if fmt in ("csv", "all"):
        shift, checks, gl, gs = (result[s] for s in ("shift", "checks", "gl", "ground_state"))
        if shift is not None:
            tables["tc_shift.csv"] = (("h", "T_c_shifted"), shift["rows"])
        if checks:
            header = ("id", "measured", "expected", "tolerance", "passed")
            tables["checks.csv"] = (header, [[c[key] for key in header] for c in checks])
        if gl is not None:
            header = ("beta_c", "T_c", "lambda0", "lambda1", "lambda2")
            row = [*(gl[key] for key in header), gs["D_c"] if gs else math.nan]
            tables["gl.csv"] = ((*header, "D_c"), [row])

    written = []
    for name, document in documents.items():
        p = out / name
        p.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        written.append(p)
    for name, (header, rows) in tables.items():
        p = out / name
        _write_csv(p, header, rows)
        written.append(p)
    return written
