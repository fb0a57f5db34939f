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
import hashlib
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .birman_schwinger import BsSolver
from .checks import Artifacts, CheckResult, run_identity_checks
from .errors import AssumptionViolation, ConfigError
from .gl import compute_lambdas, compute_t
from .model import (
    ExternalField,
    Numerics,
    PhysicalModel,
    _plain,
    model_from_dict,
    model_to_dict,
    validate_assumptions,
)
from .schrodinger import EffectiveProblem, TcShiftReport, compute_dc, ground_energy, tc_of_h

__all__ = [
    "Pipeline",
    "ResultBundle",
    "RunManifest",
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
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass
class RunManifest:
    config_digest: str
    tool_version: str
    started_at: str
    finished_at: str
    grids: dict
    tolerances: dict
    cache_hits: int = 0  # stage results this pipeline served from its own cache
    solver_rank: int | None = None  # k of the compressed Birman-Schwinger factor
    lambda_truncation_bound: float | None = None  # Weyl bound on lambda(beta_c) from it
    ground_state_ladder: dict | None = None  # schrodinger.LadderStats of the ground_state stage

    def reproducible(self) -> dict:
        """The fields identical configurations reproduce: no timestamps, no solver diagnostics."""
        d = dataclasses.asdict(self)
        for key in (
            "started_at",
            "finished_at",
            "cache_hits",
            "solver_rank",
            "lambda_truncation_bound",
            "ground_state_ladder",
        ):
            d.pop(key)
        return d


@dataclass
class ResultBundle:
    manifest: RunManifest
    validation: list
    tc: dict | None = None
    gl: dict | None = None
    ground_state: dict | None = None
    shift: dict | None = None
    checks: list = field(default_factory=list)

    @property
    def all_checks_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)


# Direct inputs of each stage: the PhysicalModel fields it reads and the
# stages it uses.  Entries come after every stage they use.  ``validation``
# is a precondition that ``tc`` checks, not an input, so a new W keeps the
# coefficients (W enters only the effective operator p^2 + (lambda1/lambda0) W).
STAGES = {
    "validation": (("V", "W", "mu"), ()),
    "grids": (("V", "mu"), ()),
    "solver": (("V", "mu"), ("grids",)),
    "tc": ((), ("solver",)),
    "pair_top": ((), ("solver", "tc")),
    "t_profile": (("mu",), ("pair_top", "tc", "grids")),
    "gl": (("mu",), ("t_profile", "tc", "pair_top")),
    "ground_state": (("W",), ("gl",)),
    "dc": ((), ("gl", "ground_state")),
    "shift": (("h_values",), ("gl", "dc")),
    "checks": (("V", "mu"), ("grids", "tc", "pair_top", "t_profile", "gl")),
}

# CLI verbs in prefix order: each verb also runs every verb before it.
VERBS = ("validate", "tc", "gl", "dc", "shift", "verify")


def stages_reading(fields) -> set:
    """Stages that read any of ``fields``, directly or through a stage they use."""
    fields, reached = set(fields), set()
    for name, (reads, uses) in STAGES.items():
        if fields.intersection(reads) or reached.intersection(uses):
            reached.add(name)
    return reached


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
    if not dataclasses.is_dataclass(new):
        return _plain(new)
    entry = dict(entry or {})
    for f in dataclasses.fields(new):
        value = _plain(getattr(new, f.name))
        if value != _plain(getattr(old, f.name)):
            entry[f.name] = value
    return entry


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

    def _memo(self, key, builder):
        if key in self._cache:
            self.cache_hits += 1
            return self._cache[key]
        value = builder()
        self._cache[key] = value
        return value

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
        stale = stages_reading(model_changes)
        clone._cache.update((k, v) for k, v in self._cache.items() if k not in stale)
        return clone

    def with_field(self, W: ExternalField) -> "Pipeline":
        return self.derive(W=W)

    # --- stages -------------------------------------------------------------

    def validation(self):
        return self._memo("validation", lambda: validate_assumptions(self.model, self.numerics))

    def require_assumptions(self):
        report = self.validation()
        if not report.passed:
            failed = [i.name for i in report.items if not i.passed]
            raise AssumptionViolation(f"model validation failed: {', '.join(failed)}")
        return report

    def grids(self):
        return self._memo("grids", lambda: self.numerics.build_grids(self.model))

    def solver(self) -> BsSolver:
        return self._memo("solver", lambda: BsSolver(self.model, self.grids()))

    def tc(self):
        self.require_assumptions()
        return self._memo(
            "tc",
            lambda: self.solver().solve_beta_c(
                self.numerics.beta_bracket, self.numerics.beta_c_rel_tol
            ),
        )

    def pair_top(self):
        return self._memo(
            "pair_top", lambda: self.solver().extract_pair_state(self.tc(), self.numerics.gap_tol)
        )

    def t_profile(self):
        return self._memo(
            "t_profile",
            lambda: compute_t(self.pair_top()[0], self.tc(), self.model, self.grids()),
        )

    def gl(self):
        return self._memo(
            "gl",
            lambda: compute_lambdas(
                self.t_profile(), self.tc(), self.model.mu, self.pair_top()[1].gap
            ),
        )

    def ground_state(self):
        def build():
            problem = EffectiveProblem.from_gl(
                self.gl(),
                self.model.W,
                domain_radius=self.numerics.domain_radius,
                n_points=self.numerics.n_points,
            )
            return ground_energy(problem)

        return self._memo("ground_state", build)

    def dc(self) -> float:
        return self._memo("dc", lambda: compute_dc(self.gl(), self.ground_state()))

    def shift(self) -> TcShiftReport:
        return self._memo("shift", lambda: tc_of_h(self.gl(), self.dc(), self.model.h_values))

    def checks(self) -> list[CheckResult]:
        def build():
            arts = Artifacts(
                model=self.model,
                numerics=self.numerics,
                grids=self.grids(),
                tc=self.tc(),
                pair=self.pair_top()[0],
                top=self.pair_top()[1],
                t_profile=self.t_profile(),
                gl=self.gl(),
            )
            return run_identity_checks(arts)

        return self._memo("checks", build)

    # --- bundling -------------------------------------------------------------

    def bundle(self, upto: str = "shift") -> ResultBundle:
        """Run the minimal stage prefix for the requested verb and package it."""
        if upto not in VERBS:
            raise ConfigError(f"unknown pipeline stage {upto!r}")
        started = datetime.now(timezone.utc).isoformat()
        verbs = VERBS[: VERBS.index(upto) + 1]

        validation = self.validation()
        tc_d = gl_d = gs = gs_d = shift_d = None
        checks: list[CheckResult] = []
        if "tc" in verbs:
            tcrit = self.tc()
            tc_d = {
                "beta_c": tcrit.beta_c,
                "T_c": tcrit.T_c,
                "bracket": list(tcrit.bracket),
                "tolerance": tcrit.tolerance,
            }
        if "gl" in verbs:
            gl = self.gl()
            gl_d = {
                "beta_c": gl.beta_c,
                "T_c": gl.T_c,
                "lambda0": gl.lambda0,
                "lambda1": gl.lambda1,
                "lambda2": gl.lambda2,
                "gap": gl.gap,
            }
        if "dc" in verbs:
            gs = self.ground_state()
            gs_d = {
                "e0": gs.e0,
                "bound_state": gs.bound_state,
                "refinement_delta": gs.refinement_delta,
                "essential_bottom": gs.essential_bottom,
                "D_c": self.dc(),
            }
        if "shift" in verbs:
            rep = self.shift()
            shift_d = {
                "D_c": rep.D_c,
                "T_c": rep.T_c,
                "rows": [[h, t] for h, t in rep.rows],
                "warnings": list(rep.warnings),
            }
        if "verify" in verbs:
            checks = self.checks()

        grids = self.grids() if "tc" in verbs else None
        solver = self.solver() if "tc" in verbs else None
        finished = datetime.now(timezone.utc).isoformat()
        manifest = RunManifest(
            config_digest=config_digest(self.cfg),
            tool_version=__version__,
            started_at=started,
            finished_at=finished,
            grids=(
                {
                    "n_r": len(grids.rgrid),
                    "n_p": len(grids.pgrid),
                    "r_max": grids.rgrid.r_max,
                    "p_max": grids.pgrid.r_max,
                }
                if grids is not None
                else {}
            ),
            tolerances={
                "beta_c_rel": self.numerics.beta_c_rel_tol,
                "gap_tol": self.numerics.gap_tol,
            },
            cache_hits=self.cache_hits,
            solver_rank=solver.rank if solver else None,
            lambda_truncation_bound=solver.lambda_bound(tcrit.beta_c) if solver else None,
            ground_state_ladder=dataclasses.asdict(gs.ladder) if gs else None,
        )
        return ResultBundle(
            manifest=manifest,
            validation=[dataclasses.asdict(i) for i in validation.items],
            tc=tc_d,
            gl=gl_d,
            ground_state=gs_d,
            shift=shift_d,
            checks=[dataclasses.asdict(c) for c in checks],
        )


def sweep(cfg: dict, axis: str, values, threads: int = 1) -> list[dict]:
    """One row per axis value; per-point failures land in the error column.

    Every point is ``base.derive`` of the configured model, so a stage is
    recomputed only when the swept field reaches it in ``STAGES``.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; choose one of {tuple(SWEEP_AXES)}")
    field_name, field_value = SWEEP_AXES[axis]
    values = [float(v) for v in values]
    for v in values:
        if not math.isfinite(v):
            raise ConfigError("sweep values must be finite")

    base_model, base_numerics = model_from_dict(cfg)
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

    # warm the stages no point can change once, so every point reuses them; a
    # failure here is left for the points to meet and record in their rows
    shared = stages_used("shift") - stages_reading([field_name])
    try:
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


def emit(bundle: ResultBundle, out_dir, fmt: str = "all") -> list[Path]:
    """Write result.json / CSV tables / manifest.json; returns written paths.

    fmt selects "json" (nested bundle only), "csv" (flat tables only) or
    "all".  result.json carries no timestamps, so identical configurations
    produce byte-identical files; wall-clock data lives only in
    manifest.json.
    """
    if fmt not in ("json", "csv", "all"):
        raise ConfigError(f"unknown output format {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    if fmt in ("json", "all"):
        result = {
            "manifest": bundle.manifest.reproducible(),
            "validation": bundle.validation,
            "tc": bundle.tc,
            "gl": bundle.gl,
            "ground_state": bundle.ground_state,
            "shift": bundle.shift,
            "checks": bundle.checks,
        }
        p = out / "result.json"
        p.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        written.append(p)

    p = out / "manifest.json"
    p.write_text(json.dumps(dataclasses.asdict(bundle.manifest), indent=2, sort_keys=True) + "\n")
    written.append(p)

    if fmt in ("csv", "all"):
        if bundle.shift is not None:
            p = out / "tc_shift.csv"
            _write_csv(p, ("h", "T_c_shifted"), bundle.shift["rows"])
            written.append(p)
        if bundle.checks:
            p = out / "checks.csv"
            _write_csv(
                p,
                ("id", "measured", "expected", "tolerance", "passed"),
                [
                    (c["id"], c["measured"], c["expected"], c["tolerance"], c["passed"])
                    for c in bundle.checks
                ],
            )
            written.append(p)
        if bundle.gl is not None:
            p = out / "gl.csv"
            dc_val = bundle.ground_state["D_c"] if bundle.ground_state else math.nan
            _write_csv(
                p,
                ("beta_c", "T_c", "lambda0", "lambda1", "lambda2", "D_c"),
                [
                    (
                        bundle.gl["beta_c"],
                        bundle.gl["T_c"],
                        bundle.gl["lambda0"],
                        bundle.gl["lambda1"],
                        bundle.gl["lambda2"],
                        dc_val,
                    )
                ],
            )
            written.append(p)
    return written
