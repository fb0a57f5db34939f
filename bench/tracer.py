"""Span tracer for tcshift, installed from outside the package.

Wrappers replace public functions and methods where they are looked up: the
attribute on the defining module or class, and every binding of the same
object that another ``tcshift`` module made with ``from .x import name``.
Each wrapped call is a span with a start, an end and a parent; finished
spans are folded into per-name and per-layer aggregates as they close, so
memory stays flat however many operations run.

Definitions used by the reported metrics:

* a layer's self time is the duration of its spans minus the time their
  direct child spans cover;
* a pipeline stage's self time is the duration of its stage span minus the
  time covered by the nearest nested stage spans, so it keeps the library
  work the stage itself causes;
* dense and tridiagonal eigensolves are counted by wrapping
  ``numpy.linalg.eigvalsh``/``eigh`` and ``scipy.linalg.eigh_tridiagonal``
  and charging each call to the layer of the innermost open span;
* a lambda(beta) evaluation is a ``BsSolver.lambda_of`` call whose
  (solver, beta) pair has not been seen before, i.e. a cache miss counted
  from outside the solver.

Names that a later version of tcshift no longer has are skipped and listed
in ``Tracer.missing``; the metrics that depend on them then read 0.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
import weakref
from collections import defaultdict

LAYERS = (
    "cli",
    "model",
    "grids",
    "birman_schwinger",
    "gl",
    "kernels",
    "schrodinger",
    "checks",
    "pipeline",
)

STAGES = (
    "validation",
    "grids",
    "solver",
    "tc",
    "pair_top",
    "t_profile",
    "gl",
    "ground_state",
    "dc",
    "shift",
    "checks",
)

# (module, attribute path, layer, span name); "Class.method" wraps on the class
SPANS = (
    ("tcshift.cli", "main", "cli", "cli.main"),
    ("tcshift.model", "load_config", "model", "model.load_config"),
    ("tcshift.model", "model_from_dict", "model", "model.model_from_dict"),
    ("tcshift.model", "validate_assumptions", "model", "model.validate_assumptions"),
    ("tcshift.grids", "build_radial_grid", "grids", "grids.build"),
    ("tcshift.grids", "build_momentum_grid", "grids", "grids.build"),
    ("tcshift.grids", "ft3_radial", "grids", "grids.ft3_radial"),
    ("tcshift.grids", "assemble_chi_kernel", "grids", "grids.assemble_chi_kernel"),
    ("tcshift.birman_schwinger", "BsSolver.__init__", "birman_schwinger", "birman_schwinger.solver_build"),
    ("tcshift.birman_schwinger", "BsSolver.lambda_of", "birman_schwinger", "birman_schwinger.lambda_of"),
    ("tcshift.birman_schwinger", "BsSolver.solve_beta_c", "birman_schwinger", "birman_schwinger.solve_beta_c"),
    ("tcshift.birman_schwinger", "BsSolver.top", "birman_schwinger", "birman_schwinger.top"),
    ("tcshift.birman_schwinger", "BsSolver.extract_pair_state", "birman_schwinger", "birman_schwinger.extract_pair_state"),
    ("tcshift.birman_schwinger", "sup_spec_zero_temperature", "birman_schwinger", "birman_schwinger.sup_spec_zero_temperature"),
    ("tcshift.gl", "compute_t", "gl", "gl.compute_t"),
    ("tcshift.gl", "compute_lambdas", "gl", "gl.compute_lambdas"),
    ("tcshift.gl", "normalization_position_route", "gl", "gl.normalization_position_route"),
    ("tcshift.kernels", "matsubara_tanh", "kernels", "kernels.matsubara"),
    ("tcshift.kernels", "matsubara_xi", "kernels", "kernels.matsubara"),
    ("tcshift.schrodinger", "ground_energy", "schrodinger", "schrodinger.ground_energy"),
    ("tcshift.schrodinger", "compute_dc", "schrodinger", "schrodinger.compute_dc"),
    ("tcshift.schrodinger", "tc_of_h", "schrodinger", "schrodinger.tc_of_h"),
    ("tcshift.checks", "run_identity_checks", "checks", "checks.run"),
    ("tcshift.pipeline", "sweep", "pipeline", "pipeline.sweep"),
    ("tcshift.pipeline", "emit", "pipeline", "pipeline.emit"),
    ("tcshift.pipeline", "Pipeline.bundle", "pipeline", "pipeline.bundle"),
    ("tcshift.pipeline", "Pipeline.with_field", "pipeline", "pipeline.with_field"),
    *(("tcshift.pipeline", f"Pipeline.{s}", "pipeline", f"pipeline.{s}") for s in STAGES),
)

# LAPACK entry points: (module, attribute, flop model); flops are textbook
# estimates from the matrix order n, reported as computed, not measured
EIGENSOLVERS = (
    ("numpy.linalg", "eigvalsh", lambda n: 4.0 * n**3 / 3.0),
    ("numpy.linalg", "eigh", lambda n: 9.0 * n**3),
    ("scipy.linalg", "eigh_tridiagonal", lambda n: 30.0 * n),
)


class _Span:
    __slots__ = ("name", "layer", "start", "parent", "child_s", "stage_child_s")

    def __init__(self, name, layer, start, parent):
        self.name = name
        self.layer = layer
        self.start = start
        self.parent = parent
        self.child_s = 0.0
        self.stage_child_s = 0.0


class Tracer:
    def __init__(self):
        self.stack: list[_Span] = []
        self.stage_stack: list[_Span] = []
        self.calls = defaultdict(int)  # span name -> calls
        self.incl_s = defaultdict(float)  # span name -> inclusive seconds
        self.layer_self_s = defaultdict(float)
        self.stage_self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self.missing: list[str] = []
        self._seen_betas = weakref.WeakKeyDictionary()

    # --- span bookkeeping -------------------------------------------------

    def _enter(self, name, layer):
        span = _Span(name, layer, time.perf_counter(), self.stack[-1] if self.stack else None)
        self.stack.append(span)
        if name.startswith("pipeline.") and name[9:] in STAGES:
            self.stage_stack.append(span)
        return span

    def _exit(self, span):
        dur = time.perf_counter() - span.start
        self.stack.pop()
        self.calls[span.name] += 1
        self.incl_s[span.name] += dur
        self.layer_self_s[span.layer] += dur - span.child_s
        if span.parent is not None:
            span.parent.child_s += dur
        if self.stage_stack and self.stage_stack[-1] is span:
            self.stage_stack.pop()
            self.stage_self_s[span.name[9:]] += dur - span.stage_child_s
            if self.stage_stack:
                self.stage_stack[-1].stage_child_s += dur

    @contextlib.contextmanager
    def span(self, name, layer):
        span = self._enter(name, layer)
        try:
            yield
        finally:
            self._exit(span)

    def _current_layer(self):
        return self.stack[-1].layer if self.stack else "other"

    def _current_stage(self):
        return self.stage_stack[-1].name[9:] if self.stage_stack else None

    # --- wrappers ---------------------------------------------------------

    def _wrap(self, fn, name, layer):
        tracer = self
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "birman_schwinger.lambda_of":
                tracer._count_lambda(args[0], args[1] if len(args) > 1 else kwargs["beta_or_inf"])
            elif name.startswith("pipeline.") and name[9:] in STAGES:
                tracer._count_memo(args, name[9:])
            span = tracer._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(span)
            if hook is not None:
                hook(result)
            return result

        wrapper.__bench_wrapped__ = fn
        return wrapper

    def _count_lambda(self, solver, beta):
        self.counts["birman_schwinger.lambda_calls"] += 1
        seen = self._seen_betas.setdefault(solver, set())
        if beta not in seen:
            seen.add(beta)
            self.counts["birman_schwinger.lambda_evals"] += 1
            stage = self._current_stage()
            if stage is not None:
                self.counts[f"pipeline.{stage}.lambda_evals"] += 1

    def _count_memo(self, args, stage):
        cache = getattr(args[0], "_cache", None)
        self.counts["pipeline.stage_calls"] += 1
        if isinstance(cache, dict) and stage in cache:
            self.counts["pipeline.cache_hits"] += 1

    def _after_pipeline_emit(self, paths):
        self.counts["pipeline.emit_bytes"] += sum(os.path.getsize(p) for p in paths)

    def _after_checks_run(self, results):
        self.counts["checks.count"] += len(results)
        self.counts["checks.failed"] += sum(1 for r in results if not r.passed)

    def _wrap_eig(self, fn, flops):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            n = len(a)
            layer = tracer._current_layer()
            t0 = time.perf_counter()
            try:
                return fn(a, *args, **kwargs)
            finally:
                tracer.counts[f"{layer}.eigensolves"] += 1
                tracer.counts[f"{layer}.eig_s"] += time.perf_counter() - t0
                tracer.counts[f"{layer}.eig_flops_computed"] += flops(n)
                key = f"{layer}.eig_order_max"
                tracer.maxima[key] = max(tracer.maxima[key], n)

        wrapper.__bench_wrapped__ = fn
        return wrapper

    # --- installation -----------------------------------------------------

    def install_eigensolvers(self):
        """Wrap the LAPACK entry points; call before tcshift is imported."""
        import importlib

        for modname, attr, flops in EIGENSOLVERS:
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr, None)
            if orig is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            setattr(mod, attr, self._wrap_eig(orig, flops))
            _rebind(orig, getattr(mod, attr), prefix=("tcshift",))

    def install(self):
        """Wrap tcshift's public entry points; tcshift must already be imported."""
        import importlib

        for modname, path, layer, name in SPANS:
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                self.missing.append(f"{modname}.{path}")
                continue
            owner = mod
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            orig = owner.__dict__.get(attr) if owner is not None else None
            if orig is None or not callable(orig):
                self.missing.append(f"{modname}.{path}")
                continue
            wrapped = self._wrap(orig, name, layer)
            setattr(owner, attr, wrapped)
            if not outer:
                _rebind(orig, wrapped, prefix=("tcshift",))

    # --- report -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data copy of every aggregate, for merging across processes."""
        return {
            "calls": dict(self.calls),
            "incl_s": dict(self.incl_s),
            "layer_self_s": dict(self.layer_self_s),
            "stage_self_s": dict(self.stage_self_s),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "missing": list(self.missing),
        }

    def reset(self):
        """Drop aggregates collected so far (e.g. during set-up)."""
        fresh = Tracer()
        for key in ("calls", "incl_s", "layer_self_s", "stage_self_s", "counts", "maxima"):
            setattr(self, key, getattr(fresh, key))


def _rebind(orig, wrapped, prefix):
    """Point every ``from x import name`` binding of ``orig`` at ``wrapped``."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not modname.startswith(prefix):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapped)


def merge(snapshots) -> dict:
    total = {k: defaultdict(float) for k in ("calls", "incl_s", "layer_self_s", "stage_self_s", "counts")}
    maxima = defaultdict(float)
    missing = set()
    for snap in snapshots:
        for key, agg in total.items():
            for name, value in snap[key].items():
                agg[name] += value
        for name, value in snap["maxima"].items():
            maxima[name] = max(maxima[name], value)
        missing.update(snap["missing"])
    out = {k: dict(v) for k, v in total.items()}
    out["maxima"] = dict(maxima)
    out["missing"] = sorted(missing)
    return out


def layer_metrics(agg: dict) -> dict:
    """Per-layer metrics (name -> (value, unit)) from a merged snapshot."""
    calls, incl = agg["calls"], agg["incl_s"]
    counts, maxima = agg["counts"], agg["maxima"]

    def c(name):
        return float(counts.get(name, 0.0))

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "cli.import_s": (incl.get("cli.import", 0.0), "s"),
        "cli.main_s": (incl.get("cli.main", 0.0), "s"),
        "model.load_config_s": (incl.get("model.load_config", 0.0), "s"),
        "model.validate_assumptions_s": (incl.get("model.validate_assumptions", 0.0), "s"),
        "grids.build_calls": (calls.get("grids.build", 0), "count"),
        "grids.build_s": (incl.get("grids.build", 0.0), "s"),
        "grids.ft3_radial_s": (incl.get("grids.ft3_radial", 0.0), "s"),
        "grids.assemble_chi_kernel_s": (incl.get("grids.assemble_chi_kernel", 0.0), "s"),
        "grids.eigensolves": (c("grids.eigensolves"), "count"),
        "birman_schwinger.solver_builds": (calls.get("birman_schwinger.solver_build", 0), "count"),
        "birman_schwinger.solver_build_s": (incl.get("birman_schwinger.solver_build", 0.0), "s"),
        "birman_schwinger.lambda_calls": (c("birman_schwinger.lambda_calls"), "count"),
        "birman_schwinger.lambda_evals": (c("birman_schwinger.lambda_evals"), "count"),
        "birman_schwinger.lambda_hit_ratio": (
            ratio(c("birman_schwinger.lambda_calls") - c("birman_schwinger.lambda_evals"),
                  c("birman_schwinger.lambda_calls")),
            "ratio",
        ),
        "birman_schwinger.lambda_eval_s": (incl.get("birman_schwinger.lambda_of", 0.0), "s"),
        "birman_schwinger.solve_beta_c_s": (incl.get("birman_schwinger.solve_beta_c", 0.0), "s"),
        "birman_schwinger.top_s": (incl.get("birman_schwinger.top", 0.0), "s"),
        "birman_schwinger.sup_spec_zero_temperature_s": (
            incl.get("birman_schwinger.sup_spec_zero_temperature", 0.0),
            "s",
        ),
        "birman_schwinger.eigensolves": (c("birman_schwinger.eigensolves"), "count"),
        "birman_schwinger.eig_s": (c("birman_schwinger.eig_s"), "s"),
        "birman_schwinger.eig_order_max": (maxima.get("birman_schwinger.eig_order_max", 0.0), "count"),
        "birman_schwinger.eig_flops_computed": (c("birman_schwinger.eig_flops_computed"), "flop"),
        "gl.compute_t_s": (incl.get("gl.compute_t", 0.0), "s"),
        "gl.compute_lambdas_s": (incl.get("gl.compute_lambdas", 0.0), "s"),
        "gl.normalization_position_route_s": (incl.get("gl.normalization_position_route", 0.0), "s"),
        "kernels.matsubara_calls": (calls.get("kernels.matsubara", 0), "count"),
        "kernels.matsubara_s": (incl.get("kernels.matsubara", 0.0), "s"),
        "schrodinger.ground_energy_calls": (calls.get("schrodinger.ground_energy", 0), "count"),
        "schrodinger.ground_energy_s": (incl.get("schrodinger.ground_energy", 0.0), "s"),
        "schrodinger.tridiag_solves": (c("schrodinger.eigensolves"), "count"),
        "schrodinger.tridiag_order_max": (maxima.get("schrodinger.eig_order_max", 0.0), "count"),
        "schrodinger.levels_per_call": (
            ratio(c("schrodinger.eigensolves"), calls.get("schrodinger.ground_energy", 0)),
            "levels/call",
        ),
        "schrodinger.eig_s": (c("schrodinger.eig_s"), "s"),
        "checks.run_s": (incl.get("checks.run", 0.0), "s"),
        "checks.count": (c("checks.count"), "count"),
        "checks.failed": (c("checks.failed"), "count"),
        "pipeline.stage_calls": (c("pipeline.stage_calls"), "count"),
        "pipeline.cache_hits": (c("pipeline.cache_hits"), "count"),
        "pipeline.cache_hit_ratio": (
            ratio(c("pipeline.cache_hits"), c("pipeline.stage_calls")),
            "ratio",
        ),
        "pipeline.emit_s": (incl.get("pipeline.emit", 0.0), "s"),
        "pipeline.emit_bytes": (c("pipeline.emit_bytes"), "bytes"),
        "pipeline.tc.lambda_evals": (c("pipeline.tc.lambda_evals"), "count"),
        "pipeline.checks.lambda_evals": (c("pipeline.checks.lambda_evals"), "count"),
    }
    for stage in ("validation", "tc", "pair_top", "t_profile", "gl", "ground_state", "shift", "checks"):
        m[f"pipeline.{stage}.self_s"] = (agg["stage_self_s"].get(stage, 0.0), "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (agg["layer_self_s"].get(layer, 0.0), "s")
    return {k: (float(v), u) for k, (v, u) in m.items()}
