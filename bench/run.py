"""Benchmark of tcshift: three workloads, end-to-end metrics, traced layer run.

    python3 bench/run.py --workload cli_cold|sweep_tc|field_scan \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is taken from ``src`` and the
shipped configurations from ``configs``.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``); the line before it is a JSON report with the environment,
the tail percentile used, the gate results and, for traced runs, per-call
counts.  See bench/README.md for the workloads, metrics and tolerances.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import child
import inputs
import tracer

BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference"
WORKLOADS = ("cli_cold", "sweep_tc", "field_scan")
DEFAULT_SEED = 0
SETUP_PROBES = 5
CALL_TIMEOUT_S = 120.0

END_TO_END = (
    ("setup_s", "s"),
    ("op_s_p50", "s"),
    ("op_s_tail", "s"),
    ("throughput_per_s", "1/s"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MB"),
)

# Tolerances for comparing emitted numbers with the reference tables.
# beta_c and T_c: the configuration's beta_c_rel, the relative width to which
#   the bisection certifies beta_c (1e-8 in both shipped configurations).
LAMBDA_REL = 1e-6  # lambda0/1/2 are smooth in beta; 100x beta_c_rel covers any beta_c in the bracket
E0_REL = 1e-6  # ground_energy's own n-to-2n convergence criterion, scaled by max(1, |e0|)


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, a child that crashed)."""


# --- processes -------------------------------------------------------------


# BLAS is pinned to one thread: the workloads are serial, and two BLAS
# threads on a two-core machine shared with one other busy process slowed a
# 3.5 s sweep call to 87 s, so timings tracked the neighbours' load.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env(root: Path) -> dict:
    env = dict(os.environ, **BLAS_THREADS)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(cmd, env, log: Path, timeout: float = CALL_TIMEOUT_S):
    """Run one child to completion; returns (wall seconds, exit code, peak RSS MB)."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=fh, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def run_child(args, env, work: Path, tag: str, timeout: float = CALL_TIMEOUT_S) -> dict:
    out = work / f"{tag}.json"
    log = work / f"{tag}.log"
    _, rc, _ = spawn([sys.executable, str(BENCH / "child.py"), *args], env, log, timeout)
    if rc != 0 or not out.exists():
        raise BenchError(f"child {tag} exited {rc}: {log.read_text()[-2000:]}")
    return json.loads(out.read_text())


# --- environment -----------------------------------------------------------


def git_commit(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = root / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def config_digests(root: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted((root / "configs").glob("*.json"))
    }


# --- statistics ------------------------------------------------------------


def tail(samples):
    """Tail latency: (value, percentile, samples beyond it).

    The value has k = n // 10 samples above it, clamped to 1..10: from 100
    samples on, the highest percentile with ten samples beyond it; below
    that, the 90th percentile, never the maximum, so that one stray sample
    cannot set it.  (With fewer than 20 samples the ten-beyond percentile
    would sit at or below the median.)
    """
    s = sorted(samples)
    n = len(s)
    k = min(10, max(1, n // 10)) if n > 1 else 0
    return s[n - 1 - k], 100.0 * (n - k) / n, k


def median(values):
    return statistics.median(values) if values else math.nan


# --- correctness gate ------------------------------------------------------


def load_reference(name: str):
    path = REFERENCE / f"{name}.json"
    return json.loads(path.read_text()) if path.is_file() else None


def beta_tol(cfg: dict) -> float:
    return float(cfg.get("numerics", {}).get("tolerances", {}).get("beta_c_rel", 1e-8))


def compare_numbers(got: dict, ref: dict, beta_rel: float, h_values) -> list[str]:
    """Problems found comparing emitted numbers with a reference record."""
    problems = []

    def close(name, tol):
        if name in ref and name in got and not abs(got[name] - ref[name]) <= tol:
            problems.append(f"{name}={got[name]!r} vs reference {ref[name]!r} (tol {tol:.3g})")

    for name in ("beta_c", "T_c"):
        if name in ref:
            close(name, beta_rel * abs(ref[name]))
    for name in ("lambda0", "lambda1", "lambda2"):
        if name in ref:
            close(name, LAMBDA_REL * abs(ref[name]))
    e0_tol = E0_REL * max(1.0, abs(ref.get("e0", 0.0)))
    close("e0", e0_tol)
    if "D_c" in ref:
        gain = abs(ref["lambda0"] / ref["lambda2"]) if "lambda0" in ref else abs(ref.get("gain", 1.0))
        d_tol = gain * e0_tol + 2.0 * LAMBDA_REL * abs(ref["D_c"])
        close("D_c", d_tol)
        for h in h_values:
            key = f"T_c(h={h})"
            if key in ref:
                close(key, beta_rel * abs(ref[key]) + abs(ref["T_c"]) * h * h * d_tol)
    return problems


def result_numbers(result: dict) -> dict:
    """Emitted numbers of a CLI result.json, by name."""
    nums = {}
    for section, keys in (
        ("tc", ("beta_c", "T_c")),
        ("gl", ("lambda0", "lambda1", "lambda2")),
        ("ground_state", ("e0", "D_c")),
    ):
        for k in keys:
            if result.get(section):
                nums[k] = result[section][k]
    if result.get("shift"):
        for h, t in result["shift"]["rows"]:
            nums[f"T_c(h={h})"] = t
    return nums


def finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


class CliGate:
    """Gate for CLI calls: exit code, finiteness, reference values, 28/28
    checks on verify, and byte-identical results for repeated inputs."""

    def __init__(self, root: Path, cfgs: dict):
        self.ref = load_reference("cli") or {}
        self.digests = config_digests(root)
        self.cfgs = cfgs
        self.result_sha = {}
        self.sections = {}

    def matches_known_defect(self, verb, cfg_name, rc, out_dir: Path) -> bool:
        for d in self.ref.get("known_defects", []):
            if d["config"] == cfg_name and verb in d["verbs"] and rc == d["exit_code"]:
                err = out_dir / "error.json"
                return err.is_file() and json.loads(err.read_text()).get("error") == d["error"]
        return False

    def check(self, verb, cfg_name, rc, out_dir: Path):
        """Returns (status, problems); status is ok, known_defect or failed."""
        if rc != 0:
            if self.matches_known_defect(verb, cfg_name, rc, out_dir):
                return "known_defect", []
            err = out_dir / "error.json"
            detail = err.read_text() if err.is_file() else ""
            return "failed", [f"{verb} {cfg_name} exited {rc} {detail.strip()}"]
        path = out_dir / "result.json"
        if not path.is_file():
            return "failed", [f"{verb} {cfg_name}: no result.json"]
        raw = path.read_bytes()
        result = json.loads(raw)
        nums = result_numbers(result)
        problems = []
        if not finite(nums.values()):
            problems.append(f"non-finite output {nums}")
        if verb == "verify":
            checks = result.get("checks") or []
            n_pass = sum(1 for c in checks if c["passed"])
            if cfg_name == inputs.BASE_CONFIG and (len(checks), n_pass) != (28, 28):
                problems.append(f"verify: {n_pass}/{len(checks)} checks passed, expected 28/28")
        ref_cfg = self.ref.get("configs", {}).get(cfg_name)
        if ref_cfg and ref_cfg["sha256"] == self.digests.get(cfg_name) and verb in ref_cfg["verbs"]:
            cfg = self.cfgs[cfg_name]
            problems += compare_numbers(nums, ref_cfg["verbs"][verb], beta_tol(cfg), cfg.get("h_values", []))
        digest = hashlib.sha256(raw).hexdigest()
        if self.result_sha.setdefault((cfg_name, verb), digest) != digest:
            problems.append(f"{verb} {cfg_name}: result.json differs from an earlier identical call")
        for section in ("validation", "tc", "gl", "ground_state", "shift"):
            if result.get(section) is None:
                continue
            text = json.dumps(result[section], sort_keys=True)
            if self.sections.setdefault((cfg_name, section), text) != text:
                problems.append(f"{verb} {cfg_name}: section {section} differs between verbs")
        return ("ok" if not problems else "failed"), problems


def sweep_row_numbers(row, h_values):
    nums = dict(zip(child.SWEEP_NUMBERS, row))
    nums[f"T_c(h={h_values[0]})"] = nums.pop("T_c_shifted")
    return nums


def field_numbers(out, h_values):
    e0, d_c, t_c, rows = out
    nums = {"e0": e0, "D_c": d_c, "T_c": t_c}
    nums.update({f"T_c(h={h})": t for h, t in zip(h_values, rows)})
    return nums


def known_defect(error: str, had_reference_value: bool) -> bool:
    """A DomainTooSmall failure on an input the reference does not hold a
    value for: the box-truncation defect of ROADMAP item 3, which shallow,
    marginally bound fields hit.  It counts against success_rate but not as
    an unexpected failure."""
    return error.startswith("DomainTooSmall") and not had_reference_value


def gate_inproc(workload, rec, cfg, seed) -> dict:
    """Tally of an in-process worker record; see ``tally`` for the keys."""
    ref = load_reference(workload) if seed == DEFAULT_SEED else None
    ref_ops = ref["ops"] if ref and ref.get("config_sha256") == cfg["_sha256"] else []
    beta_rel = beta_tol(cfg)
    h_values = cfg["h_values"]
    t = tally(rec["wall_s"], rec["rss_mb"])
    for i, (dt, out, err) in enumerate(zip(rec["samples"], rec["outputs"], rec["errors"])):
        ref_op = ref_ops[i] if i < len(ref_ops) else None
        if workload == "sweep_tc":
            rows = out or []
            units = [sweep_row(row, None if ref_op is None else ref_op[j], beta_rel, h_values)
                     for j, row in enumerate(rows)]
            problems = [] if out is not None else [err]
            problems += [p for status, ps in units if status == "failed" for p in ps]
            statuses = [status for status, _ in units] or ["failed"]
        else:
            status, problems = field_op(out, err, ref, ref_op, beta_rel, h_values)
            statuses = [status]
        t["ops"] += 1
        t["units"] += len(statuses)
        t["units_ok"] += statuses.count("ok")
        t["units_known_defect"] += statuses.count("known_defect")
        if problems:
            t["ops_failed"] += 1
            t["problems"] += [f"op {i}: {p}" for p in problems]
        elif "ok" in statuses:
            # a sweep call returns its table even when a point hit the known defect
            t["samples"].append(dt)
    t["repeats"] = len(rec["repeat"])
    t["mismatches"] = sum(
        json.dumps(again) != json.dumps(first) for again, first in zip(rec["repeat"], rec["outputs"])
    )
    if t["mismatches"]:
        t["problems"].append(f"{t['mismatches']} repeated operation(s) gave different output")
    t["ref_checked_ops"] = min(len(ref_ops), t["ops"])
    return t


def sweep_row(row, ref_row, beta_rel, h_values):
    """(status, problems) of one sweep point."""
    error = row[8]
    if error:
        if known_defect(error, ref_row is not None):
            return "known_defect", []
        return "failed", [f"sweep error: {error}"]
    nums = sweep_row_numbers(row, h_values)
    if not finite(nums.values()):
        return "failed", [f"non-finite sweep row {row}"]
    problems = []
    if ref_row is not None:
        problems = compare_numbers(nums, sweep_row_numbers(ref_row, h_values), beta_rel, h_values[:1])
    return ("ok" if not problems else "failed"), problems


def field_op(out, err, ref, ref_op, beta_rel, h_values):
    """(status, problems) of one with_field(W).shift() operation."""
    if out is None:
        if known_defect(err, ref_op is not None):
            return "known_defect", []
        return "failed", [err]
    nums = field_numbers(out, h_values)
    if not finite(nums.values()):
        return "failed", [f"non-finite field output {out}"]
    problems = []
    if ref_op is not None:
        e0, d_c = ref_op
        refnums = {"e0": e0, "D_c": d_c, "gain": ref["gain"], "T_c": ref["T_c"]}
        refnums.update({f"T_c(h={h})": ref["T_c"] * (1.0 - d_c * h * h) for h in h_values})
        problems = compare_numbers(nums, refnums, beta_rel, h_values)
    return ("ok" if not problems else "failed"), problems


def tally(wall_s, rss_mb) -> dict:
    """Outcome of a batch of operations.

    ops/ops_failed count operations and the ones that failed unexpectedly;
    units/units_ok/units_known_defect count work units (CLI calls, sweep
    points, fields); samples are the wall times of successful operations;
    repeats/mismatches are the determinism re-runs and the ones that differed.
    """
    return {"samples": [], "ops": 0, "ops_failed": 0, "units": 0, "units_ok": 0,
            "units_known_defect": 0, "repeats": 0, "mismatches": 0,
            "wall_s": wall_s, "rss_mb": rss_mb, "problems": []}


# --- workloads -------------------------------------------------------------


class Run:
    def __init__(self, root: Path, work: Path, seed: int, seconds: float):
        self.root = root
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.env = child_env(root)
        self.cfgs = {}
        for name in inputs.CLI_CONFIGS:
            text = (root / "configs" / name).read_text()
            (work / name).write_text(text)  # the program sees only these copies
            cfg = json.loads(text)
            cfg["_sha256"] = hashlib.sha256(text.encode()).hexdigest()
            self.cfgs[name] = cfg

    def setup_probes(self, workload, first: int, count: int):
        recs = [
            run_child(["probe", workload, str(self.work / inputs.BASE_CONFIG), str(self.work / f"probe{i}.json")],
                      self.env, self.work, f"probe{i}")
            for i in range(first, first + count)
        ]
        return [r["setup_s"] for r in recs], recs[0]["env"]

    def cli_calls(self, cycles: int, traced=False):
        """Whole cycles of CLI calls, so every run has the same mix of calls."""
        gate = CliGate(self.root, self.cfgs)
        calls = []
        start = time.perf_counter()
        for cycle in range(cycles):
            for verb, cfg_name in inputs.cli_cycle(self.seed, cycle):
                i = len(calls)
                out_dir = self.work / f"call{i}"
                argv = [verb, "--config", str(self.work / cfg_name), "--out", str(out_dir), "--threads", "1"]
                if traced:
                    trace_out = self.work / f"trace{i}.json"
                    cmd = [sys.executable, str(BENCH / "child.py"), "cli", str(trace_out), "--", *argv]
                else:
                    cmd = [sys.executable, "-m", "tcshift.cli", *argv]
                wall, rc, rss = spawn(cmd, self.env, self.work / f"call{i}.log")
                status, problems = gate.check(verb, cfg_name, rc, out_dir)
                call = {"verb": verb, "config": cfg_name, "exit": rc, "wall_s": wall,
                        "rss_mb": rss, "status": status, "problems": problems}
                if traced:
                    record = json.loads(trace_out.read_text())
                    call.update(trace=record["trace"], env=record["env"])
                calls.append(call)
                shutil.rmtree(out_dir, ignore_errors=True)
        return calls, time.perf_counter() - start

    def inproc(self, workload, seconds=None, count=None, traced=False, tag="ops"):
        args = ["ops", workload, str(self.work / inputs.BASE_CONFIG), str(self.work / f"{tag}.json"),
                "--seed", str(self.seed)]
        args += ["--seconds", str(seconds)] if seconds is not None else ["--count", str(count)]
        if traced:
            args.append("--trace")
        rec = run_child(args, self.env, self.work, tag, timeout=max(CALL_TIMEOUT_S, 4 * (seconds or 0)))
        return gate_inproc(workload, rec, self.cfgs[inputs.BASE_CONFIG], self.seed), rec


def cli_tally(calls, wall) -> dict:
    t = tally(wall, max(c["rss_mb"] for c in calls))
    for c in calls:
        t["ops"] += 1
        t["units"] += 1
        if c["status"] == "ok":
            t["units_ok"] += 1
            t["samples"].append(c["wall_s"])
        elif c["status"] == "known_defect":
            t["units_known_defect"] += 1
        else:
            t["ops_failed"] += 1
            t["problems"] += c["problems"]
    return t


def timed(run: Run, workload: str):
    # set-up probes on both sides of the measured window, to average out drift
    before = SETUP_PROBES // 2 + 1
    setup, env = run.setup_probes(workload, 0, before)
    if workload == "cli_cold":
        s = cli_tally(*run.cli_calls(cli_cycles(run.seconds)))
    else:
        s = run.inproc(workload, seconds=run.seconds)[0]
    setup += run.setup_probes(workload, before, SETUP_PROBES - before)[0]
    tail_v, tail_pct, beyond = tail(s["samples"]) if s["samples"] else (math.nan, math.nan, 0)
    metrics = {
        "setup_s": median(setup),
        "op_s_p50": median(s["samples"]),
        "op_s_tail": tail_v,
        "throughput_per_s": s["units_ok"] / s["wall_s"],
        "success_rate": s["units_ok"] / s["units"],
        "peak_rss_mb": s["rss_mb"],
    }
    report = {
        "setup_samples_s": setup,
        "tail": {"percentile": tail_pct, "samples": len(s["samples"]), "beyond": beyond},
        "error_rate": 1.0 - metrics["success_rate"],
        "env": env,
        **{k: v for k, v in s.items() if k not in ("samples", "problems")},
    }
    return metrics, report, s


def traced(run: Run, workload: str):
    """Per-layer metrics from a traced pass, after an untraced pass of the
    same fixed work that gives the tracing overhead."""
    import tracer

    if workload == "cli_cold":
        plain = cli_tally(*run.cli_calls(cycles=1))
        calls, wall = run.cli_calls(cycles=1, traced=True)
        t = cli_tally(calls, wall)
        agg = tracer.merge(c["trace"] for c in calls)
        counts = [c["trace"]["counts"] for c in calls]
        extra = {
            "env": calls[0]["env"],
            "per_call": [
                {
                    "verb": c["verb"], "config": c["config"], "exit": c["exit"],
                    "lambda_evals": n.get("birman_schwinger.lambda_evals", 0),
                    "tc_lambda_evals": n.get("pipeline.tc.lambda_evals", 0),
                    "checks_lambda_evals": n.get("pipeline.checks.lambda_evals", 0),
                    "bs_eigensolves": n.get("birman_schwinger.eigensolves", 0),
                    "tridiag_solves": n.get("schrodinger.eigensolves", 0),
                }
                for c, n in zip(calls, counts)
            ],
        }
    else:
        count = trace_count(workload, run.seconds)
        plain = run.inproc(workload, count=count, tag="plain")[0]
        t, rec = run.inproc(workload, count=count, traced=True, tag="traced")
        agg = tracer.merge([rec["trace"]])
        extra = {"env": rec["env"], "setup_layer_self_s": rec["setup_trace"]["layer_self_s"]}
    metrics = tracer.layer_metrics(agg)
    p50_t, p50_u = median(t["samples"]), median(plain["samples"])
    metrics.update({
        "trace.ops": (float(t["ops"]), "count"),
        "trace.op_s_p50": (p50_t, "s"),
        "trace.untraced_op_s_p50": (p50_u, "s"),
        "trace.overhead_s": (p50_t - p50_u, "s"),
    })
    report = {"missing_hooks": agg["missing"], **extra}
    for key in ("ops", "ops_failed", "repeats", "mismatches", "units", "units_ok", "units_known_defect"):
        t[key] += plain[key]
    t["problems"] += plain["problems"]
    return metrics, report, t


def cli_cycles(seconds: float) -> int:
    """Whole cli_cold cycles for a run of about ``seconds`` (a cycle of 12
    calls takes about 16 s at the commit that added the benchmark)."""
    return max(1, round(seconds / 15))


def trace_count(workload: str, seconds: float) -> int:
    """Fixed work for traced runs, so counts repeat exactly for a seed and size."""
    if workload == "sweep_tc":
        return max(1, round(seconds / 10))
    return max(20, round(25 * seconds))


# --- main ------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    needed = [root / "src" / "tcshift" / "__init__.py"] + [root / "configs" / c for c in inputs.CLI_CONFIGS]
    missing = [str(p.relative_to(root)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: run from a tcshift checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2

    work = root / ".bench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        run = Run(root, work, args.seed, args.seconds)
        if args.trace:
            metrics, report, summary = traced(run, args.workload)
        else:
            values, report, summary = timed(run, args.workload)
            metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    report.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  git_commit=git_commit(root), config_sha256=config_digests(root))
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:.6g} {unit}")
    for p in summary["problems"][:20]:
        print(f"gate: {p}")
    print(json.dumps({"report": report}, default=str))
    failed = summary["ops_failed"] + summary["mismatches"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": summary["ops"] + summary["repeats"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
