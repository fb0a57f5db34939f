"""Child processes of the benchmark; each mode writes one JSON record.

    child.py probe WORKLOAD CONFIG OUT            time one cold set-up
    child.py ops WORKLOAD CONFIG OUT --seed N (--seconds S | --count N) [--trace]
    child.py cli OUT -- VERB --config ...         tcshift.cli.main under the tracer

``run.py`` starts these with ``src`` on ``PYTHONPATH``; tcshift is reached
only through its public entry points: ``tcshift.cli``, ``pipeline.sweep``
and ``Pipeline``/``with_field``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import sys
import time

import inputs

SWEEP_NUMBERS = ("beta_c", "T_c", "lambda0", "lambda1", "lambda2", "e0", "D_c", "T_c_shifted")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    import numpy
    import scipy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version", "openblas configuration")},
        "lapack": {k: deps.get("lapack", {}).get(k) for k in ("name", "version")},
        "threads_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


class Workload:
    """Set-up and one operation of an in-process workload."""

    def __init__(self, name: str, cfg_path: str, tracer=None):
        self.name = name
        importlib.import_module("tcshift.cli" if name == "cli_cold" else "tcshift.pipeline")
        if tracer is not None:
            tracer.install()
        if name == "cli_cold":
            return
        from tcshift.model import load_config
        from tcshift.pipeline import Pipeline

        with open(cfg_path) as fh:
            self.cfg = json.load(fh)
        model, numerics = load_config(cfg_path)
        if name == "field_scan":
            self.base = Pipeline(model, numerics, self.cfg)
            self.base.gl()

    def stream(self, seed: int):
        if self.name == "sweep_tc":
            return inputs.sweep_calls(seed)
        return inputs.fields(seed, self.cfg["W"]["range"])

    def run(self, item):
        """Time one operation; returns (seconds, output, error)."""
        from tcshift.model import ExternalField
        from tcshift.pipeline import sweep

        t0 = time.perf_counter()
        try:
            if self.name == "sweep_tc":
                rows = sweep(self.cfg, item[0], item[1], threads=1)
                dt = time.perf_counter() - t0
                out = [[r[c] for c in SWEEP_NUMBERS] + [r["error"]] for r in rows]
                errors = [r["error"] for r in rows if r["error"]]
                return dt, out, "; ".join(errors)
            point = self.base.with_field(ExternalField(**item))
            rep = point.shift()
            dt = time.perf_counter() - t0
            # read back from the stage cache, outside the timed region
            out = [point.ground_state().e0, rep.D_c, rep.T_c, [t for _, t in rep.rows]]
            return dt, out, ""
        except Exception as exc:  # recorded as a failed operation
            return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"


def probe(args) -> dict:
    t0 = time.perf_counter()
    Workload(args.workload, args.config)
    setup_s = time.perf_counter() - t0
    return {"setup_s": setup_s, "env": environment()}


def ops(args) -> dict:
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install_eigensolvers()
    t0 = time.perf_counter()
    work = Workload(args.workload, args.config, tracer)
    setup_s = time.perf_counter() - t0
    setup_trace = None
    if tracer is not None:
        setup_trace = tracer.snapshot()
        tracer.reset()

    stream = work.stream(args.seed)
    samples, outputs, errors, items = [], [], [], []
    start = time.perf_counter()
    deadline = start + args.seconds if args.seconds is not None else math.inf
    while len(samples) < (args.count or math.inf) and (not samples or time.perf_counter() < deadline):
        item = next(stream)
        dt, out, err = work.run(item)
        samples.append(dt)
        outputs.append(out)
        errors.append(err)
        items.append(item)
    wall_s = time.perf_counter() - start
    trace = tracer.snapshot() if tracer is not None else None

    # determinism gate: the first operations again, outside the timed region
    repeat = [work.run(item)[1] for item in items[: 1 if args.workload == "sweep_tc" else 3]]
    return {
        "setup_s": setup_s,
        "samples": samples,
        "wall_s": wall_s,
        "outputs": outputs,
        "errors": errors,
        "repeat": repeat,
        "rss_mb": peak_rss_mb(),
        "env": environment(),
        "trace": trace,
        "setup_trace": setup_trace,
    }


def cli(args) -> int:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install_eigensolvers()
    rc = None
    try:
        with tracer.span("cli.import", "cli"):
            mod = importlib.import_module("tcshift.cli")
        tracer.install()
        rc = mod.main(args.argv)
        return rc
    finally:
        record = {"trace": tracer.snapshot(), "rss_mb": peak_rss_mb(), "exit": rc, "env": environment()}
        with open(args.out, "w") as fh:
            json.dump(record, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("probe", "ops"):
        p = sub.add_parser(mode)
        p.add_argument("workload", choices=("cli_cold", "sweep_tc", "field_scan"))
        p.add_argument("config")
        p.add_argument("out")
        if mode == "ops":
            p.add_argument("--seed", type=int, required=True)
            p.add_argument("--seconds", type=float)
            p.add_argument("--count", type=int)
            p.add_argument("--trace", action="store_true")
    p = sub.add_parser("cli")
    p.add_argument("out")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    if args.mode == "cli":
        if args.argv[:1] == ["--"]:
            args.argv = args.argv[1:]
        return cli(args)
    record = probe(args) if args.mode == "probe" else ops(args)
    with open(args.out, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
