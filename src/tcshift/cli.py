"""Command-line interface.

Verbs run the minimal pipeline prefix they need:

    tcshift validate --config cfg.json        assumption report only
    tcshift tc       --config cfg.json        critical temperature
    tcshift gl       --config cfg.json        + macroscopic coefficients
    tcshift dc       --config cfg.json        + ground energy and D_c
    tcshift shift    --config cfg.json        + T_c(h) table
    tcshift verify   --config cfg.json        + full identity-check battery
    tcshift sweep    --config cfg.json --sweep-axis h --sweep-values 0.01,0.02

Output directory: --out, else $TCSHIFT_OUT, else ./tcshift_out/<digest prefix>.
Exit codes: 0 success (verify: all checks passed), 1 check failure, 2+ the
distinct per-error codes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import ConfigError, ToolError
from .model import model_from_dict, read_config
from .pipeline import (
    SWEEP_AXES,
    SWEEP_COLUMNS,
    VERBS,
    Pipeline,
    _write_csv,
    config_digest,
    emit,
    sweep,
)

OUT_ENV = "TCSHIFT_OUT"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcshift",
        description="Critical temperature and its quadratic field shift for a pairing model",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in (*VERBS, "sweep"):
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--format", default="all", choices=("json", "csv", "all"))
        p.add_argument("--threads", type=int, default=1)
        if verb == "sweep":
            p.add_argument("--sweep-axis", required=True, choices=SWEEP_AXES)
            p.add_argument("--sweep-values", required=True, help="comma-separated values")
    return parser


def resolve_out_dir(arg_out, cfg: dict | None) -> Path | None:
    """--out, else $TCSHIFT_OUT, else the digest-named default (None while ``cfg`` is None)."""
    named = arg_out or os.environ.get(OUT_ENV)
    if named:
        return Path(named)
    return None if cfg is None else Path("tcshift_out") / config_digest(cfg)[:12]


def _print_summary(result: dict) -> None:
    if result["tc"]:
        print(f"beta_c = {result['tc']['beta_c']:.12g}   T_c = {result['tc']['T_c']:.12g}")
    if result["gl"]:
        g = result["gl"]
        print(
            f"lambda0 = {g['lambda0']:.12g}   lambda1 = {g['lambda1']:.12g}   "
            f"lambda2 = {g['lambda2']:.12g}"
        )
    if result["ground_state"]:
        gs = result["ground_state"]
        print(f"e0 = {gs['e0']:.12g}   D_c = {gs['D_c']:.12g}")
    if result["shift"]:
        for h, t in result["shift"]["rows"]:
            print(f"h = {h:<10g} T_c(h) = {t:.12g}")
        for w in result["shift"]["warnings"]:
            print(f"warning: {w}", file=sys.stderr)
    if result["checks"]:
        n_pass = sum(1 for c in result["checks"] if c["passed"])
        print(f"identity checks: {n_pass}/{len(result['checks'])} passed")
        for c in result["checks"]:
            if not c["passed"]:
                print(
                    f"  FAIL {c['id']}: measured {c['measured']:.6g} "
                    f"expected {c['expected']:.6g} tol {c['tolerance']:.2g}",
                    file=sys.stderr,
                )


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes a value such as "-1,-2" for an unknown flag; bind it to its flag
    if "--sweep-values" in argv[:-1]:
        i = argv.index("--sweep-values")
        argv[i : i + 2] = [f"--sweep-values={argv[i + 1]}"]
    args = build_parser().parse_args(argv)
    # without --out or $TCSHIFT_OUT the directory is named by the config, so an
    # unreadable config has none to record its error in
    out_dir = resolve_out_dir(args.out, None)
    try:
        cfg = read_config(args.config)
        out_dir = resolve_out_dir(args.out, cfg)
        # only sweep reads --threads, but every verb takes it, so every verb refuses < 1
        if args.threads < 1:
            raise ConfigError(f"threads must be at least 1, not {args.threads}")
        if args.verb == "sweep":
            values = [v for v in args.sweep_values.split(",") if v.strip()]
            try:
                values = [float(v) for v in values]
            except ValueError as exc:
                raise ConfigError(f"bad sweep value: {exc}") from exc
            rows = sweep(cfg, args.sweep_axis, values, threads=args.threads)
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / "sweep.csv"
            _write_csv(path, SWEEP_COLUMNS, [[r[c] for c in SWEEP_COLUMNS] for r in rows])
            print(f"wrote {path}")
            errors = [r for r in rows if r["error"]]
            for r in errors:
                print(f"value {r['value']}: {r['error']}", file=sys.stderr)
            return 0 if not errors else 1

        model, numerics = model_from_dict(cfg)
        result, diagnostics = Pipeline(model, numerics, cfg).bundle(args.verb)
        emit(result, diagnostics, out_dir, args.format)
        _print_summary(result)
        print(f"results in {out_dir}")
        # a failed validation reaches here only from validate: tc raises on it
        if not all(i["passed"] for i in result["validation"]):
            return 3
        # checks is empty below verify
        return 0 if all(c["passed"] for c in result["checks"]) else 1
    except ToolError as exc:
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            record = {
                "error": type(exc).__name__,
                "message": str(exc),
                "exit_code": exc.exit_code,
            }
            (out_dir / "error.json").write_text(json.dumps(record, indent=2) + "\n")
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
