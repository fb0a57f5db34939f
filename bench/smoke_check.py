"""Smoke check of the benchmark itself.

    python3 bench/smoke_check.py        (from the root of a checkout)

Runs every workload of BENCHMARK.json at a tiny size, timed and traced, and
asserts that the last output line is the result object and that it names
every declared metric with its declared unit and nothing else.  Exits 0 when
all runs pass, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

SECONDS = "1"


def check(spec: dict, workload: str, trace: int) -> list[str]:
    cmd = [*spec["command"], "--workload", workload, "--seed", "0", "--seconds", SECONDS, "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-1000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"{where}: attempted {result['attempted']!r}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = result["metrics"]
    if set(printed) != set(declared):
        problems.append(f"{where}: missing {sorted(set(declared) - set(printed))}, "
                        f"undeclared {sorted(set(printed) - set(declared))}")
    for name, unit in declared.items():
        entry = printed.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit:
            problems.append(f"{where}: {name} unit {entry.get('unit')!r}, declared {unit!r}")
        if not isinstance(entry.get("value"), (int, float)) or not math.isfinite(entry["value"]):
            problems.append(f"{where}: {name} value {entry.get('value')!r}")
    return problems


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check(spec, workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAIL'}")
            problems += found
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
