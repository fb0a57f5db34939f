"""Seeded input streams for the three workloads (standard library only).

The same seed always yields the same stream, so a reference table recorded
for one seed applies to every run with that seed, whatever prefix of the
stream a run gets through in its time.
"""

from __future__ import annotations

import math
import random

VERBS = ("validate", "tc", "gl", "dc", "shift", "verify")
CLI_CONFIGS = ("gaussian.json", "square_well_1d.json")
BASE_CONFIG = "gaussian.json"

SWEEP_AXES = (("mu", 0.5, 2.5), ("v_amplitude", 1.0, 4.0))
SWEEP_POINTS = 8

FIELD_FAMILIES = (("gaussian_well", "radial_3d"), ("square_well_1d", "one_d"), ("constant", "radial_3d"))
FIELD_AMPLITUDE = (-64.0, -0.5)  # log-uniform in |amplitude|


def cli_cycle(seed: int, cycle: int) -> list[tuple[str, str]]:
    """All verbs x shipped configs, in a seed- and cycle-dependent order."""
    calls = [(verb, cfg) for cfg in CLI_CONFIGS for verb in VERBS]
    random.Random(seed * 1_000_003 + cycle).shuffle(calls)
    return calls


def sweep_calls(seed: int):
    """Endless stream of (axis, sorted values); axes alternate, mu first.

    The values are stratified: one uniform draw in each of SWEEP_POINTS equal
    slices of the axis range, so every call spans the whole range and calls
    differ in cost less than with independent draws.
    """
    rng = random.Random(seed * 1_000_003 + 1)
    k = 0
    while True:
        axis, lo, hi = SWEEP_AXES[k % len(SWEEP_AXES)]
        width = (hi - lo) / SWEEP_POINTS
        yield axis, [lo + width * (i + rng.random()) for i in range(SWEEP_POINTS)]
        k += 1


def fields(seed: int, field_range: float):
    """Endless stream of external-field specs for ``with_field``."""
    rng = random.Random(seed * 1_000_003 + 2)
    lo, hi = math.log(-FIELD_AMPLITUDE[1]), math.log(-FIELD_AMPLITUDE[0])
    while True:
        family, dim = FIELD_FAMILIES[rng.randrange(len(FIELD_FAMILIES))]
        amplitude = -math.exp(rng.uniform(lo, hi))
        yield {"family": family, "amplitude": amplitude, "range": field_range, "dimensionality": dim}
