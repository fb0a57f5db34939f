"""The benchmark tracer's hook table names only objects the package has.

``bench/tracer.py`` wraps functions and methods by name and skips a name it
cannot find, so a rename would silently zero that layer's traced metrics.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_resolves(tracer):
    missing = []
    for modname, path, _layer, _name in tracer.SPANS:
        owner = importlib.import_module(modname)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        # the tracer wraps the attribute where it is defined, not an inherited one
        if owner is None or not callable(owner.__dict__.get(attr)):
            missing.append(f"{modname}.{path}")
    assert missing == []


def test_every_eigensolver_resolves(tracer):
    missing = [
        f"{modname}.{attr}"
        for modname, attr, _flops in tracer.EIGENSOLVERS
        if not callable(getattr(importlib.import_module(modname), attr, None))
    ]
    assert missing == []


def test_every_stage_is_traced(tracer):
    # a stage missing from the tracer's list would get no self-time span
    from tcshift.pipeline import STAGES

    assert set(tracer.STAGES) == set(STAGES)
