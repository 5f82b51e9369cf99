"""The benchmark's tracer wraps shadowosc functions by module attribute name.

``bench/tracer.py`` looks each function up on its defining module and
replaces it on the modules its callers read it from.  A renamed or
deleted attribute breaks a traced benchmark run; this test catches it
first.  The tracer is loaded from its file, unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


_spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
_tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_tracer)
WRAPPED = _tracer.WRAPPED  # (metric name, defining module, lookup modules, attribute)


@pytest.mark.parametrize("home, lookups, attr", [w[1:] for w in WRAPPED],
                         ids=[w[0] for w in WRAPPED])
def test_traced_attribute_resolves(home, lookups, attr):
    original = getattr(importlib.import_module(f"shadowosc.{home}"), attr)
    for module in lookups:
        assert getattr(importlib.import_module(f"shadowosc.{module}"), attr) is original
