"""The benchmark's traced run reads a span of every function it wraps.

`quditbench/tracing.py` lists those functions in `TRACED`, and its per-layer
metrics fail on any that a run never calls, so a refactor that routes around
one of them breaks the traced benchmark. The module is loaded by file path
because `quditbench` is not a package.
"""

import importlib.util
import sys
from pathlib import Path

from quditproc import harness

TRACING = Path(__file__).resolve().parents[1] / "quditbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("quditbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look up the defining module while building the classes
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_function_is_called():
    tracing = _load_tracing()
    doc = {
        "schema": 1,
        "seed": 3,
        "scenarios": [
            {"id": "haar", "dim": 3, "operator": {"name": "random_unitary"}, "measurement": "full"},
            {"id": "reflection", "dim": 3, "operator": {"name": "reflection"}, "measurement": "support"},
        ],
    }
    tracer = tracing.Tracer()
    with tracer.installed():
        _, rows = harness.run_config(doc)
    assert all(row.passed for row in rows)
    called = {span.name for span in tracer.spans}
    missing = [f"{m}.{f}" for m, f in tracing.TRACED if f"{m}.{f}" not in called]
    assert not missing
