"""The benchmark in `quditbench/` runs against the package's public API.

`quditbench/tracing.py` lists the functions it wraps in `TRACED`, and its
per-layer metrics fail on any that a run never calls, so a refactor that
routes around one of them breaks the traced benchmark. `quditbench/workload.py`
calls the package directly, so an API change can break a workload's op. The
modules are loaded by file path because `quditbench` is not a package.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from quditproc import harness

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "quditbench"
WORKLOAD_NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look up the defining module while building the classes
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _load_tracing():
    return _load("quditbench_tracing", BENCH / "tracing.py")


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


@pytest.fixture
def workload_module(monkeypatch):
    """quditbench/workload.py, imported as run.py starts it: from the repo root."""
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(str(BENCH))
    before = set(sys.modules)
    yield _load("quditbench_workload", BENCH / "workload.py")
    # workload.py imports its siblings by their bare names
    for name in ("refclock", "tracing"):
        if name not in before:
            sys.modules.pop(name, None)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_benchmark_workload_ops_pass(workload_module, name):
    workload = workload_module.WORKLOADS[name](1)
    workload.setup()
    workload.warm_up()
    for i in (0, 1):
        result = workload.op(i)
        assert result.ok, (name, i, result)
