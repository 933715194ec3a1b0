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

from quditproc import harness, measurement_full

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
            # A partial support builds its measurement through the Bell-basis
            # FFT whatever the full measurement's cache holds, as the CLI
            # `paper-claims` run does; no program reads that FFT.
            {"id": "example2", "dim": 4, "operator": {"name": "example2", "theta": 0.3}, "measurement": "support"},
        ],
    }
    tracer = tracing.Tracer()
    with tracer.installed():
        _, rows = harness.run_config(doc)
    assert all(row.passed for row in rows)
    called = {span.name for span in tracer.spans}
    missing = [f"{m}.{f}" for m, f in tracing.TRACED if f"{m}.{f}" not in called]
    assert not missing


def test_a_traced_haar_row_records_one_expansion_and_one_program_per_trial():
    # `programs.cost_order` takes the median of the program spans at each
    # rung of the Haar ladder, and `SpanStats.ms_per_call` refuses a traced
    # name that no scope called: both stay on the run path, cheap or not.
    tracing = _load_tracing()
    trials = 3
    doc = {
        "schema": 1,
        "seed": 3,
        "scenarios": [{"id": "haar", "dim": 16, "operator": {"name": "random_unitary"}, "measurement": "full",
                       "trials": trials}],
    }
    # the full measurement is built once per N and shared, before any trial
    measurement_full(16)
    tracer = tracing.Tracer()
    with tracer.installed():
        _, rows = harness.run_config(doc)
    assert rows[0].passed
    names = [span.name for span in tracer.spans]
    assert names.count("programs.hs_expand") == trials
    assert names.count("programs.program_from_expansion") == trials
    assert names.count("gates.bell_basis_matrix") == 0
    assert {span.dim for span in tracer.spans if span.name.startswith("programs.")} == {16}


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
