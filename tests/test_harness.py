"""The catalog's `draws` rule and the batching of draw-free scenarios in
`run_scenario`, checked against the per-trial reference in conftest."""

import copy
import dataclasses
import weakref

import numpy as np
import pytest

from quditproc import harness, programs, registers
from quditproc.harness import CATALOG, build_operator, check_operator, parse_config, run_scenario

from conftest import reference_row

FLIP = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]

# Buildable specs for every catalog entry; reflection and exchange with an
# explicit axis and with a random one.
BUILT_SPECS = {
    "identity": [(3, {})],
    "u_mn": [(3, {"m": 1, "n": 2})],
    "reflection": [(3, {}), (3, {"phi": "random"}), (2, {"phi": [[1, 0], [0, 1]]})],
    "exchange": [(2, {}), (2, {"phi": "random"}), (2, {"phi": [[0.6, 0], [0, 0.8]]})],
    "example1": [(4, {"phi": 0.7})],
    "family": [(4, {"l": 2, "phi": 0.43})],
    "example2": [(4, {"theta": 0.3})],
    "random_unitary": [(3, {})],
    "random_operator": [(3, {})],
    "inline": [(2, {"matrix": FLIP})],
}


def test_built_specs_cover_the_catalog():
    assert BUILT_SPECS.keys() == CATALOG.keys()


@pytest.mark.parametrize(
    "name,dim,params",
    [
        pytest.param(name, dim, params, id=f"{name}-{i}")
        for name, specs in BUILT_SPECS.items()
        for i, (dim, params) in enumerate(specs)
    ],
)
def test_draws_says_whether_build_moves_the_rng(name, dim, params):
    typed, dim = check_operator(name, params, dim)
    rng = np.random.default_rng(11)
    before = copy.deepcopy(rng.bit_generator.state)
    build_operator(name, typed, dim, rng)
    moved = rng.bit_generator.state != before
    assert CATALOG[name].draws(typed) == moved


def scenario(operator, **fields):
    raw = {"id": "s", "dim": 2, "operator": operator, "trials": 9, **fields}
    return parse_config({"schema": 1, "seed": 5, "scenarios": [raw]})[1][0]


@pytest.fixture
def batch_sizes(monkeypatch):
    """Number of data states in each run_experiment call that run_scenario makes."""
    sizes = []
    original = harness.run_experiment

    def recording(proc, op, states, meas_kind="full"):
        sizes.append(len(states))
        return original(proc, op, states, meas_kind)

    monkeypatch.setattr(harness, "run_experiment", recording)
    return sizes


@pytest.mark.parametrize(
    "scn,expected_sizes",
    [
        pytest.param(
            scenario({"name": "family", "l": 1, "phi": 0.43}, measurement="support"),
            [4, 4, 1],
            id="family-support",
        ),
        pytest.param(
            scenario({"name": "reflection", "phi": [[1, 0], [0, 1]]}, processor="qubit-cnot"),
            [4, 4, 1],
            id="reflection-explicit-cnot",
        ),
        pytest.param(
            scenario(
                {"name": "inline", "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},
                data_state=[[0, 0], [1, 0]],
                trials=3,
            ),
            [3],
            id="annihilated-fixed-state",
        ),
        pytest.param(
            scenario({"name": "reflection", "phi": "random"}, trials=3), [1, 1, 1], id="reflection-random"
        ),
        pytest.param(scenario({"name": "random_unitary"}, trials=3), [1, 1, 1], id="random-unitary"),
    ],
)
def test_batched_row_equals_the_per_trial_reference(scn, expected_sizes, batch_sizes):
    row = run_scenario(scn, 5, 0)
    assert batch_sizes == expected_sizes
    assert dataclasses.replace(row, wall_time_ms=0.0) == reference_row(scn, 5, 0)


@pytest.fixture
def derived_runs(monkeypatch):
    """Operators built by run_scenario, and the operator values on which the
    expansion FFT and the Tr(A†A) sum ran, one entry per run."""
    built, runs = [], {"expansion": [], "gram_trace": []}
    original_build = harness.build_operator

    def building(*args):
        built.append(original_build(*args))
        return built[-1]

    def spy(record, original):
        def counting(op):
            record.append(op)
            return original(op)

        return counting

    monkeypatch.setattr(harness, "build_operator", building)
    monkeypatch.setattr(programs, "_expand", spy(runs["expansion"], programs._expand))
    monkeypatch.setattr(registers, "_gram_trace", spy(runs["gram_trace"], registers._gram_trace))
    return built, runs


@pytest.mark.parametrize(
    "scn,operators",
    [
        pytest.param(
            scenario({"name": "family", "l": 1, "phi": 0.43}, measurement="support"), 3, id="draw-free-support"
        ),
        pytest.param(
            scenario({"name": "random_unitary"}, measurement="support", trials=3), 3, id="drawing-support"
        ),
        pytest.param(scenario({"name": "random_operator"}, trials=3), 3, id="drawing-full"),
    ],
)
def test_expansion_and_gram_trace_run_once_per_operator(scn, operators, derived_runs):
    built, runs = derived_runs
    assert run_scenario(scn, 5, 0).passed
    # `built` holds every operator alive, so no two share an id
    assert len({id(op) for op in built}) == len(built) == operators
    for name, ran_on in runs.items():
        assert [id(op) for op in ran_on] == [id(op) for op in built], name


def test_run_config_frees_each_scenario_before_the_next_row(monkeypatch):
    # Each processor keeps its compiled index (8 N^3 bytes), so a run must not
    # hold the networks of rows already done.
    networks = []

    def spy(scn, global_seed, index):
        assert [ref() for ref in networks] == [None] * len(networks)
        networks.append(weakref.ref(scn.processor))
        return run_scenario(scn, global_seed, index)

    monkeypatch.setattr(harness, "run_scenario", spy)
    doc = {
        "schema": 1,
        "scenarios": [
            {"id": f"row-{dim}", "dim": dim, "operator": {"name": "random_unitary"}} for dim in (3, 5, 4)
        ],
    }
    _, rows = harness.run_config(doc)
    assert [row.id for row in rows] == ["row-3", "row-5", "row-4"]
    assert all(row.passed for row in rows)
    assert [ref() for ref in networks] == [None] * 3
