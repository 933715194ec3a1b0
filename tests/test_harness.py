"""The catalog's `draws` rule, `run_scenario`'s one operator per draw-free
row, checked against the per-trial reference in conftest, and one network per
processor and dim in a parsed config."""

import copy
import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest

from quditproc import cli, harness, processor, programs, registers
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


def test_two_parses_of_one_config_are_equal_scenarios():
    # An inline matrix and an explicit phi are arrays in `operator_params`,
    # where the generated dataclass `==` raised comparing them.
    doc = {
        "schema": 1,
        "scenarios": [
            {"id": "flip", "dim": 2, "operator": {"matrix": FLIP}, "data_state": [[1, 0], [0, 0]]},
            {"id": "axis", "dim": 2, "operator": {"name": "reflection", "phi": [[0.6, 0], [0.8, 0]]}},
        ],
    }
    first, second = parse_config(doc)[1], parse_config(doc)[1]
    assert first == second and first[0] is not second[0]
    assert first[0] != first[1]
    assert first[1] != dataclasses.replace(first[1], operator_params={"phi": "random"})
    with pytest.raises(TypeError, match="^unhashable type: 'Scenario'$"):
        hash(first[0])
    copies = [pickle.loads(pickle.dumps(scn)) for scn in first]
    assert copies == first
    arrays = [v for scn in first + copies for v in scn.operator_params.values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 4
    for array in arrays:
        with pytest.raises(ValueError):
            array.setflags(write=True)


def scenario(operator, **fields):
    raw = {"id": "s", "dim": 2, "operator": operator, "trials": 9, **fields}
    return parse_config({"schema": 1, "seed": 5, "scenarios": [raw]})[1][0]


@pytest.mark.parametrize(
    "scn",
    [
        pytest.param(
            scenario({"name": "family", "l": 1, "phi": 0.43}, measurement="support"), id="family-support"
        ),
        pytest.param(
            scenario({"name": "reflection", "phi": [[1, 0], [0, 1]]}, processor="qubit-cnot"),
            id="reflection-explicit-cnot",
        ),
        pytest.param(
            scenario(
                {"name": "inline", "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},
                data_state=[[0, 0], [1, 0]],
                trials=3,
            ),
            id="annihilated-fixed-state",
        ),
        pytest.param(scenario({"name": "reflection", "phi": "random"}, trials=3), id="reflection-random"),
        pytest.param(scenario({"name": "random_unitary"}, trials=3), id="random-unitary"),
    ],
)
def test_batched_row_equals_the_per_trial_reference(scn):
    # The reference builds a fresh operator per trial; a draw-free row builds one.
    row = run_scenario(scn, 5, 0)
    assert dataclasses.replace(row, wall_time_ms=0.0) == reference_row(scn, 5, 0)


def spy(record, original):
    """`original`, recording the first argument of every call in `record`."""

    def counting(first, *args):
        record.append(first)
        return original(first, *args)

    return counting


@pytest.fixture
def derived_runs(monkeypatch):
    """Operators built by run_scenario, and the operator values on which the
    expansion FFT and the Tr(A†A) sum ran, one entry per run."""
    built, runs = [], {"expansion": [], "gram_trace": []}
    original_build = harness.build_operator

    def building(*args):
        built.append(original_build(*args))
        return built[-1]

    monkeypatch.setattr(harness, "build_operator", building)
    monkeypatch.setattr(programs, "_expand", spy(runs["expansion"], programs._expand))
    monkeypatch.setattr(registers, "_gram_trace", spy(runs["gram_trace"], registers._gram_trace))
    return built, runs


@pytest.mark.parametrize(
    "scn,operators",
    [
        pytest.param(
            scenario({"name": "family", "l": 1, "phi": 0.43}, measurement="support"), 1, id="draw-free-support"
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


def test_a_draw_free_row_makes_its_program_and_measurement_once(monkeypatch):
    # family(l=1) has a two-label support, so its support measurement is a
    # Bell-basis FFT of its own, as its program is.
    scn = scenario({"name": "family", "l": 1, "phi": 0.43}, measurement="support")
    calls = []
    monkeypatch.setattr(programs, "bell_basis_matrix", spy(calls, programs.bell_basis_matrix))
    assert run_scenario(scn, 5, 0).passed
    assert calls == [2, 2]


def test_a_draw_free_row_peaks_the_same_at_any_trial_count():
    # A draw-free row keeps one operator, with its program and K, and runs
    # one data state at a time; only its four float64 arrays grow with trials.
    def row(trials):
        raw = {"id": "s", "dim": 32, "operator": {"name": "example2", "theta": 0.3}, "trials": trials}
        return parse_config({"schema": 1, "seed": 5, "scenarios": [raw]})[1][0]

    def peak(scn):
        tracemalloc.start()
        try:
            assert run_scenario(scn, 5, 0).passed
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    few, many = row(32), row(1024)
    run_scenario(few, 5, 0)  # fills the per-dimension caches
    assert peak(many) - peak(few) <= 0.25 * 2**20


def test_each_network_is_built_and_compiled_once(monkeypatch, tmp_path):
    # A network is fixed by its processor and dim; only the program changes.
    doc = {
        "schema": 1,
        "scenarios": [
            {"id": "a", "dim": 3, "operator": {"name": "random_unitary"}},
            {"id": "b", "dim": 3, "operator": {"name": "identity"}, "measurement": "support"},
            {"id": "c", "dim": 2, "operator": {"name": "random_unitary"}},
            {"id": "d", "dim": 2, "processor": "qubit-cnot", "operator": {"name": "random_unitary"}},
            {"id": "e", "dim": 2, "processor": "qubit-cnot", "operator": {"name": "identity"}},
            {"id": "f", "dim": 28, "operator": {"name": "random_unitary"}},
        ],
    }
    seed, scenarios = parse_config(doc)
    a, b, c, d, e, f = (scn.processor for scn in scenarios)
    assert a is b and d is e
    assert len({id(network) for network in (a, c, d, f)}) == 4
    assert all(run_scenario(scn, seed, i).passed for i, scn in enumerate(scenarios))
    assert all("_source_index" in vars(network) for network in (a, c, d))
    # from N = 9 on a run is deferred, which compiles nothing
    assert "_source_index" not in vars(f)

    # the bundled config holds 7 distinct networks, each compiled by its 4 gates
    calls, parses = [], []
    monkeypatch.setattr(processor, "conditional_shift", spy(calls, processor.conditional_shift))
    monkeypatch.setattr(cli, "parse_config", spy(parses, cli.parse_config))
    out = tmp_path / "report.json"
    assert cli.main(["run", "--config", "paper-claims", "--out", str(out)]) == 0
    assert len(parses) == 1
    assert len(calls) == 28
