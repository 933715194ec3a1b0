"""Operator catalog, scenario configs, experiment sweeps and reports for the CLI.

Config files are JSON with a top-level "schema": 1. Complex numbers are
[re, im] pairs; matrices are nested row-major lists of such pairs. Scenario
randomness is derived from one 64-bit seed, so a config plus a seed fully
determines the report. A key that no level of the config defines is an
error, not ignored.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from importlib import resources

import numpy as np

from .postselect import MEASUREMENT_KINDS, predicted_probability, run_experiment
from .processor import GateArray, QubitCnotNetwork, QuditShiftNetwork
from .programs import (
    example1_operator,
    example2_operator,
    exchange_operator,
    family_operator,
    hs_expand,
    reflection_operator,
    u_mn,
)
from .registers import DenseOperator, QuditRegisterState, _locked, _Value
from .sampling import random_operator, random_state, random_unitary

SCHEMA_VERSION = 1
DEFAULT_TOLERANCE = 1e-10
PROCESSORS = {"qudit-shift": QuditShiftNetwork, "qubit-cnot": lambda dim: QubitCnotNetwork()}
ROOT_KEYS = frozenset({"schema", "name", "seed", "scenarios"})
SCENARIO_KEYS = frozenset(
    {"id", "dim", "processor", "operator", "data_state", "measurement", "trials",
     "expected_probability", "tolerance", "seed"}
)

# Largest qudit dimension a config or `describe` may ask for. How a network
# runs is the `processor` docstring's; what that costs at this bound is here.
# From N = 9 a run that is only post-selected never makes its N^3 joint state:
# its overlap is K ψ, one N x N matvec by the program's success map K, which
# the program keeps (16 N^2 bytes) for the last network and bra it served.
# Building K takes O(N nnz) time for a bra of nnz nonzero amplitudes and
# walks them N at a time, so its transient memory is O(N^2) for any bra: the
# first post-selection of `example2` under the support measurement peaks at
# 72 N^2 bytes, 4.5 MiB at N = 256, index included. A bra of at most 2 N
# nonzeros, as the full and every catalog support measurement but a dense
# partial one, keeps its index into K: at most 16 N^2 bytes. A whole read of
# a deferred output makes, besides its 16 N^3 bytes, ψ tiled N times
# (16 N^2 bytes) and the index and amplitudes of N labels at a time, and
# keeps none of them. A live operator keeps,
# besides its own 16 N^2 bytes, its program (16 N^2) and the program's K
# (16 N^2): 48 N^2 bytes, 3 MiB at N = 256, under the full measurement. Its
# expansion holds the operator's own entries and keeps its coefficient table
# (16 N^2) only once something reads it: the support measurement, the support
# prediction or `describe`. Under the support measurement it is read, and
# when the support is partial the operator also keeps that support's
# measurement (16 N^2) and the measurement's index (at most 16 N^2): at most
# 96 N^2 bytes, 6 MiB at N = 256.
# `run_scenario` holds one operator and one data state's run at a time, so a
# row's memory does not grow with its trial count. `parse_config` builds one
# network per (processor, dim), and only those below N = 9 keep a compiled
# index (8 N^3 bytes): at most 10 KB over N = 2..8, whatever the config's
# length. Three per-dimension caches keep up to 16 entries each for the life
# of the process: the full measurement (16 N^2 bytes, and 8 N^2 for its index
# once the qudit network has post-selected against it), the (i - j) mod N
# gather index (8 N^2 bytes) and the program's gather index (8 N^2 bytes), at
# most 40 MiB.
# Rows, time and peak RSS: with the full measurement, N = 128, one Haar
# trial, 0.017-0.018 s at 39-40 MB; N = 255, one Haar trial, 0.037-0.046 s at
# 46 MB; N = 256, one Haar trial, 0.036-0.054 s at 47 MB, a row of four,
# 0.095-0.112 s at 50 MB, and a draw-free row of 256 `example2` trials, whose
# one program builds its K once, 0.062-0.064 s at 45 MB; the same row under
# the support measurement, 0.068-0.089 s at 46 MB. Timed through `run_config`
# in a fresh process on a 2-core Xeon with Python 3.11.7, numpy 2.4.6 and one
# BLAS thread.
MAX_DIM = 256
# Largest trial count a config or `--trials` may ask for. `run_scenario` keeps
# the simulated probabilities, predictions and fidelities in three float64
# arrays of one slot per trial and takes the deviations as a fourth at the end:
# 40 B per trial under tracemalloc at dim 2 (Python 3.11.7, numpy 2.4.6), so
# 10^6 trials take 40 MB. What bounds it is time: a dim 2 trial takes
# 0.07-0.10 ms in a draw-free row and 0.19-0.34 ms in a drawing one (rows of
# 20,000 trials through `run_config`, 2-core Xeon, one BLAS thread), so a row
# at the bound runs for one to six minutes.
MAX_TRIALS = 10**6
# Largest seed a config or `--seed` may give: seeds are unsigned 64-bit.
MAX_SEED = 2**64 - 1
# Range of Tr(A†A) an inline matrix may have; the outcome does not depend on
# the scale. Inside it, at every N <= MAX_DIM, N Tr(A†A) and the predicted
# probabilities and `describe`'s scales stay finite and nonzero, and Tr(A†A)
# is summed from normal squares, so the program, A's entries over
# sqrt(Tr(A†A)), meets NORM_TOL. So is the expansion's
# sum |q|^2 = Tr(A†A) / N, which the support and `describe` read.
GRAM_RANGE = (1e-200, 1e200)


class ConfigError(ValueError):
    """Unreadable, unparsable, or inconsistent scenario configuration."""


# --- typed JSON fields --------------------------------------------------------
# Each kind takes (what, JSON value) and returns the typed value or raises
# ConfigError; nothing is coerced.


def _int(what: str, value, low=-np.inf, high=np.inf) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    if not low <= value <= high:
        raise ConfigError(f"{what} must be in [{low}, {high}], got {value}")
    return value


def _real(what: str, value) -> float:
    # abs() <= max rejects NaN, infinities and integers beyond the float range.
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and abs(value) <= np.finfo(float).max):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _str(what: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{what} must be a string, got {value!r}")
    return value


def _known_keys(what: str, raw: dict, allowed: frozenset) -> None:
    # A misspelled key would otherwise fall back to its default unnoticed.
    unknown = sorted(raw.keys() - allowed)
    if unknown:
        raise ConfigError(f"unknown {what} {unknown[0]!r}")


def complex_from_pair(pair) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ConfigError(f"complex numbers are [re, im] pairs, got {pair!r}")
    return complex(_real("real part", pair[0]), _real("imaginary part", pair[1]))


def matrix_from_json(rows) -> np.ndarray:
    square = isinstance(rows, list) and all(isinstance(r, list) and len(r) == len(rows) for r in rows)
    if not (square and rows):
        raise ConfigError("matrix must be a non-empty square list of rows")
    return np.array([[complex_from_pair(cell) for cell in row] for row in rows])


def matrix_to_json(mat: np.ndarray) -> list:
    return [[[float(cell.real), float(cell.imag)] for cell in row] for row in mat]


def _matrix(what: str, rows) -> np.ndarray:
    """A square matrix whose Tr(A†A) lies in GRAM_RANGE."""
    mat = matrix_from_json(rows)
    with np.errstate(over="ignore", under="ignore"):
        gram = float(np.sum(np.abs(mat) ** 2))
    low, high = GRAM_RANGE
    if not low <= gram <= high:
        raise ConfigError(
            f"{what}: Tr(A†A) is {gram!r}; it must lie in [{low:g}, {high:g}]. The outcome "
            "does not depend on the matrix's scale, so rescale the matrix into that range"
        )
    return _locked(mat)


def _state(what: str, value):
    """"random" (drawn per trial) or [re, im] amplitudes, normalized here."""
    if value == "random":
        return value
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{what} must be \"random\" or a list of [re, im] pairs")
    amps = np.array([complex_from_pair(p) for p in value])
    with np.errstate(over="ignore", under="ignore"):
        norm = float(np.linalg.norm(amps))
        if norm in (0.0, np.inf) and amps.any():
            # The entries are finite, so the sum of squares under- or
            # overflowed: rescale the real and imaginary parts by the largest
            # first (dividing the complex array would multiply by 1 / scale).
            parts = np.abs(amps.view(float))
            scale = float(parts.max())
            norm = scale * float(np.linalg.norm(parts / scale))
    if not 1e-12 < norm < np.inf:
        raise ConfigError(f"{what} has norm {norm!r}; it must be finite and above 1e-12")
    return _locked(amps / norm)


# --- operator catalog -----------------------------------------------------------


def _random_phi(params: dict) -> bool:
    return isinstance(params["phi"], str)  # "random"


def _phi(params: dict, dim: int, rng) -> QuditRegisterState:
    if _random_phi(params):
        return random_state(dim, 1, rng)
    return QuditRegisterState(dim, 1, params["phi"])


@dataclass(frozen=True)
class CatalogEntry:
    """One named operator: typed parameters, dimension rule, builder.

    `params` maps required parameters to kinds, `optional` maps the rest to
    (kind, default); `dim` is the one dim the typed parameters allow (None: any).
    `build(typed params, dim, rng)` asks for the rng only when it draws, which
    `draws(typed params)` tells beforehand; an entry that does not draw builds
    the same operator every time.
    """

    build: Callable[[dict, int, np.random.Generator | None], DenseOperator]
    params: dict = field(default_factory=dict)
    optional: dict = field(default_factory=dict)
    dim: Callable[[dict], int] | None = None
    even_dim: bool = False
    draws: Callable[[dict], bool] = lambda p: False


CATALOG = {
    "identity": CatalogEntry(lambda p, dim, rng: DenseOperator(dim, np.eye(dim), label="identity")),
    "u_mn": CatalogEntry(
        lambda p, dim, rng: u_mn(dim, (p["m"], p["n"])), params={"m": _int, "n": _int}
    ),
    "reflection": CatalogEntry(
        lambda p, dim, rng: reflection_operator(_phi(p, dim, rng)),
        optional={"phi": (_state, "random")},
        draws=_random_phi,
    ),
    "exchange": CatalogEntry(
        lambda p, dim, rng: exchange_operator(_phi(p, dim, rng)),
        optional={"phi": (_state, "random")},
        dim=lambda p: 2,
        draws=_random_phi,
    ),
    "example1": CatalogEntry(
        lambda p, dim, rng: example1_operator(p["phi"]), params={"phi": _real}, dim=lambda p: 4
    ),
    "family": CatalogEntry(
        lambda p, dim, rng: family_operator(p["l"], p["phi"]),
        # l is bounded before the dim rule computes 2 ** l.
        params={"l": lambda what, l: _int(what, l, 1, MAX_DIM.bit_length() - 1), "phi": _real},
        dim=lambda p: 2 ** p["l"],
    ),
    "example2": CatalogEntry(
        lambda p, dim, rng: example2_operator(p["theta"], dim),
        params={"theta": _real},
        even_dim=True,
    ),
    "random_unitary": CatalogEntry(
        lambda p, dim, rng: random_unitary(dim, rng), draws=lambda p: True
    ),
    "random_operator": CatalogEntry(
        lambda p, dim, rng: random_operator(dim, rng), draws=lambda p: True
    ),
    "inline": CatalogEntry(
        lambda p, dim, rng: DenseOperator(dim, p["matrix"], label=p["label"]),
        params={"matrix": _matrix},
        optional={"label": (_str, "inline")},
        dim=lambda p: len(p["matrix"]),
    ),
}


def check_operator(name, params: dict, dim: int | None = None) -> tuple[dict, int]:
    """Type an operator spec against its catalog entry; returns (typed params, dim).

    `dim` None takes the entry's dimension rule, which a given `dim` must meet.
    """
    entry = CATALOG.get(name) if isinstance(name, str) else None
    if entry is None:
        raise ConfigError(f"unknown operator name: {name!r}")
    unknown = sorted(params.keys() - entry.params.keys() - entry.optional.keys())
    if unknown:
        raise ConfigError(f"operator {name!r} takes no parameter {unknown[0]!r}")
    typed = {}
    for key, kind in entry.params.items():
        if key not in params:
            raise ConfigError(f"operator {name!r} needs parameter {key!r}")
        typed[key] = kind(f"{name} parameter {key!r}", params[key])
    for key, (kind, default) in entry.optional.items():
        typed[key] = kind(f"{name} parameter {key!r}", params[key]) if key in params else default
    implied = entry.dim(typed) if entry.dim else None
    if dim is None:
        dim = implied
    elif implied is not None and implied != dim:
        raise ConfigError(f"operator {name!r} needs dim {implied}, got {dim}")
    if dim is None:
        raise ConfigError(f"operator {name!r} needs an explicit dim")
    dim = _int("dim", dim, 2, MAX_DIM)
    if entry.even_dim and dim % 2:
        raise ConfigError(f"operator {name!r} needs an even dim, got {dim}")
    for key, value in typed.items():
        if isinstance(value, np.ndarray) and len(value) != dim:
            raise ConfigError(f"{name} parameter {key!r} has size {len(value)}, dim is {dim}")
    return typed, dim


def build_operator(name: str, params: dict, dim: int, rng: np.random.Generator | None) -> DenseOperator:
    """Build a checked catalog entry from its typed parameters (one per trial).

    Entries that draw need an rng; `describe_operator` rejects them first.
    """
    return CATALOG[name].build(params, dim, rng)


@dataclass(frozen=True, eq=False)
class Scenario(_Value):
    id: str
    dim: int
    processor: GateArray
    operator_name: str
    operator_params: dict  # typed, from check_operator
    data_state: object  # "random" or QuditRegisterState
    measurement: str
    trials: int
    expected_probability: float | None
    tolerance: float
    seed: int | None


@dataclass(frozen=True)
class ReportRow:
    id: str
    dim: int
    operator: str
    measurement: str
    trials: int
    predicted_probability: float
    simulated_probability_mean: float
    max_probability_deviation: float
    min_oracle_fidelity: float | None
    expected_probability: float | None
    tolerance: float
    passed: bool
    wall_time_ms: float


def _parse_scenario(raw: dict, sid: str, trials_override: int | None, networks: dict) -> Scenario:
    _known_keys("scenario key", raw, SCENARIO_KEYS)
    dim = _int("dim", raw.get("dim"), 2, MAX_DIM)
    processor = raw.get("processor", "qudit-shift")
    if not isinstance(processor, str) or processor not in PROCESSORS:
        raise ConfigError(f"unknown processor {processor!r}")
    if (processor, dim) not in networks:
        networks[processor, dim] = PROCESSORS[processor](dim)
    gate_array = networks[processor, dim]
    if gate_array.dim != dim:
        raise ConfigError(f"{processor} processor needs dim {gate_array.dim}, got {dim}")
    op_spec = raw.get("operator")
    if not isinstance(op_spec, dict):
        raise ConfigError("'operator' must be an object")
    name = op_spec.get("name", "inline")
    params, _ = check_operator(name, {k: v for k, v in op_spec.items() if k != "name"}, dim)
    data_state = _state("data_state", raw.get("data_state", "random"))
    if not isinstance(data_state, str):
        if data_state.size != dim:
            raise ConfigError(f"data_state has length {data_state.size}, expected {dim}")
        data_state = QuditRegisterState(dim, 1, data_state)
    measurement = raw.get("measurement", "full")
    if measurement not in MEASUREMENT_KINDS:
        raise ConfigError(f"unknown measurement {measurement!r}")
    trials = raw.get("trials", 1) if trials_override is None else trials_override
    trials = _int("trials", trials, 1, MAX_TRIALS)
    expected = raw.get("expected_probability")
    seed = raw.get("seed")
    tolerance = _real("tolerance", raw.get("tolerance", DEFAULT_TOLERANCE))
    if tolerance < 0:
        raise ConfigError(f"tolerance must be >= 0, got {tolerance}")
    return Scenario(
        id=sid,
        dim=dim,
        processor=gate_array,
        operator_name=name,
        operator_params=params,
        data_state=data_state,
        measurement=measurement,
        trials=trials,
        expected_probability=None if expected is None else _real("expected_probability", expected),
        tolerance=tolerance,
        seed=None if seed is None else _int("seed", seed, 0, MAX_SEED),
    )


def parse_config(doc, seed_override: int | None = None, trials_override: int | None = None):
    """Validate a parsed config document; returns (seed, scenarios).

    All scenarios are validated before anything runs, so a bad config never
    produces partial output. Scenarios with the same processor and dim share
    one network value, so each network is built once and compiled at most once.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    schema = doc.get("schema")
    if type(schema) is not int or schema != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema: {schema!r} (expected {SCHEMA_VERSION})")
    _known_keys("config key", doc, ROOT_KEYS)
    _str("name", doc.get("name", ""))
    seed = _int("seed", doc.get("seed", 0) if seed_override is None else seed_override, 0, MAX_SEED)
    raw_scenarios = doc.get("scenarios", [])
    if not isinstance(raw_scenarios, list):
        raise ConfigError("'scenarios' must be a list")
    scenarios = []
    seen_ids = set()
    networks = {}
    for i, raw in enumerate(raw_scenarios):
        if not isinstance(raw, dict):
            raise ConfigError(f"scenario #{i} must be an object")
        sid = _str(f"scenario #{i} id", raw.get("id", f"scenario-{i}"))
        if sid in seen_ids:
            raise ConfigError(f"duplicate scenario id {sid!r}")
        seen_ids.add(sid)
        try:
            scenarios.append(_parse_scenario(raw, sid, trials_override, networks))
        except ConfigError as exc:
            raise ConfigError(f"scenario {sid!r}: {exc}") from None
    return seed, scenarios


def _unique_keys(pairs) -> dict:
    # A JSON object with a key given twice would keep only the last value.
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigError(f"key {key!r} is given twice")
        doc[key] = value
    return doc


def _load_json(text: str, what: str):
    """The JSON value in `text`; broken JSON or a repeated key is a ConfigError naming `what`."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except ConfigError as exc:
        raise ConfigError(f"{what}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc


def load_config_file(path):
    """Read a JSON document, which `parse_config` checks; a read or JSON failure is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return _load_json(text, f"config {path!r}")


def load_bundled_config(name: str) -> dict:
    filename = name.replace("-", "_") + ".json"
    try:
        text = resources.files("quditproc").joinpath("configs").joinpath(filename).read_text("utf-8")
    except (FileNotFoundError, ModuleNotFoundError) as exc:
        raise ConfigError(f"no bundled config named {name!r}") from exc
    return _load_json(text, f"bundled config {name!r}")


def run_scenario(scn: Scenario, global_seed: int, index: int) -> ReportRow:
    """Run one scenario's trials and aggregate into a report row.

    An operator that draws is built anew for each trial, before that trial's
    data state. One that does not is built once, before the first state, and
    its program serves every trial through `run_experiment`. Building draws
    nothing then, so the rng order is that of building per trial.
    """
    rng = np.random.default_rng(scn.seed if scn.seed is not None else [global_seed, index])
    started = time.perf_counter()
    draws = CATALOG[scn.operator_name].draws(scn.operator_params)
    sims, preds, fids = np.empty(scn.trials), np.empty(scn.trials), np.empty(scn.trials)
    n_fids = 0
    for i in range(scn.trials):
        if draws or i == 0:
            op = build_operator(scn.operator_name, scn.operator_params, scn.dim, rng)
        psi = random_state(scn.dim, 1, rng) if scn.data_state == "random" else scn.data_state
        outcome = run_experiment(scn.processor, op, psi, scn.measurement)
        sims[i] = outcome.probability
        preds[i] = predicted_probability(op, psi, scn.measurement)
        if outcome.data_state is not None:
            fids[n_fids] = outcome.oracle_fidelity
            n_fids += 1
    wall_ms = (time.perf_counter() - started) * 1e3
    devs = np.abs(sims - preds)
    sim_mean = float(np.mean(sims))
    pred_mean = float(np.mean(preds))
    min_fid = float(np.min(fids[:n_fids])) if n_fids else None
    passed = devs.max() <= scn.tolerance
    if scn.expected_probability is not None:
        passed = passed and abs(sim_mean - scn.expected_probability) <= scn.tolerance
    if min_fid is not None:
        passed = passed and min_fid >= 1.0 - scn.tolerance
    return ReportRow(
        id=scn.id,
        dim=scn.dim,
        operator=scn.operator_name,
        measurement=scn.measurement,
        trials=scn.trials,
        predicted_probability=pred_mean,
        simulated_probability_mean=sim_mean,
        max_probability_deviation=float(devs.max()),
        min_oracle_fidelity=min_fid,
        expected_probability=scn.expected_probability,
        tolerance=scn.tolerance,
        passed=bool(passed),
        wall_time_ms=wall_ms,
    )


def run_config(doc, seed_override=None, trials_override=None):
    """Run all scenarios in config order; returns (seed, rows)."""
    seed, scenarios = parse_config(doc, seed_override, trials_override)
    return seed, [run_scenario(scn, seed, i) for i, scn in enumerate(scenarios)]


# Wall time goes only to the CLI's per-row stderr line; the serialized report must be
# byte-identical across runs with the same config and seed.
_REPORT_COLUMNS = tuple(f.name for f in fields(ReportRow) if f.name != "wall_time_ms")


def _row_dict(row: ReportRow) -> dict:
    return {col: getattr(row, col) for col in _REPORT_COLUMNS}


def report_json(rows, seed: int, config_name: str) -> str:
    doc = {
        "schema": SCHEMA_VERSION,
        "config": config_name,
        "seed": seed,
        "all_passed": all(r.passed for r in rows),
        "rows": [_row_dict(r) for r in rows],
    }
    return json.dumps(doc, indent=2) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".15g")
    return str(value)


def report_csv(rows) -> str:
    lines = [",".join(_REPORT_COLUMNS)]
    for row in rows:
        lines.append(",".join(_csv_cell(value) for value in _row_dict(row).values()))
    return "\n".join(lines) + "\n"


def describe_operator(name: str, dim: int | None, params: dict) -> dict:
    """Matrix, coefficient table, support size, and probability predictions.

    Checked exactly as `run` checks a scenario; dim None takes the entry's rule.
    """
    typed, dim = check_operator(name, params, dim)
    if CATALOG[name].draws(typed):
        raise ConfigError("this operator draws random numbers; give explicit parameters")
    op = build_operator(name, typed, dim, rng=None)
    expansion = hs_expand(op)
    support = expansion.support()
    unitary = op.is_unitary(1e-10)
    gram = op.gram_trace()
    coeff_table = [
        {
            "m": m,
            "n": n,
            "magnitude": float(abs(expansion.coeffs[m, n])),
            "phase": float(np.angle(expansion.coeffs[m, n])),
        }
        for m in range(dim)
        for n in range(dim)
    ]
    return {
        "operator": name,
        "label": op.label,
        "dim": dim,
        "params": {k: v for k, v in params.items() if k != "matrix"},
        "matrix": matrix_to_json(op.entries),
        "unitary": bool(unitary),
        "gram_trace": gram,
        "support_size": len(support),
        "support": [[int(m), int(n)] for m, n in support],
        "coefficients": coeff_table,
        "predicted_probability_full": (1.0 / dim**2) if unitary else None,
        "predicted_probability_support": (1.0 / len(support)) if unitary else None,
        "probability_scale_full": 1.0 / (dim * gram),
        "probability_scale_support": dim / (len(support) * gram),
    }
