import copy
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quditproc.harness as harness_module
from quditproc import (
    DenseOperator,
    hs_expand,
    predicted_probability,
    program_from_expansion,
    random_state,
    random_unitary,
)
from quditproc.cli import main
from quditproc.harness import (
    CATALOG,
    GRAM_RANGE,
    MAX_DIM,
    MAX_SEED,
    MAX_TRIALS,
    ConfigError,
    _state,
    build_operator,
    check_operator,
    describe_operator,
    load_bundled_config,
    matrix_from_json,
    matrix_to_json,
    parse_config,
    run_config,
)
from quditproc.registers import NORM_TOL

from conftest import max_abs_diff, strict_json
from test_golden_report import DATA as GOLDEN, _assert_matches

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(argv):
    return main(argv)


def test_bundled_paper_claims_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli(["run", "--config", "paper-claims", "--out", str(out), "--seed", "7"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["all_passed"] is True
    assert doc["seed"] == 7
    assert len(doc["rows"]) == 13
    for row in doc["rows"]:
        assert row["passed"] is True
        assert 0 <= row["simulated_probability_mean"] <= 1
        assert row["min_oracle_fidelity"] >= 1 - row["tolerance"]


def test_reports_byte_identical_for_same_seed(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run_cli(["run", "--config", "paper-claims", "--out", str(out1), "--seed", "123"]) == 0
    assert run_cli(["run", "--config", "paper-claims", "--out", str(out2), "--seed", "123"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_reports_differ_for_different_seed(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    run_cli(["run", "--config", "paper-claims", "--out", str(out1), "--seed", "1"])
    run_cli(["run", "--config", "paper-claims", "--out", str(out2), "--seed", "2"])
    # deviations and fidelities depend on the sampled states
    assert out1.read_bytes() != out2.read_bytes()


def test_csv_format(tmp_path):
    out = tmp_path / "report.csv"
    code = run_cli(["run", "--config", "paper-claims", "--out", str(out), "--seed", "7", "--format", "csv"])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("id,dim,operator,")
    assert len(lines) == 14  # header + 13 scenarios


def test_csv_leaves_an_absent_value_empty(tmp_path):
    # a row with no expected_probability has nothing in that column
    doc = one_scenario(operator={"name": "u_mn", "m": 1, "n": 0})
    cfg, out = tmp_path / "open.json", tmp_path / "report.csv"
    cfg.write_text(json.dumps(doc))
    assert run_cli(["run", "--config", str(cfg), "--out", str(out), "--format", "csv"]) == 0
    header, row = out.read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["expected_probability"] == ""
    assert cells["passed"] == "true"


def test_empty_scenario_list_is_valid(tmp_path):
    cfg = tmp_path / "empty.json"
    cfg.write_text(json.dumps({"schema": 1, "seed": 1, "scenarios": []}))
    out = tmp_path / "report.json"
    code = run_cli(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["rows"] == []


def test_unreadable_config_exits_2(tmp_path, capsys):
    code = run_cli(["run", "--config", str(tmp_path / "missing.json")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [["run", "--config", "paper-claims", "--trials", "1"], ["describe", "identity", "--dim", "2"]],
    ids=["run", "describe"],
)
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_unwritable_out_exits_2(command, target, tmp_path, capsys):
    out = tmp_path / "missing" / "r.json" if target == "missing-directory" else tmp_path
    assert run_cli([*command, "--out", str(out)]) == 2
    # The --out file is opened before `run` runs its first scenario.
    err = capsys.readouterr().err
    assert "[ok]" not in err
    assert err.splitlines()[-1].startswith("config error: cannot write --out file")
    assert not (tmp_path / "missing").exists()


def test_run_prints_one_stderr_line_per_row(tmp_path, capsys):
    # The rows' only trace outside the report, and the only place wall time shows.
    fixed = {"dim": 2, "trials": 2}
    doc = {
        "schema": 1,
        "scenarios": [
            {"id": "good", **fixed, "operator": {"name": "u_mn", "m": 0, "n": 1},
             "data_state": [[1, 0], [0, 0]], "measurement": "support", "expected_probability": 1.0},
            {"id": "bad", **fixed, "operator": {"name": "inline", "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},
             "data_state": [[0, 0], [1, 0]], "expected_probability": 0.5},
        ],
    }
    cfg, out = tmp_path / "rows.json", tmp_path / "report.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli(["run", "--config", str(cfg), "--out", str(out)]) == 1
    good = json.loads(out.read_text())["rows"][0]
    dev = re.escape(format(good["max_probability_deviation"], ".3g"))
    lines = capsys.readouterr().err.splitlines()
    assert re.fullmatch(rf"\[ok\] good: p=1 dev={dev} fid=1 \(\d+\.\d ms\)", lines[0])
    # annihilated in every trial: no post-selected state, so no fidelity
    assert re.fullmatch(r"\[FAIL\] bad: p=0 dev=0 fid=- \(\d+\.\d ms\)", lines[1])
    assert lines[2] == "1 scenario(s) failed:"


def test_invalid_json_config_exits_2(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert run_cli(["run", "--config", str(cfg)]) == 2


# A JSON object that repeats a key would keep only the last value; json.dumps
# cannot write one, so these configs are raw text.
REPEATED_KEYS = {
    "root": ('{"schema": 1, "seed": 1, "seed": 2, "scenarios": []}', "seed"),
    "scenario": (
        '{"schema": 1, "scenarios": [{"id": "s", "dim": 2, "dim": 3, "operator": {"name": "identity"}}]}',
        "dim",
    ),
    "operator": (
        '{"schema": 1, "scenarios": [{"id": "s", "dim": 4, "operator": {"name": "example2", "theta": 0.1, "theta": 0.9}}]}',
        "theta",
    ),
}


@pytest.mark.parametrize("text, key", REPEATED_KEYS.values(), ids=REPEATED_KEYS)
def test_a_repeated_config_key_exits_2(text, key, tmp_path, capsys):
    cfg, out = tmp_path / "twice.json", tmp_path / "report.json"
    cfg.write_text(text)
    assert run_cli(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: config {str(cfg)!r}: key {key!r} is given twice\n"
    assert not out.exists()


def test_a_repeated_key_in_the_bundled_config_exits_2(tmp_path, monkeypatch, capsys):
    (tmp_path / "configs").mkdir()
    (tmp_path / "configs" / "paper_claims.json").write_text(REPEATED_KEYS["root"][0])
    monkeypatch.setattr(harness_module.resources, "files", lambda package: tmp_path)
    assert run_cli(["run", "--config", "paper-claims"]) == 2
    assert capsys.readouterr().err == "config error: bundled config 'paper-claims': key 'seed' is given twice\n"


# The scenario's `dim` is the operator's: an operator `dim` key is unknown, equal or not.
@pytest.mark.parametrize("dim", [2, 3], ids=["same-dim", "other-dim"])
def test_an_operator_dim_key_is_a_config_error(dim, tmp_path, capsys):
    cfg, out = tmp_path / "dimkey.json", tmp_path / "report.json"
    cfg.write_text(json.dumps(one_scenario(operator={"matrix": FLIP, "dim": dim})))
    assert run_cli(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: scenario 's': operator 'inline' takes no parameter 'dim'\n"
    assert not out.exists()
    assert run_cli(["describe", "identity", "--dim", "2", "--param", f"dim={dim}"]) == 2
    assert capsys.readouterr().err == "config error: operator 'identity' takes no parameter 'dim'\n"


def test_dim_mismatch_config_exits_2_without_output(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(
        json.dumps(
            {
                "schema": 1,
                "seed": 1,
                "scenarios": [
                    {
                        "id": "bad",
                        "dim": 3,
                        "operator": {"name": "example1", "phi": 0.1},
                        "measurement": "support",
                    }
                ],
            }
        )
    )
    out = tmp_path / "report.json"
    assert run_cli(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def test_failed_expectation_exits_1(tmp_path, capsys):
    cfg = tmp_path / "fail.json"
    cfg.write_text(
        json.dumps(
            {
                "schema": 1,
                "seed": 1,
                "scenarios": [
                    {
                        "id": "wrong-expectation",
                        "dim": 2,
                        "operator": {"name": "identity"},
                        "measurement": "full",
                        "trials": 1,
                        "expected_probability": 0.5,
                        "tolerance": 1e-10,
                    }
                ],
            }
        )
    )
    out = tmp_path / "report.json"
    code = run_cli(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    assert "wrong-expectation" in capsys.readouterr().err
    # the report is still written, with the failure recorded
    doc = json.loads(out.read_text())
    assert doc["rows"][0]["passed"] is False


def test_trials_override(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(
        ["run", "--config", "paper-claims", "--out", str(out), "--seed", "7", "--trials", "2"]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert all(row["trials"] == 2 for row in doc["rows"])


def test_trials_override_above_max_exits_2(tmp_path, capsys):
    cfg = tmp_path / "one.json"
    cfg.write_text(json.dumps(one_scenario()))
    out = tmp_path / "report.json"
    argv = ["run", "--config", str(cfg), "--out", str(out), "--trials", str(MAX_TRIALS + 1)]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: scenario 's': trials must be in [1, ")
    assert not out.exists()


@pytest.mark.parametrize("override", [False, True])
def test_trials_bound(override):
    def parse(trials):
        if override:
            return parse_config(one_scenario(), trials_override=trials)[1][0]
        return parse_config(one_scenario(trials=trials))[1][0]

    assert parse(MAX_TRIALS).trials == MAX_TRIALS
    with pytest.raises(ConfigError, match="trials must be in"):
        parse(10**15)


@pytest.mark.parametrize("where", ["root", "scenario", "override"])
def test_seed_bound(where):
    def parse(seed):
        if where == "override":
            return parse_config(one_scenario(), seed_override=seed)
        if where == "root":
            return parse_config(one_scenario(root={"seed": seed}))
        return parse_config(one_scenario(seed=seed))

    seed, (scenario,) = parse(MAX_SEED)
    assert MAX_SEED == 2**64 - 1
    assert (seed if where != "scenario" else scenario.seed) == MAX_SEED
    with pytest.raises(ConfigError, match=r"seed must be in \[0, 18446744073709551615\]"):
        parse(MAX_SEED + 1)


def test_seed_override_above_u64_exits_2(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run_cli(["run", "--config", "paper-claims", "--out", str(out), "--seed", str(2**64)]) == 2
    assert capsys.readouterr().err.startswith("config error: seed must be in [0, ")
    assert not out.exists()


def test_describe_identity(capsys):
    code = run_cli(["describe", "identity", "--dim", "3"])
    assert code == 0
    doc = strict_json(capsys.readouterr().out)
    assert doc["support_size"] == 1
    assert abs(doc["predicted_probability_full"] - 1 / 9) < 1e-15
    assert doc["predicted_probability_support"] == 1.0


def test_describe_two_term_rotation(capsys):
    code = run_cli(["describe", "example2", "--dim", "6", "--param", "theta=0.3"])
    assert code == 0
    doc = strict_json(capsys.readouterr().out)
    assert doc["support_size"] == 2
    assert doc["unitary"] is True
    assert abs(doc["predicted_probability_support"] - 0.5) < 1e-15
    assert len(doc["coefficients"]) == 36


def test_describe_reflection_with_explicit_phi(capsys):
    code = run_cli(
        ["describe", "reflection", "--dim", "2", "--param", "phi=[[0.6,0],[0.8,0]]"]
    )
    assert code == 0
    doc = strict_json(capsys.readouterr().out)
    assert doc["unitary"] is True
    assert doc["support_size"] <= 4


def test_describe_random_without_rng_exits_2(capsys):
    assert run_cli(["describe", "random_unitary", "--dim", "2"]) == 2


@pytest.mark.parametrize(
    "argv",
    [["random_unitary"], ["random_operator"], ["reflection"], ["exchange", "--param", 'phi="random"']],
    ids=["random_unitary", "random_operator", "reflection-default", "exchange-random"],
)
def test_describe_rejects_every_drawing_entry(argv, capsys):
    # `describe_operator` asks the catalog's `draws` rule before building
    assert run_cli(["describe", *argv, "--dim", "2"]) == 2
    assert capsys.readouterr().err == (
        "config error: this operator draws random numbers; give explicit parameters\n"
    )


def test_describe_unknown_name_exits_2():
    assert run_cli(["describe", "nosuch", "--dim", "2"]) == 2


def test_describe_inline_matrix_round_trip(capsys):
    mat = [[[0.25, -0.125], [1.0, 0.5]], [[0.75, 0.0], [-0.33203125, 2.0]]]
    code = run_cli(["describe", "inline", "--param", f"matrix={json.dumps(mat)}"])
    assert code == 0
    doc = strict_json(capsys.readouterr().out)
    parsed = matrix_from_json(doc["matrix"])
    original = matrix_from_json(mat)
    assert np.max(np.abs(parsed - original)) < 1e-15


# A 64 x 64 matrix is more JSON than Linux lets one command-line argument hold
# (128 KiB), so only a file can give it to the console command.
HAAR_64 = matrix_to_json(random_unitary(64, np.random.default_rng(2)).entries)


@pytest.mark.parametrize(
    "argv, key, value",
    [
        (["inline"], "matrix", [[[0.5, 0.25], [1, 0]], [[0, -0.75], [0.125, 2]]]),
        (["inline"], "matrix", HAAR_64),
        (["reflection", "--dim", "2"], "phi", [[0.6, 0], [0.8, 0]]),
        (["example2", "--dim", "4"], "theta", 0.3),
    ],
    ids=["matrix", "matrix-64", "phi", "theta"],
)
def test_describe_reads_a_param_file_as_its_inline_json(argv, key, value, tmp_path, capsys):
    path = tmp_path / f"{key}.json"
    path.write_text(json.dumps(value, indent=1) + "\n")
    assert run_cli(["describe", *argv, "--param", f"{key}={json.dumps(value)}"]) == 0
    inline = capsys.readouterr().out
    assert run_cli(["describe", *argv, "--param", f"{key}=@{path}"]) == 0
    assert capsys.readouterr().out == inline


@pytest.mark.parametrize("target", ["missing", "directory"])
def test_an_unreadable_param_file_exits_2(target, tmp_path, capsys):
    path = tmp_path / "missing.json" if target == "missing" else tmp_path
    out = tmp_path / "description.json"
    assert run_cli(["describe", "inline", "--param", f"matrix=@{path}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read --param matrix file:")
    assert "Traceback" not in err
    assert not out.exists()


def test_broken_json_in_a_param_file_says_where_it_broke(tmp_path, capsys):
    # the JSON breaks at its end, where the last bracket is missing
    path, out = tmp_path / "matrix.json", tmp_path / "description.json"
    text = json.dumps(FLIP)[:-1]
    path.write_text(text)
    assert run_cli(["describe", "inline", "--param", f"matrix=@{path}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"config error: --param matrix file {str(path)!r} is not valid JSON: "
        f"Expecting ',' delimiter: line 1 column {len(text) + 1} (char {len(text)})\n"
    )
    assert not out.exists()


def test_a_param_string_is_quoted_json(capsys):
    argv = ["describe", "inline", "--param", f"matrix={json.dumps(FLIP)}"]
    assert run_cli([*argv, "--param", 'label="mine"']) == 0
    assert strict_json(capsys.readouterr().out)["label"] == "mine"
    assert run_cli([*argv, "--param", "label=mine"]) == 2
    assert capsys.readouterr().err.startswith("config error: --param label is not valid JSON:")


def test_describe_has_no_matrix_option(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["describe", "inline", "--matrix", json.dumps(FLIP)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --matrix" in capsys.readouterr().err


def test_matrix_json_round_trip_exact():
    rng = np.random.default_rng(3)
    mat = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.array_equal(matrix_from_json(matrix_to_json(mat)), mat)


def test_bundled_config_is_valid():
    doc = load_bundled_config("paper-claims")
    seed, scenarios = parse_config(doc)
    assert len(scenarios) == 13
    assert all(s.trials >= 1 for s in scenarios)


def test_an_unknown_bundled_config_is_a_config_error():
    with pytest.raises(ConfigError, match="no bundled config named 'nope'"):
        load_bundled_config("nope")


def test_run_config_in_process_matches_cli(tmp_path):
    doc = load_bundled_config("paper-claims")
    seed, rows = run_config(doc, seed_override=7)
    assert all(r.passed for r in rows)
    assert seed == 7


def test_explicit_data_state_round_trip(tmp_path):
    cfg = tmp_path / "explicit.json"
    cfg.write_text(
        json.dumps(
            {
                "schema": 1,
                "seed": 3,
                "scenarios": [
                    {
                        "id": "fixed-state",
                        "dim": 2,
                        "operator": {"name": "u_mn", "m": 0, "n": 1},
                        "data_state": [[1.0, 0.0], [0.0, 0.0]],
                        "measurement": "support",
                        "trials": 3,
                        "expected_probability": 1.0,
                    }
                ],
            }
        )
    )
    out = tmp_path / "report.json"
    assert run_cli(["run", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert abs(doc["rows"][0]["simulated_probability_mean"] - 1.0) < 1e-12


def python_m_quditproc(*argv) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    argv = [sys.executable, "-m", "quditproc", *argv]
    return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)


def test_python_m_quditproc_writes_the_golden_report_to_stdout():
    proc = python_m_quditproc("run", "--config", "paper-claims", "--seed", "2024")
    assert proc.returncode == 0, proc.stderr
    ref = json.loads((GOLDEN / "paper-claims-seed2024.json").read_text(encoding="utf-8"))
    _assert_matches(json.loads(proc.stdout), ref)


def test_python_m_quditproc_exits_2_on_an_unknown_operator():
    proc = python_m_quditproc("describe", "nope")
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: unknown operator name: 'nope'")
    assert "Traceback" not in proc.stderr


# --- config faults: exit 2, a "config error:" line, no report ------------------

FLIP = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
ZERO = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
HUGE = [[[1e308, 0], [1e308, 0]], [[1e308, 0], [1e308, 0]]]
# Tr(A†A) = 2e-320: nonzero, but below the smallest normal float.
SUBNORMAL = [[[1e-160, 0], [0, 0]], [[0, 0], [1e-160, 0]]]
# Normal Tr(A†A), but outside GRAM_RANGE. Accepted, each broke a run or a
# description: N Tr(A†A) = 3.7e308 overflowed the prediction to 0 (2.3e307);
# sum |q|^2 summed from subnormal squares left the program's squared norm
# 1.0000000000032 (4.7e-308); `describe`'s support scale read Infinity (2.3e-308).
_GINIBRE = np.random.default_rng(0).standard_normal((2, MAX_DIM, MAX_DIM))
SCALE_FAULTS = {
    "inline-gram-2.3e307": matrix_to_json(1.2e153 * np.eye(16)),
    "inline-gram-4.7e-308": matrix_to_json((_GINIBRE[0] + 1j * _GINIBRE[1]) * 6e-157),
    "inline-gram-2.3e-308": matrix_to_json(np.sqrt(2.3e-308 / 16) * np.eye(16)),
}


def one_scenario(root=None, **fields):
    scenario = {"id": "s", "dim": 2, "operator": {"name": "identity"}, "trials": 1}
    scenario.update(fields)
    return {"schema": 1, "seed": 1, "scenarios": [scenario], **(root or {})}


RUN_FAULTS = [
    pytest.param(one_scenario(dim="two"), id="dim-string"),
    pytest.param(one_scenario(trials="many"), id="trials-string"),
    pytest.param(one_scenario(operator={"name": "u_mn", "m": "x", "n": 0}), id="m-string"),
    pytest.param(one_scenario(dim=2.7), id="dim-float"),
    pytest.param(one_scenario(trials=2.5), id="trials-float"),
    pytest.param(one_scenario(root={"seed": -0.5}), id="seed-negative-float"),
    pytest.param(one_scenario(seed=-3), id="scenario-seed-negative"),
    pytest.param(one_scenario(dim=True), id="dim-bool"),
    pytest.param(one_scenario(trials=True), id="trials-bool"),
    pytest.param(one_scenario(root={"seed": True}), id="seed-bool"),
    pytest.param(one_scenario(seed=1.0), id="scenario-seed-float"),
    pytest.param(one_scenario(root={"seed": 2**64}), id="seed-2^64"),
    pytest.param(one_scenario(seed=2**64), id="scenario-seed-2^64"),
    pytest.param(one_scenario(root={"seed": int("9" * 4001)}), id="seed-4001-digits"),
    pytest.param(one_scenario(tolerance=float("nan")), id="tolerance-nan"),
    pytest.param(one_scenario(tolerance=-1), id="tolerance-negative"),
    pytest.param(one_scenario(expected_probability="half"), id="expected-string"),
    pytest.param(one_scenario(dim=4, operator={"name": "example1", "phi": "nan"}), id="phi-nan-string"),
    pytest.param(one_scenario(dim=4, operator={"name": "example1", "phi": float("inf")}), id="phi-inf"),
    pytest.param(one_scenario(operator={"matrix": ZERO}), id="inline-zero"),
    pytest.param(one_scenario(operator={"matrix": HUGE}), id="inline-overflow"),
    pytest.param(one_scenario(operator={"matrix": SUBNORMAL}), id="inline-subnormal"),
    *(pytest.param(one_scenario(dim=len(m), operator={"matrix": m}), id=k) for k, m in SCALE_FAULTS.items()),
    pytest.param(one_scenario(operator={"name": "family", "l": -1, "phi": 0.1}), id="family-l-negative"),
    pytest.param(one_scenario(dim=1000), id="dim-above-max"),
    pytest.param(one_scenario(trials=MAX_TRIALS + 1), id="trials-above-max"),
    pytest.param(one_scenario(operator={"name": "family", "l": 100, "phi": 0.1}), id="family-l-above-max"),
    pytest.param(one_scenario(measurment="support"), id="scenario-key-measurment"),
    pytest.param(one_scenario(trails=7), id="scenario-key-trails"),
    pytest.param(one_scenario(expected_probabilty=0.5), id="scenario-key-expected-probabilty"),
    pytest.param(one_scenario(root={"sed": 5}), id="root-key-sed"),
    pytest.param(one_scenario(root={"name": {"a": 1}}), id="name-object"),
    pytest.param(one_scenario(root={"name": 3}), id="name-int"),
    pytest.param(one_scenario(processor=["qubit-cnot"]), id="processor-list"),
    pytest.param([one_scenario()], id="root-list"),
    pytest.param("paper-claims", id="root-string"),
    pytest.param(one_scenario(processor="qubit-cnot", dim=3), id="qubit-cnot-dim-3"),
    pytest.param(one_scenario(data_state=[[1, 0], [0, 0], [0, 0]]), id="data-state-length"),
    pytest.param(one_scenario(data_state=[1, 0]), id="data-state-not-pairs"),
    pytest.param(one_scenario(operator={"matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0, 0]]]}), id="matrix-entry-triple"),
    pytest.param(one_scenario(operator={"matrix": [[[1, 0], [0, 0]], [[1, 0]]]}), id="matrix-ragged"),
    pytest.param({"schema": 1, "scenarios": [one_scenario()["scenarios"][0]] * 2}, id="scenario-id-twice"),
]


@pytest.mark.parametrize("doc", RUN_FAULTS)
def test_run_config_fault_exits_2(doc, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert run_cli(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err
    assert not out.exists()


DESCRIBE_FAULTS = [
    pytest.param(["example1", "--dim", "3", "--param", "phi=0.1"], id="example1-dim-3"),
    pytest.param(["family", "--dim", "2", "--param", "l=3", "--param", "phi=0.1"], id="family-dim-mismatch"),
    pytest.param(["example1", "--param", "phi=nan"], id="phi-nan-string"),
    pytest.param(["example1", "--param", "phi=NaN"], id="phi-nan"),
    pytest.param(["inline", "--param", f"matrix={json.dumps(ZERO)}"], id="inline-zero"),
    pytest.param(["inline", "--param", f"matrix={json.dumps(HUGE)}"], id="inline-overflow"),
    pytest.param(["inline", "--param", f"matrix={json.dumps(SUBNORMAL)}"], id="inline-subnormal"),
    *(pytest.param(["inline", "--param", f"matrix={json.dumps(m)}"], id=k) for k, m in SCALE_FAULTS.items()),
    pytest.param(["family", "--param", "l=-1", "--param", "phi=0.1"], id="family-l-negative"),
    pytest.param(["identity", "--dim", "1000"], id="dim-above-max"),
    pytest.param(["family", "--param", "l=100", "--param", "phi=0.1"], id="family-l-above-max"),
    pytest.param(["identity"], id="no-dim"),
    pytest.param(["example2", "--dim", "4", "--param", "theta=0.1", "--param", "theta=0.9"], id="param-twice"),
    pytest.param(["example2", "--dim", "4", "--param", "theta"], id="param-without-value"),
    pytest.param(["inline", "--param", f"matrix={json.dumps(FLIP)[:-1]}"], id="param-broken-json"),
    pytest.param(["example2", "--dim", "4", "--param", 'theta={"a": 1, "a": 2}'], id="param-repeated-key"),
]


@pytest.mark.parametrize("argv", DESCRIBE_FAULTS)
def test_describe_fault_exits_2(argv, tmp_path, capsys):
    out = tmp_path / "description.json"
    assert run_cli(["describe", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err
    assert not out.exists()


def _state_scenario(where: str, amps: list) -> dict:
    if where == "data_state":
        return one_scenario(data_state=amps)
    return one_scenario(operator={"name": "reflection", "phi": amps}, measurement="support")


# Squared norms that under- or overflow: the norm is taken of the rescaled
# vector, so an error states the true norm and a representable norm passes.
@pytest.mark.parametrize(
    "amps, norm",
    [([[1e-300, 0], [0, 0]], "1e-300"), ([[0, 5e-324], [0, 0]], "5e-324"), ([[0, 0], [0, 0]], "0.0")],
    ids=["1e-300", "subnormal", "zero"],
)
@pytest.mark.parametrize("where", ["data_state", "phi"])
def test_a_state_below_the_norm_floor_exits_2_with_its_true_norm(where, amps, norm, tmp_path, capsys):
    cfg, out = tmp_path / "state.json", tmp_path / "report.json"
    cfg.write_text(json.dumps(_state_scenario(where, amps)))
    assert run_cli(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"has norm {norm};" in capsys.readouterr().err
    assert not out.exists()
    if where == "phi":
        assert run_cli(["describe", "reflection", "--dim", "2", "--param", f"phi={json.dumps(amps)}"]) == 2
        assert f"has norm {norm};" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["data_state", "phi"])
def test_a_state_whose_squared_norm_overflows_runs(where, tmp_path, capsys):
    amps = [[1e200, 0], [1e200, 0]]
    cfg, out = tmp_path / "state.json", tmp_path / "report.json"
    cfg.write_text(json.dumps(_state_scenario(where, amps)))
    assert run_cli(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["all_passed"] is True
    if where == "phi":
        assert run_cli(["describe", "reflection", "--dim", "2", "--param", f"phi={json.dumps(amps)}"]) == 0
        assert strict_json(capsys.readouterr().out)["unitary"] is True
    # normalized as the same direction at unit scale, which stays bit-identical
    unit = [[1.0, 0], [1.0, 0]]
    assert np.allclose(_state(where, amps), _state(where, unit), rtol=0, atol=1e-16)
    assert np.array_equal(_state(where, unit), np.array([1.0, 1.0]) / np.linalg.norm([1.0, 1.0]))


def test_subnormal_gram_trace_error_states_the_bound(tmp_path, capsys):
    cfg = tmp_path / "subnormal.json"
    cfg.write_text(json.dumps(one_scenario(operator={"matrix": SUBNORMAL})))
    assert run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "report.json")]) == 2
    err = capsys.readouterr().err
    assert "Tr(A†A) is 2e-320" in err
    assert "it must lie in [1e-200, 1e+200]. The outcome does not depend on the matrix's scale" in err


def _scaled_to(mat: np.ndarray, gram: float) -> np.ndarray:
    return mat * np.sqrt(gram / np.sum(np.abs(mat) ** 2))


# The largest describe scales come from S = 1 at the low end, the smallest
# from S = N^2 at the high end; `describe` at MAX_DIM takes most of a second.
@pytest.mark.parametrize(
    "kind,gram,describe",
    [
        pytest.param("identity", GRAM_RANGE[0] * (1 + 1e-9), True, id="identity-low"),
        pytest.param("ginibre", GRAM_RANGE[0] * (1 + 1e-9), False, id="ginibre-low"),
        pytest.param("identity", GRAM_RANGE[1] * (1 - 1e-9), False, id="identity-high"),
        pytest.param("ginibre", GRAM_RANGE[1] * (1 - 1e-9), True, id="ginibre-high"),
    ],
)
def test_gram_range_ends_stay_finite_and_exact_at_max_dim(kind, gram, describe):
    # Just inside either end of GRAM_RANGE, the expansion, the program and the
    # predictions equal those of the same matrix at Tr(A†A) = 1, without a run.
    base = np.eye(MAX_DIM) if kind == "identity" else _GINIBRE[0] + 1j * _GINIBRE[1]
    params = {"matrix": matrix_to_json(_scaled_to(base, gram))}
    op = build_operator("inline", *check_operator("inline", params), rng=None)
    unit = DenseOperator(MAX_DIM, _scaled_to(base, 1.0))
    expansion = hs_expand(op)
    assert expansion.gram_norm * MAX_DIM == pytest.approx(op.gram_trace(), rel=1e-12)
    assert expansion.support_size() == hs_expand(unit).support_size()
    program = program_from_expansion(expansion).state.amplitudes
    assert abs(np.vdot(program, program).real - 1) <= NORM_TOL
    assert max_abs_diff(program, program_from_expansion(hs_expand(unit)).state.amplitudes) < 1e-12
    psi = random_state(MAX_DIM, 1, np.random.default_rng(1))
    for meas_kind in ("full", "support"):
        p = predicted_probability(op, psi, meas_kind)
        assert p == pytest.approx(predicted_probability(unit, psi, meas_kind), rel=1e-12)
    if describe:
        doc = describe_operator("inline", None, params)
        s = expansion.support_size()
        assert doc["probability_scale_full"] == pytest.approx(1 / (MAX_DIM * gram), rel=1e-12)
        assert doc["probability_scale_support"] == pytest.approx(MAX_DIM / (s * gram), rel=1e-12)
        assert 0 < doc["probability_scale_full"] and np.isfinite(doc["probability_scale_support"])


def test_max_dim_bounds_the_bell_matrix():
    # Four copies of the N^3 complex joint state fit in 1 GiB; the Bell basis
    # is an FFT map, so nothing of size N^4 is allocated any more.
    assert 64 * MAX_DIM**3 <= 2**30 < 64 * (MAX_DIM + 1) ** 3
    doc = {"schema": 1, "scenarios": [{"dim": 64, "operator": {"name": "random_unitary"}}]}
    assert parse_config(doc)[1][0].dim == 64


def test_random_unitary_above_the_old_dim_bound_passes():
    # N = 96 was above the bound the dense N^2 x N^2 Bell matrix set (90)
    doc = one_scenario(
        dim=96, operator={"name": "random_unitary"}, measurement="full", expected_probability=96**-2
    )
    _, (row,) = run_config(doc)
    assert row.passed
    assert abs(row.simulated_probability_mean - 96**-2) < 1e-12
    assert row.min_oracle_fidelity > 1 - 1e-10


def tiny_matrix(entries) -> list:
    return [[[1e-100 * z.real, 1e-100 * z.imag] for z in row] for row in entries]


def test_tiny_inline_identity_runs(tmp_path):
    out = tmp_path / "report.json"
    cfg = tmp_path / "tiny.json"
    doc = one_scenario(dim=3, operator={"name": "inline", "matrix": tiny_matrix(np.eye(3))}, trials=3)
    cfg.write_text(json.dumps(doc))
    assert run_cli(["run", "--config", str(cfg), "--out", str(out)]) == 0
    (row,) = json.loads(out.read_text())["rows"]
    assert row["passed"] is True
    assert row["min_oracle_fidelity"] == pytest.approx(1.0, abs=1e-12)


def test_tiny_inline_haar_unitary_row_passes():
    haar = np.linalg.qr(np.random.default_rng(5).normal(size=(4, 4)) + 0j)[0]
    doc = one_scenario(
        dim=4,
        operator={"name": "inline", "matrix": tiny_matrix(haar)},
        measurement="full",
        expected_probability=1 / 16,
        trials=2,
    )
    _, (row,) = run_config(doc)
    assert row.passed
    assert row.min_oracle_fidelity > 1 - 1e-12


def test_describe_implies_dim_from_the_catalog(capsys):
    assert run_cli(["describe", "family", "--param", "l=3", "--param", "phi=0.4"]) == 0
    doc = strict_json(capsys.readouterr().out)
    assert doc["dim"] == 8
    assert len(doc["coefficients"]) == 64
    assert abs(doc["predicted_probability_full"] - 1 / 64) < 1e-15


# One spec per catalog entry that `run` must reject; `describe` must too.
REJECTED_SPECS = {
    "identity": [(1, {}), (MAX_DIM + 1, {}), (2, {"theta": 0.1})],
    "u_mn": [(3, {"m": 1}), (3, {"m": "x", "n": 0}), (3, {"m": 1.5, "n": 0})],
    "reflection": [
        (2, {"phi": [[1, 0], [0, 0], [0, 0]]}),
        (2, {"phi": [[0, 0], [0, 0]]}),
        (2, {"phi": "nan"}),
    ],
    "exchange": [(3, {}), (2, {"phi": [[1, 0]]})],
    "example1": [(3, {"phi": 0.1}), (4, {}), (4, {"phi": "nan"})],
    "family": [(2, {"l": 3, "phi": 0.1}), (2, {"l": -1, "phi": 0.1}), (512, {"l": 9, "phi": 0.1})],
    "example2": [(5, {"theta": 0.3}), (4, {"theta": "x"}), (4, {})],
    "random_unitary": [(1, {}), (1000, {})],
    "random_operator": [(MAX_DIM + 1, {}), (2, {"seed": 1})],
    "inline": [
        (3, {"matrix": FLIP}),
        (2, {"matrix": ZERO}),
        (2, {"matrix": HUGE}),
        (2, {"matrix": [[[1, 0]]]}),
    ],
}


def test_rejected_specs_cover_the_catalog():
    assert REJECTED_SPECS.keys() == CATALOG.keys()


@pytest.mark.parametrize(
    "name,dim,params",
    [
        pytest.param(name, dim, params, id=f"{name}-{i}")
        for name, specs in REJECTED_SPECS.items()
        for i, (dim, params) in enumerate(specs)
    ],
)
def test_describe_rejects_what_run_rejects(name, dim, params, tmp_path, capsys):
    cfg = tmp_path / "spec.json"
    cfg.write_text(json.dumps(one_scenario(dim=dim, operator={"name": name, **params})))
    assert run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "report.json")]) == 2
    argv = ["describe", name, "--dim", str(dim)]
    for key, value in params.items():
        argv += ["--param", f"{key}={json.dumps(value)}"]
    assert run_cli(argv) == 2
    assert "config error:" in capsys.readouterr().err


# --- property: parse_config returns or raises ConfigError, nothing else ---------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=10,
)
DELETE = object()
VALID_SCENARIOS = load_bundled_config("paper-claims")["scenarios"] + [
    {"id": "flip", "dim": 2, "operator": {"matrix": FLIP, "label": "flip"}, "data_state": [[1, 0], [0, 0]]},
    {"id": "axis", "dim": 2, "operator": {"name": "reflection", "phi": [[0.6, 0], [0.8, 0]]}, "seed": 4},
    {"id": "basis", "dim": 3, "operator": {"name": "u_mn", "m": 1, "n": 2}},
]
SCENARIO_KEYS = sorted({key for scn in VALID_SCENARIOS for key in scn} | {"seed"})
OPERATOR_KEYS = sorted(
    {key for scn in VALID_SCENARIOS for key in scn["operator"]} | {"name", "dim", "m", "n", "theta"}
)


def parses_or_config_error(doc):
    try:
        parse_config(doc)
    except ConfigError:
        pass


@st.composite
def mutated_configs(draw):
    scenario = copy.deepcopy(draw(st.sampled_from(VALID_SCENARIOS)))
    doc = {"schema": 1, "seed": 3, "scenarios": [scenario]}
    targets = [
        (doc, ["schema", "seed", "scenarios"]),
        (scenario, SCENARIO_KEYS),
        (scenario["operator"], OPERATOR_KEYS),
    ]
    target, keys = draw(st.sampled_from(targets))
    key = draw(st.sampled_from(keys))
    value = draw(st.just(DELETE) | JSON_VALUES)
    if value is DELETE:
        target.pop(key, None)
    else:
        target[key] = value
    return doc


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(mutated_configs())
def test_parse_config_mutations_raise_only_config_error(doc):
    parses_or_config_error(doc)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(
    JSON_VALUES
    | st.dictionaries(st.sampled_from(["schema", "seed", "scenarios"]), JSON_VALUES)
    | st.fixed_dictionaries(
        {
            "schema": st.just(1),
            "scenarios": st.lists(st.dictionaries(st.sampled_from(SCENARIO_KEYS), JSON_VALUES)),
        }
    )
)
def test_parse_config_arbitrary_documents_raise_only_config_error(doc):
    parses_or_config_error(doc)
