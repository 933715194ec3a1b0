import importlib.util
import json
import statistics
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_compare_reports_medians_quartiles_and_wins():
    parent = [100.0, 110.0, 90.0, 105.0, 95.0]
    change = [120.0, 108.0, 130.0, 125.0, 121.0]
    got = bench_pairs.compare(parent, change, "higher", 0.25)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    assert got["parent"] == {"median": 100.0, "q1": q1, "q3": q3, "spread": 0.2, "runs": parent}
    assert got["change"]["median"] == 121.0 and got["change"]["spread"] == pytest.approx(22 / 121)
    assert got["change_wins"] == "4/5"  # 108 < 110 in the second pair
    assert got["median_change"] == pytest.approx(0.21)
    assert got["worse_by"] == pytest.approx(-0.21)
    assert got["within_bound"] is True


def test_lower_is_better_flips_wins_and_worse_by():
    got = bench_pairs.compare([1.0, 1.0, 1.0], [1.5, 0.9, 1.5], "lower", 0.25)
    assert got["change_wins"] == "1/3"
    assert got["worse_by"] == pytest.approx(0.5)
    assert got["within_bound"] is False


def test_ties_count_for_neither_side():
    assert bench_pairs.compare([1.0, 2.0], [1.0, 2.0], "higher", 0.1)["change_wins"] == "0/2"


@pytest.mark.parametrize(
    "change, met",
    [
        ([130.0] * 10, True),
        # every pair won, but the gain is inside the parent's quartiles
        ([96.0, 106.0] * 5, False),
        # a large gain, won in only eight of ten pairs
        ([130.0] * 8 + [80.0] * 2, False),
    ],
)
def test_claim_needs_nine_tenths_of_pairs_and_a_gain_beyond_the_quartiles(change, met):
    parent = [95.0, 105.0] * 5
    assert bench_pairs.claim_met(bench_pairs.compare(parent, change, "higher", 0.25), "higher") is met


def test_summarize_reads_every_declared_metric_of_every_workload():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))

    def result(value):
        return {
            "metrics": {
                f"{w['name']}.{m['name']}": {"value": value, "unit": m["unit"]}
                for w in declared["workloads"]
                for m in declared["end_to_end"]
            }
        }

    runs = {"parent": [result(1.0), result(2.0)], "change": [result(2.0), result(3.0)]}
    got = bench_pairs.summarize(declared, runs)
    assert list(got) == [w["name"] for w in declared["workloads"]]
    for by_metric in got.values():
        assert list(by_metric) == [m["name"] for m in declared["end_to_end"]]
        for m in declared["end_to_end"]:
            row = by_metric[m["name"]]
            assert (row["unit"], row["better"], row["bound"]) == (m["unit"], m["better"], m["bound"])
            assert row["parent"]["runs"] == [1.0, 2.0] and row["change"]["runs"] == [2.0, 3.0]
            assert row["change_wins"] == ("2/2" if m["better"] == "higher" else "0/2")


def test_trees_must_share_the_benchmark_files(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "quditbench" / "out").mkdir(parents=True)
        (tmp_path / side / "BENCHMARK.json").write_text("{}")
        (tmp_path / side / "quditbench" / "run.py").write_text("pass\n")
        # results under out/ are not benchmark code
        (tmp_path / side / "quditbench" / "out" / "result.json").write_text(side)
    bench_pairs.check_same_benchmark(tmp_path / "parent", tmp_path / "change")
    (tmp_path / "change" / "quditbench" / "run.py").write_text("pass  # edited\n")
    with pytest.raises(SystemExit, match="quditbench/run.py"):
        bench_pairs.check_same_benchmark(tmp_path / "parent", tmp_path / "change")


# A stand-in for quditbench/run.py: every declared metric of every workload
# reads the seed, and every run is correct.
_FAKE_RUN = """
import json, sys
declared = json.load(open("BENCHMARK.json"))
seed = float(sys.argv[sys.argv.index("--seed") + 1])
metrics = {f"{w['name']}.{m['name']}": {"value": seed, "unit": m["unit"]}
           for w in declared["workloads"] for m in declared["end_to_end"]}
print(json.dumps({"correct": True, "failed": 0, "attempted": 1, "metrics": metrics}))
"""


def _pairs(tmp_path, monkeypatch, *extra) -> dict:
    for side in ("parent", "change"):
        (tmp_path / side / "quditbench").mkdir(parents=True)
        (tmp_path / side / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
        (tmp_path / side / "quditbench" / "run.py").write_text(_FAKE_RUN)
    argv = ["bench_pairs.py", "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--seeds", "1", "2", "--seconds", "1", "--number", "0", "--parent-commit", "abc",
            "--summary", "a change", "--out-dir", str(tmp_path), *extra]
    monkeypatch.setattr(sys, "argv", argv)
    assert bench_pairs.main() == 0
    return json.loads((tmp_path / "BENCH_0.json").read_text("utf-8"))


def test_a_change_without_a_claim_records_null_and_every_bound(tmp_path, monkeypatch):
    report = _pairs(tmp_path, monkeypatch)
    assert report["claim"] is None
    assert report["correct"] == {"parent": True, "change": True}
    rows = [row for by_metric in report["end_to_end"].values() for row in by_metric.values()]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert len(rows) == len(declared["workloads"]) * len(declared["end_to_end"])
    assert all(row["within_bound"] is True for row in rows)


def test_a_claim_is_recorded_with_its_expectation(tmp_path, monkeypatch):
    report = _pairs(tmp_path, monkeypatch, "--claim", "paper-claims", "setup_s", "--expected", "falls")
    assert report["claim"]["expected"] == "falls" and report["claim"]["met"] is False
    assert report["claim"]["change_wins"] == "0/2"


@pytest.mark.parametrize("extra", [["--claim", "paper-claims", "setup_s"], ["--expected", "falls"]])
def test_a_claim_and_its_expectation_go_together(extra, tmp_path, monkeypatch):
    with pytest.raises(SystemExit):
        _pairs(tmp_path, monkeypatch, *extra)
