"""Run the benchmark in alternating pairs of parent and change and write BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent DIR --change DIR --seeds 2401 2402 ... \
        --number 24 --claim stored-program-n64 trials_per_ref_s --expected "rises" \
        --parent-commit SHA --summary "what the change does"

A change that claims no gain leaves out --claim and --expected; its record's
`claim` is null, and every metric still reports whether it is within bound.

DIR is the root of a source checkout of each side (for instance a `git archive`
of the parent commit and a copy of the working tree). Their `quditbench/`
files and `BENCHMARK.json` must be identical, so that only the program
differs. For each seed it runs

    python3 quditbench/run.py --workload all --seed S --seconds T --trace 0

once in each tree, one after the other, the parent first for the first seed
and the change first for the next, and so on. The summary of each end-to-end
metric on each workload gives both sides' medians, quartiles and runs, the
pairs the change won and whether its median is within the benchmark's bound.
The claimed metric is met when the change wins at least nine tenths of the
pairs and the medians differ, in the better direction, by more than the
distance between the parent's quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
WIN_SHARE = 0.9
NOTE = (
    "Each side ran from its own tree with identical quditbench/ files and BENCHMARK.json, "
    "one after the other on the same machine, alternating which side ran first. Quartiles are "
    "statistics.quantiles(n=4) over each side's per-seed values; spread is (max - min) / median; "
    "change_wins counts pairs in which the change read better (ties count for neither); "
    "median_change is change median / parent median - 1; worse_by is the fraction by which "
    "the change's median is worse (negative: better)."
)


def bench_files(root: Path) -> dict:
    """The benchmark's own files under `root`, by relative path, as bytes."""
    files = {"BENCHMARK.json": (root / "BENCHMARK.json").read_bytes()}
    for path in sorted((root / "quditbench").rglob("*")):
        rel = path.relative_to(root)
        if path.is_file() and rel.parts[1] not in ("out", "__pycache__"):
            files[str(rel)] = path.read_bytes()
    return files


def check_same_benchmark(parent: Path, change: Path) -> None:
    a, b = bench_files(parent), bench_files(change)
    differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    if differ:
        raise SystemExit(f"benchmark files differ between the trees: {', '.join(differ)}")


def run_once(root: Path, seed: int, seconds: float) -> dict:
    """One `--trace 0` run of every workload in `root`; its last stdout line, parsed."""
    argv = [sys.executable, "quditbench/run.py", "--workload", "all",
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{root}: seed {seed} printed nothing (exit {proc.returncode})")
    return json.loads(lines[-1])


def side_summary(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (max(values) - min(values)) / median, "runs": values}


def compare(parent: list, change: list, better: str, bound: float) -> dict:
    """Both sides of one metric over paired runs, as BENCH_*.json records it."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_side, c_side = side_summary(parent), side_summary(change)
    median_change = c_side["median"] / p_side["median"] - 1
    worse_by = -sign * median_change
    return {
        "parent": p_side,
        "change": c_side,
        "change_wins": f"{wins}/{len(parent)}",
        "median_change": median_change,
        "worse_by": worse_by,
        "within_bound": worse_by <= bound,
    }


def claim_met(summary: dict, better: str) -> bool:
    """At least nine tenths of the pairs won, and the medians apart by more than the parent's quartiles."""
    wins, pairs = map(int, summary["change_wins"].split("/"))
    parent, change = summary["parent"], summary["change"]
    gain = (change["median"] - parent["median"]) * (1 if better == "higher" else -1)
    return wins >= WIN_SHARE * pairs and gain > parent["q3"] - parent["q1"]


def claim_record(end_to_end: dict, workload: str, metric: str, expected: str) -> dict:
    """The claimed metric's medians, parent quartile distance and wins, and whether the claim is met."""
    claimed = end_to_end[workload][metric]
    return {
        "workload": workload,
        "metric": metric,
        "expected": expected,
        "met": claim_met(claimed, claimed["better"]),
        "parent_median": claimed["parent"]["median"],
        "parent_iqr": claimed["parent"]["q3"] - claimed["parent"]["q1"],
        "change_median": claimed["change"]["median"],
        "change_wins": claimed["change_wins"],
    }


def summarize(declared: dict, runs: dict) -> dict:
    """End-to-end summaries by workload and metric from each side's list of run results."""
    out = {}
    for workload in (w["name"] for w in declared["workloads"]):
        out[workload] = {}
        for m in declared["end_to_end"]:
            values = {s: [r["metrics"][f"{workload}.{m['name']}"]["value"] for r in runs[s]] for s in SIDES}
            out[workload][m["name"]] = {
                "unit": m["unit"], "better": m["better"], "bound": m["bound"],
                **compare(values["parent"], values["change"], m["better"], m["bound"]),
            }
    return out


def machine() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--number", type=int, required=True, help="writes BENCH_<number>.json")
    parser.add_argument("--claim", nargs=2, metavar=("WORKLOAD", "METRIC"), help="default: no claim")
    parser.add_argument("--expected", help="the claimed movement, in words; needs --claim")
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--summary", required=True, help="what the change does")
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("need at least two seeds for quartiles")
    if (args.claim is None) != (args.expected is None):
        parser.error("--claim and --expected go together")

    check_same_benchmark(args.parent, args.change)
    declared = json.loads((args.parent / "BENCHMARK.json").read_text("utf-8"))
    seconds = declared["run_seconds"] if args.seconds is None else args.seconds
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {s: [] for s in SIDES}
    first = []
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            runs[side].append(run_once(trees[side], seed, seconds))
            print(f"seed {seed} {side}: correct={runs[side][-1]['correct']}", file=sys.stderr, flush=True)

    end_to_end = summarize(declared, runs)
    claim = None if args.claim is None else claim_record(end_to_end, *args.claim, args.expected)
    report = {
        "change": args.summary,
        "parent_commit": args.parent_commit,
        "command": f"python3 quditbench/run.py --workload all --seed S --seconds {seconds:g} --trace 0, "
                   "one run per side and seed, alternating which side runs first",
        "claim": claim,
        "note": NOTE,
        "pairs": len(args.seeds),
        "seeds": args.seeds,
        "first_in_pair": first,
        "correct": {s: all(r["correct"] for r in runs[s]) for s in SIDES},
        "failed": {s: sum(r["failed"] for r in runs[s]) for s in SIDES},
        "attempted": {s: sum(r["attempted"] for r in runs[s]) for s in SIDES},
        "end_to_end": end_to_end,
        "machine": machine(),
    }
    out = args.out_dir / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", "utf-8")
    print(f"wrote {out}: " + ("no claim" if claim is None else f"claim met = {claim['met']}"), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
