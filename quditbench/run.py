"""quditproc benchmark: one command runs a workload and prints its metrics.

    python3 quditbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. NAME is one of the workloads in
BENCHMARK.json, or `all` to run each in turn. Every workload runs in its own
Python process (see workload.py), so `peak_rss_mb` belongs to it alone, with
one BLAS/OpenMP thread and the checkout's `src/` on PYTHONPATH. Each metric is printed by name and unit; the last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics (end-to-end metrics with --trace 0, per-layer metrics with --trace 1).
Spans, results and the environment record are written under quditbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 170
# One BLAS/OpenMP thread (at most nproc): the hot paths are Python loops and
# matrix-vector products, and an idle second BLAS thread spins on a core and
# makes the timings noisier without making the N = 64 trial faster.
BLAS_THREADS = 1
IMPORT_REPS = 5
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    pass


def child_env(root: Path, threads: int) -> dict:
    env = dict(os.environ)
    env.update({var: str(threads) for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def run_child(argv, env) -> str:
    """Run a Python child to completion and return its last stdout line."""
    try:
        proc = subprocess.run(
            [sys.executable, *argv],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"{argv[0]} did not finish within {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(argv)} exited with code {proc.returncode}")
    return lines[-1]


def import_seconds(env) -> float:
    """Median reference seconds to import quditproc in a fresh interpreter."""
    timer = [str(BENCH_DIR / "refclock.py")]
    return statistics.median(float(run_child(timer, env)) for _ in range(IMPORT_REPS))


def run_workload(name: str, args, env, declared: dict) -> dict:
    argv = [
        str(BENCH_DIR / "workload.py"),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    result = json.loads(run_child(argv, env))
    if not args.trace:
        import_s = import_seconds(env)
        result["extra"]["import_ref_s"] = import_s
        result["metrics"]["setup_s"]["value"] += import_s
    kind = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in declared[kind]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        raise BenchError(f"{name}: metrics {sorted(got.items())} differ from BENCHMARK.json {kind}")
    out = BENCH_DIR / "out" / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", "utf-8")
    return result


# Printed beside the metrics but not gated: wall-clock figures follow the load
# of the machine's other tenants as much as the code.
EXTRA_UNITS = {
    "failed_fraction": "ratio",
    "ops": "count",
    "trials_per_s": "1/s (wall)",
    "op_ms_p50": "ms (wall)",
    "op_ms_p90": "ms (wall)",
}


def print_block(result: dict) -> None:
    print(f"[{result['workload']}] N = {result['dims']}  correct={result['correct']}  "
          f"attempted={result['attempted']}  failed={result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:46s} {m['value']:>16.6g} {m['unit']}")
    for name, unit in EXTRA_UNITS.items():
        if name in result["extra"]:
            value = result["extra"][name]
            text = "- (fewer than 100 ops)" if value is None else f"{value:>16.6g} {unit}"
            print(f"  {name:46s} {text}")
    print("  env: " + "  ".join(f"{k}={v}" for k, v in result["env"].items()))


def main() -> int:
    declared = json.loads(Path("BENCHMARK.json").read_text("utf-8"))
    names = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description="quditproc benchmark")
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "quditproc" / "__init__.py").is_file():
        print(f"no quditproc sources under {root / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    env = child_env(root, min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    try:
        chosen = names if args.workload == "all" else [args.workload]
        results = [run_workload(name, args, env, declared) for name in chosen]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print_block(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
