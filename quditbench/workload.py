"""One benchmark workload in one process: set-up, timed ops, checks, metrics.

Started by run.py, which caps the BLAS/OpenMP threads and puts the checkout's
`src/` on PYTHONPATH. Human-readable notes go to stderr; the last stdout line
is one JSON object for run.py to assemble into the benchmark result.

    python3 quditbench/workload.py --workload NAME --seed N --seconds S --trace 0|1

With `--trace 0` the process measures the end-to-end metrics. With
`--trace 1` it runs an untraced window and then a window with every public
function in tracing.TRACED wrapped, each half of `--seconds`, then the
cost-order ladder and one in-process `quditproc run --config paper-claims`,
and derives the per-layer metrics from the recorded spans.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

import refclock
from tracing import OP_SPAN, Tracer

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"

TOL = 1e-10  # bound on |p_sim - p_pred| and on 1 - oracle fidelity
SETUP_REPS = 3
# (dim, timed trials) rungs of the cost-order ladder; the median trial counts.
LADDER = ((16, 3), (32, 3), (64, 1))
MODULES = ("harness", "sampling", "programs", "gates", "processor", "registers", "postselect", "bench")


def import_quditproc():
    """Import the package from this checkout's src/, never from elsewhere."""
    import quditproc

    src = (ROOT / "src").resolve()
    if src not in Path(quditproc.__file__).resolve().parents:
        raise SystemExit(f"quditproc imported from {quditproc.__file__}, not from {src}")
    from quditproc import cli, harness, postselect, processor, programs, sampling

    return cli, harness, postselect, processor, programs, sampling


cli, harness, postselect, processor, programs, sampling = import_quditproc()


@dataclass
class OpResult:
    trials: int
    ok: bool
    p_success: float  # mean simulated success probability over the op's trials
    note: str = ""


def row_ok(row) -> bool:
    """A report row passed, stayed within TOL and met its expected probability."""
    fid = row.min_oracle_fidelity
    return (
        row.passed
        and row.max_probability_deviation <= TOL
        and fid is not None
        and fid >= 1.0 - TOL
        and (
            row.expected_probability is None
            or abs(row.simulated_probability_mean - row.expected_probability) <= row.tolerance
        )
    )


def haar_full_scenario(sid: str, dim: int) -> dict:
    """Config entry: one fresh Haar unitary per trial, full measurement."""
    return {
        "id": sid,
        "dim": dim,
        "operator": {"name": "random_unitary"},
        "measurement": "full",
        "trials": 1,
        "expected_probability": 1.0 / dim**2,
        "tolerance": TOL,
    }


def parse_scenarios(entries, seed: int):
    return harness.parse_config({"schema": 1, "scenarios": entries}, seed_override=seed)[1]


class PaperClaims:
    """One op is one report row of the bundled paper-claims config."""

    name = "paper-claims"
    dims = "2..8"

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        doc = harness.load_bundled_config("paper-claims")
        self.global_seed, self.scenarios = harness.parse_config(doc, seed_override=self.seed)
        self.cycle = self.exact_ops = len(self.scenarios)

    def warm_up(self) -> None:
        self.op(0)

    def op(self, i: int) -> OpResult:
        row = harness.run_scenario(self.scenarios[i % self.cycle], self.global_seed, i)
        report = json.loads(harness.report_json([row], self.global_seed, self.name))
        return OpResult(row.trials, row_ok(row) and report["all_passed"], row.simulated_probability_mean)


class HaarFull:
    """One op is a single-trial row: fresh Haar unitary at N = 64, full measurement."""

    name = "haar-full-n64"
    dims = "64"
    cycle = exact_ops = 1

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        self.scenario, self.warm = parse_scenarios(
            [haar_full_scenario(self.name, 64), haar_full_scenario("warm-up-n8", 8)], self.seed
        )

    def warm_up(self) -> None:
        if not row_ok(harness.run_scenario(self.warm, self.seed, 0)):
            raise RuntimeError("warm-up row failed its checks")

    def op(self, i: int) -> OpResult:
        row = harness.run_scenario(self.scenario, self.seed, i)
        return OpResult(1, row_ok(row), row.simulated_probability_mean)


class StoredProgram:
    """One program synthesized at set-up; one op feeds it a fresh data state."""

    name = "stored-program-n64"
    dims = "64"
    dim = 64
    cycle = 1
    exact_ops = 16

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 0])
        self.operator = sampling.random_unitary(self.dim, rng)
        self.program = programs.program_from_expansion(programs.hs_expand(self.operator))
        self.meas = programs.measurement_full(self.dim)
        self.network = processor.QuditShiftNetwork(self.dim)

    def warm_up(self) -> None:
        self.op(0)

    def op(self, i: int) -> OpResult:
        psi = sampling.random_state(self.dim, 1, np.random.default_rng([self.seed, 1, i]))
        joint = processor.apply_processor(self.network, psi, self.program.state)
        oracle = postselect.oracle_apply(self.operator, psi)
        outcome = postselect.post_select(joint, self.meas, oracle)
        pred = postselect.predicted_probability(self.operator, psi, "full")
        p = outcome.probability
        ok = (
            abs(p - pred) <= TOL
            and abs(p - 1.0 / self.dim**2) <= TOL
            and outcome.oracle_fidelity >= 1.0 - TOL
        )
        return OpResult(1, ok, p)


WORKLOADS = {w.name: w for w in (PaperClaims, HaarFull, StoredProgram)}


@dataclass
class Window:
    latencies: list[float]  # wall seconds per op
    ref_latencies: list[float]  # reference seconds per op (see refclock)
    results: list[OpResult]

    @property
    def verified_trials(self) -> int:
        return sum(r.trials for r in self.results if r.ok)

    @property
    def failed(self) -> int:
        return sum(not r.ok for r in self.results)

    @property
    def trials_per_s(self) -> float:
        return self.verified_trials / sum(self.latencies)

    @property
    def trials_per_ref_s(self) -> float:
        return self.verified_trials / sum(self.ref_latencies)


def run_window(workload, seconds: float, tracer: Tracer | None = None) -> Window:
    """Closed loop of ops for `seconds`, ending on a whole cycle of the workload.

    The reference loop runs before the first op and after each op, outside
    their timing. An op's CPU time is converted to reference seconds with the
    mean of the two loops that bracket it.
    """
    latencies, cpu_latencies, loops, results = [], [], [refclock.loop_seconds()], []
    start = perf_counter()
    i = 0
    while True:
        t0, c0 = perf_counter(), process_time()
        try:
            with tracer.op(i) if tracer else contextlib.nullcontext():
                res = workload.op(i)
        except Exception as exc:  # a raising op is a failed op, not a crashed run
            res = OpResult(0, False, math.nan, f"{type(exc).__name__}: {exc}")
        cpu_latencies.append(process_time() - c0)
        latencies.append(perf_counter() - t0)
        loops.append(refclock.loop_seconds())
        results.append(res)
        if res.note:
            print(f"op {i} raised {res.note}", file=sys.stderr)
        i += 1
        if i >= workload.exact_ops and i % workload.cycle == 0 and perf_counter() - start >= seconds:
            break
    ref_latencies = [
        refclock.to_ref(cpu, (before + after) / 2)
        for cpu, before, after in zip(cpu_latencies, loops, loops[1:])
    ]
    return Window(latencies, ref_latencies, results)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, seconds: float) -> dict:
    setups = []
    for _ in range(SETUP_REPS):
        c0 = process_time()
        workload.setup()
        workload.warm_up()
        setups.append(refclock.to_ref(process_time() - c0, refclock.loop_seconds()))
    win = run_window(workload, seconds)
    cycle = workload.cycle
    # One cycle visits every kind of op once (13 rows on paper-claims), so the
    # sum of per-position medians is a median cycle.
    cycle_s = sum(statistics.median(win.ref_latencies[k::cycle]) for k in range(cycle))
    trials_per_cycle = win.verified_trials * cycle / len(win.results)
    ms = [t * 1e3 for t in win.latencies]
    attempted = len(win.results)
    return {
        "correct": win.failed == 0,
        "attempted": attempted,
        "failed": win.failed,
        "metrics": {
            "trials_per_ref_s": metric(trials_per_cycle / cycle_s, "1/s"),
            "op_ref_ms_p50": metric(statistics.median(win.ref_latencies) * 1e3, "ms"),
            # run.py adds the median import time to this in-process part.
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        },
        "extra": {
            "ops": attempted,
            "verified_trials": win.verified_trials,
            "failed_fraction": win.failed / attempted,
            "trials_per_s": win.trials_per_s,
            "op_ms_p50": statistics.median(ms),
            "op_ms_p90": statistics.quantiles(ms, n=10)[8] if attempted >= 100 else None,
            "setup_in_process_ref_s": setups,
        },
    }


def run_ladder(seed: int, tracer: Tracer) -> bool:
    scenarios = parse_scenarios([haar_full_scenario(f"ladder-n{n}", n) for n, _ in LADDER], seed)
    ok = True
    op_id = 0
    for scn, (_, reps) in zip(scenarios, LADDER):
        for _ in range(reps):
            with tracer.op(op_id):
                ok = row_ok(harness.run_scenario(scn, seed, op_id)) and ok
            op_id += 1
    return ok


def run_cli(seed: int) -> tuple[float, bool]:
    report = OUT_DIR / f"cli-report-seed{seed}.json"
    argv = ["run", "--config", "paper-claims", "--seed", str(seed), "--out", str(report)]
    t0 = perf_counter()
    with contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    elapsed = perf_counter() - t0
    ok = rc == 0 and json.loads(report.read_text("utf-8"))["all_passed"]
    report.unlink(missing_ok=True)
    return elapsed, ok


def log_log_slope(points) -> float:
    """Least-squares slope of log(time) against log(N)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


class SpanStats:
    """Per-layer numbers from a finished trace."""

    # A per-call time comes from the first scope that called the function:
    # the timed ops, else the traced set-up, else the ladder and the CLI run.
    SCOPES = (("ops",), ("setup",), ("ladder", "cli"))

    def __init__(self, tracer: Tracer, workload, window: Window):
        self.spans = tracer.spans
        self.selfs = tracer.self_times()
        self.scope_used: dict[str, str] = {}
        exact_ops = range(workload.exact_ops)
        self.exact = [
            i for i, s in enumerate(self.spans) if s.section == "ops" and s.op_id in exact_ops
        ]
        self.exact_trials = sum(window.results[i].trials for i in exact_ops)
        self.exact_ops = workload.exact_ops

    def ms_per_call(self, name: str, self_time: bool = False) -> float:
        for scope in self.SCOPES:
            idx = [i for i, s in enumerate(self.spans) if s.name == name and s.section in scope]
            if idx:
                self.scope_used[name] = "+".join(scope)
                times = [self.selfs[i] if self_time else self.spans[i].duration for i in idx]
                return statistics.fmean(times) * 1e3
        raise RuntimeError(f"no span of {name} anywhere in the traced run")

    def exact_calls(self, name: str) -> list[int]:
        """Indices of `name` spans in the fixed sample of the first ops."""
        return [i for i in self.exact if self.spans[i].name == name]

    def cost_order(self, name: str) -> float:
        points = []
        for dim, _ in LADDER:
            times = [
                s.duration for s in self.spans if s.section == "ladder" and s.name == name and s.dim == dim
            ]
            points.append((dim, statistics.median(times)))
        return log_log_slope(points)

    def shares(self) -> dict[str, float]:
        ops = [i for i, s in enumerate(self.spans) if s.section == "ops"]
        total = sum(self.spans[i].duration for i in ops if self.spans[i].name == OP_SPAN)
        self_by_module = Counter()
        for i in ops:
            self_by_module[self.spans[i].module] += self.selfs[i]
        return {m: self_by_module[m] / total for m in MODULES}


def op_signatures(spans, workload) -> bool:
    """Whether every op made the same calls as its counterpart in the first cycle."""
    per_op: dict[int, Counter] = {}
    for s in spans:
        if s.section == "ops":
            per_op.setdefault(s.op_id, Counter())[s.name] += 1
    return all(calls == per_op[op_id % workload.cycle] for op_id, calls in per_op.items())


def source_fingerprint() -> str:
    digest = hashlib.sha256()
    files = sorted((ROOT / "src" / "quditproc").rglob("*")) + sorted(BENCH_DIR.glob("*.py"))
    for path in files:
        if path.suffix in (".py", ".json"):
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def exact_values_repeat(workload_name: str, seed: int, values: dict) -> bool:
    """Compare exact counts with the last traced run of this seed and source."""
    path = OUT_DIR / f"exact-{workload_name}-seed{seed}.json"
    record = {"fingerprint": source_fingerprint(), "values": values}
    same = True
    if path.exists():
        before = json.loads(path.read_text("utf-8"))
        same = before["fingerprint"] != record["fingerprint"] or before["values"] == values
    path.write_text(json.dumps(record, indent=1) + "\n", "utf-8")
    return same


def per_layer(workload, seed: int, seconds: float) -> dict:
    tracer = Tracer()
    with tracer.installed():
        workload.setup()
    workload.warm_up()
    # Two half windows keep a traced run about as long as an untraced one.
    untraced = run_window(workload, seconds / 2)
    with tracer.installed():
        tracer.section = "ops"
        traced = run_window(workload, seconds / 2, tracer)
        tracer.section = "ladder"
        ladder_ok = run_ladder(seed, tracer)
        tracer.section = "cli"
        cli_s, cli_ok = run_cli(seed)
    tracer.write_jsonl(OUT_DIR / f"trace-{workload.name}-seed{seed}.jsonl")

    st = SpanStats(tracer, workload, traced)
    spans = st.spans
    bell = st.exact_calls("gates.bell_basis_matrix")
    network = st.exact_calls("processor.apply_processor")
    exact_p = sum(traced.results[i].p_success * traced.results[i].trials for i in range(st.exact_ops))
    exact = {
        "programs.hs_expand.calls_per_trial": metric(
            len(st.exact_calls("programs.hs_expand")) / st.exact_trials, "count"
        ),
        "gates.bell_basis_matrix.calls_per_trial": metric(len(bell) / st.exact_trials, "count"),
        # Computed, not measured: one N^2 x N^2 complex128 matrix per call.
        "gates.bell_basis_matrix.bytes_per_trial": metric(
            sum(16 * spans[i].dim ** 4 for i in bell) / st.exact_trials, "B"
        ),
        "gates.conditional_shift.calls_per_op": metric(
            len(st.exact_calls("gates.conditional_shift")) / st.exact_ops, "count"
        ),
        # Computed, not measured: 4 gates, each reading and writing N^3 complex128.
        "processor.bytes_per_op": metric(
            sum(4 * 2 * 16 * spans[i].dim ** 3 for i in network) / st.exact_ops, "B"
        ),
        "postselect.p_success_mean": metric(exact_p / st.exact_trials, "ratio"),
        "postselect.annihilated_count": metric(
            sum(spans[i].error == "StateAnnihilatedError" for i in st.exact_calls("postselect.oracle_apply")),
            "count",
        ),
    }
    repeats = op_signatures(spans, workload) and exact_values_repeat(
        workload.name, seed, {k: v["value"] for k, v in exact.items()}
    )
    if not repeats:
        print("exact counts differ between ops or from an earlier run of this seed", file=sys.stderr)

    metrics = {
        "harness.run_scenario.self_ms_per_row": metric(st.ms_per_call("harness.run_scenario", True), "ms"),
        "harness.build_operator.ms_per_call": metric(st.ms_per_call("harness.build_operator"), "ms"),
        "sampling.random_unitary.ms_per_call": metric(st.ms_per_call("sampling.random_unitary"), "ms"),
        "sampling.random_state.ms_per_call": metric(st.ms_per_call("sampling.random_state"), "ms"),
        "programs.hs_expand.ms_per_call": metric(st.ms_per_call("programs.hs_expand"), "ms"),
        "programs.program_from_expansion.ms_per_call": metric(
            st.ms_per_call("programs.program_from_expansion"), "ms"
        ),
        "programs.measurement_full.ms_per_call": metric(st.ms_per_call("programs.measurement_full"), "ms"),
        "programs.measurement_restricted.ms_per_call": metric(
            st.ms_per_call("programs.measurement_restricted"), "ms"
        ),
        "programs.cost_order": metric(st.cost_order("programs.program_from_expansion"), "exponent"),
        "gates.bell_basis_matrix.ms_per_call": metric(st.ms_per_call("gates.bell_basis_matrix"), "ms"),
        "gates.conditional_shift.ms_per_call": metric(st.ms_per_call("gates.conditional_shift"), "ms"),
        "processor.apply_processor.ms_per_call": metric(st.ms_per_call("processor.apply_processor"), "ms"),
        "processor.cost_order": metric(st.cost_order("processor.apply_processor"), "exponent"),
        "registers.tensor.ms_per_call": metric(st.ms_per_call("registers.tensor"), "ms"),
        "registers.partial_inner_product.ms_per_call": metric(
            st.ms_per_call("registers.partial_inner_product"), "ms"
        ),
        "postselect.run_experiment.self_ms_per_call": metric(
            st.ms_per_call("postselect.run_experiment", True), "ms"
        ),
        "postselect.post_select.ms_per_call": metric(st.ms_per_call("postselect.post_select"), "ms"),
        "postselect.oracle_apply.ms_per_call": metric(st.ms_per_call("postselect.oracle_apply"), "ms"),
        "postselect.predicted_probability.ms_per_call": metric(
            st.ms_per_call("postselect.predicted_probability"), "ms"
        ),
        "cli.paper_claims_run_s": metric(cli_s, "s"),
        "trace.overhead_ratio": metric(traced.trials_per_ref_s / untraced.trials_per_ref_s, "ratio"),
        **exact,
    }
    metrics.update({f"{m}.share": metric(v, "ratio") for m, v in st.shares().items()})
    failed = untraced.failed + traced.failed + (not ladder_ok) + (not cli_ok)
    attempted = len(untraced.results) + len(traced.results) + sum(r for _, r in LADDER) + 1
    return {
        "correct": failed == 0 and repeats,
        "attempted": attempted,
        "failed": failed,
        "metrics": dict(sorted(metrics.items())),
        "extra": {
            "ops_traced": len(traced.results),
            "ops_untraced": len(untraced.results),
            "spans": len(spans),
            "exact_sample_ops": st.exact_ops,
            "exact_values_repeat": repeats,
            "per_call_scope": st.scope_used,
        },
    }


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        result = per_layer(workload, args.seed, args.seconds)
    else:
        result = end_to_end(workload, args.seconds)
    result["workload"] = workload.name
    result["dims"] = workload.dims
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
