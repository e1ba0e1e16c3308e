"""Closed-loop benchmark of spinreadout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload in turn

One client on one thread sends an operation, waits for it, checks its output
and sends the next, in whole rounds, until S seconds have passed.  With
--trace 0 the last line of stdout is a JSON object with the end-to-end
metrics named in BENCHMARK.json; with --trace 1 it holds the per-layer
metrics, taken on every other round with the tracer installed, and the
tracing overhead against the rounds in between.  The exit code is 0 when
every check passed, 1 when one failed, 2 when the program is missing.
See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Fresh interpreters measured per run for setup_s.  They run between rounds,
# spread over the run, so that setup_s sees the same swings in machine speed
# as the operations; one more runs first, unmeasured, so that every measured
# one finds bytecode and file caches warm.
SETUP_PROBES = 9
# Every end-to-end metric the table prints.  BENCHMARK.json bounds only the
# ones that stay steady on a host whose speed switches between two states
# (see README.md, "Steadiness"); the JSON line carries those.
END_TO_END_UNITS = {"setup_s": "s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
                    "work_per_s": "work/s", "peak_rss_mb": "MB"}
# BLAS and OpenMP pools held to one thread, in this process and its probes.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class SetupProbes:
    """Starts setup_probe.py in a fresh interpreter and keeps its wall time and phases."""

    def __init__(self, name, seed, run_dir, env):
        self.argv = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(run_dir)]
        self.env = env
        self.walls, self.phases = [], []

    def run(self, keep=True):
        start = time.perf_counter()
        proc = subprocess.run(self.argv, env=self.env, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        if keep:
            self.walls.append(wall)
            self.phases.append(json.loads(proc.stdout.splitlines()[-1]))

    def setup_s(self):
        return statistics.median(self.walls)

    def phase_medians(self):
        return {k: statistics.median(p[k] for p in self.phases) for k in self.phases[0]}


def check(workload, op, result, problems):
    from workloads import CheckFailed

    try:
        workload.check(op, result)
    except CheckFailed as exc:
        problems.append(str(exc))


def measure(workload, seconds, tracer, probes, problems):
    """Whole rounds until `seconds` have passed; with a tracer, odd rounds are
    traced.  Set-up probes run between rounds, evenly spread over the run."""
    # Compact arrays, so that peak_rss_mb does not grow with the number of operations.
    latencies = {False: array("q"), True: array("q")}
    work = {False: 0, True: 0}
    attempted = failed = 0
    start = time.perf_counter()
    round_index = 0
    while True:
        traced = tracer is not None and round_index % 2 == 1
        ops = workload.next_round()
        if traced:
            tracer.install()
        for op in ops:
            attempted += 1
            if traced:
                tracer.op_index += 1
            t0 = time.perf_counter_ns()
            try:
                result = workload.execute(op)
            except Exception as exc:  # an operation that fails is counted, not fatal
                failed += 1
                if failed <= 3:
                    print(f"operation failed: {exc!r}", file=sys.stderr)
                continue
            latencies[traced].append(time.perf_counter_ns() - t0)
            work[traced] += workload.work(op)
            check(workload, op, result, problems)
        if traced:
            tracer.uninstall()
        round_index += 1
        elapsed = time.perf_counter() - start
        if len(probes.walls) < SETUP_PROBES and elapsed >= (len(probes.walls) + 0.5) * seconds / SETUP_PROBES:
            probes.run()
        if elapsed >= seconds:
            break
    while len(probes.walls) < SETUP_PROBES:
        probes.run()
    return latencies, work, attempted, failed


def end_to_end(latencies_ns, work, setup_s):
    deciles = statistics.quantiles([t / 1e6 for t in latencies_ns], n=10, method="inclusive")
    return {
        "setup_s": setup_s,
        "latency_p50_ms": deciles[4],
        "latency_p90_ms": deciles[8],
        "work_per_s": work / (sum(latencies_ns) / 1e9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, latencies, work, ops, setup_phases):
    def per_call_us(name):
        calls = tracer.calls(name)
        return tracer.inclusive_ns(name) / calls / 1e3 if calls else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    nodes = work if tracer.calls("error_analysis.sweep_grid") else 0
    shots = work if tracer.calls("montecarlo.sample_readout") else 0
    untraced, traced = statistics.median(latencies[False]), statistics.median(latencies[True])
    return {
        "setup.import_numpy_ms": setup_phases["import_numpy_ms"],
        "setup.import_spinreadout_ms": setup_phases["import_spinreadout_ms"],
        "setup.first_op_ms": setup_phases["first_op_ms"],
        "cli.main_self_ms": ratio(tracer.self_ns("cli.main") / 1e6, tracer.calls("cli.main")),
        "cli.grid_to_csv_us_per_node": ratio(tracer.inclusive_ns("cli.grid_to_csv") / 1e3, nodes),
        "error_analysis.sweep_grid_us_per_node":
            ratio(tracer.inclusive_ns("error_analysis.sweep_grid") / 1e3, nodes),
        "error_analysis.avg_abs_error_calls_per_node":
            ratio(tracer.calls("error_analysis.avg_abs_error"), nodes),
        "error_analysis.avg_abs_error_us": per_call_us("error_analysis.avg_abs_error"),
        "error_analysis.probabilities_closed_form_us":
            per_call_us("error_analysis.probabilities_closed_form"),
        "error_analysis.extremal_error_us": per_call_us("error_analysis.extremal_error"),
        "error_analysis.measurement_error_calls_per_query":
            ratio(tracer.calls("error_analysis.measurement_error"), ops),
        "protocol.run_readout_us": per_call_us("protocol.run_readout"),
        "protocol.noisy_sequence_us": per_call_us("protocol.noisy_sequence"),
        "protocol.noisy_sequence_calls_per_op": ratio(tracer.calls("protocol.noisy_sequence"), ops),
        "core.compose_us": per_call_us("core.compose"),
        "core.apply_us": per_call_us("core.apply"),
        "montecarlo.sample_readout_ns_per_shot":
            ratio(tracer.inclusive_ns("montecarlo.sample_readout"), shots),
        "trace.overhead_pct": (traced / untraced - 1.0) * 100.0,
    }


def run_one(args, spec):
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    import spinreadout
    if Path(spinreadout.__file__).resolve().parent != SRC / "spinreadout":
        print(f"error: imported spinreadout from {spinreadout.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import WORKLOADS, CheckFailed

    run_dir = OUT / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, run_dir)
        probes = SetupProbes(args.workload, args.seed, run_dir, env)
        probes.run(keep=False)
        tracer = Tracer() if args.trace else None
        problems = []
        warm_up = workload.next_round()[0]
        check(workload, warm_up, workload.execute(warm_up), problems)
        gc.collect()
        latencies, work, attempted, failed = measure(workload, args.seconds, tracer, probes, problems)
        if args.trace:
            metrics = per_layer(tracer, latencies, work[True], len(latencies[True]), probes.phase_medians())
            (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(tracer.dump()))
        else:
            metrics = end_to_end(latencies[False], work[False], probes.setup_s())
        try:
            workload.finish()
        except CheckFailed as exc:
            problems.append(str(exc))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for problem in problems[:10]:
        print(f"check failed: {problem}", file=sys.stderr)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    printed = {m["name"]: m["unit"] for m in spec["per_layer"]} if args.trace else END_TO_END_UNITS
    if set(metrics) != set(printed) or any(printed.get(n) != u for n, u in declared.items()):
        raise RuntimeError("metrics out of step with BENCHMARK.json")
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"work unit: {workload.unit_of_work}")
    for name, unit in printed.items():
        note = "" if name in declared else "  (printed, not bounded)"
        print(f"{args.workload:16s} {name:48s} {metrics[name]:14.6g} {unit}{note}")
    print(f"{args.workload:16s} {'attempted':48s} {attempted:14d}")
    print(f"{args.workload:16s} {'failed':48s} {failed:14d}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def run_all(args, spec):
    """Each workload in its own process, so that peak_rss_mb stays its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode == 2 or not lines:
            return proc.returncode or 2
        status = max(status, proc.returncode)
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "spinreadout" / "__init__.py").is_file():
        print(f"error: no spinreadout sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
