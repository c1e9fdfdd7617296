"""The wikivote benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload panel_fit --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout (it needs src/wikivote).
Inputs are generated from --seed before anything is timed, then a fresh
worker process drives wikivote.cli.main in-process as a closed loop with one
client for --seconds, in whole cycles of the workload's op sequence. The
outputs are checked against independent oracles, and the last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}, with the
metric names and units of BENCHMARK.json. The line before it records the
machine, the CPU time the host took from the VM while the worker ran, input
sizes, the tail percentile and sample count, and any failures. Every spawned
interpreter runs with BLAS_THREADS OpenBLAS threads.

--trace 0 reports the end-to-end metrics (tracing off):
  setup_s      median wall time of fresh interpreters that import wikivote.cli
               and call build_parser(): SETUP_SPAWNS spawns, half before the
               worker runs and half after it
  rows_per_s   input rows handled per second inside cli.main (page-view and
               party rows read): the median over whole cycles of the
               workload's ops, so one stalled op does not set it
  op_p50_ms    median latency of one cli.main call
  op_tail_ms   latency at the highest percentile with at least ten samples
               above it; with fewer than 21 samples that percentile would fall
               under the median, so the median is reported instead
  peak_rss_mb  peak RSS of the worker, which imports neither scipy nor the tracer
--trace 1 reports the per-layer metrics of tracer.py, per cycle of ops, plus
the setup.* import split from `python -X importtime`.

Failed ops (non-zero exit, exception, output that changes between
repetitions or fails its oracle) count in "failed". error_rate, failed /
attempted, is in the details line rather than in metrics, because it is 0
whenever the program is correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads  # bench/ is sys.path[0]

HERE = Path(__file__).resolve().parent

SETUP_SPAWNS = 8
IMPORTTIME_SPAWNS = 3
WORKER_DEADLINE_S = 150.0  # leaves time for the oracles inside the 180 s limit
SETUP_CODE = "import wikivote.cli as c; c.build_parser()"
# On a small shared VM a BLAS call split over two threads waits for whichever vCPU the
# host has descheduled; with one thread, panel_fit's QR timings depend on one vCPU only.
BLAS_THREADS = "1"
IMPORTS = {"numpy": "setup.import_numpy_s", "requests": "setup.import_requests_s",
           "wikivote": "setup.import_wikivote_s"}

# per-layer counts derived from argument sizes rather than observed inside the layer
COMPUTED_COUNTS = {
    "features.window_sums_from_series.days_scanned": "sum of len(series.daily) over window_views calls",
    "stats.householder_qr.bytes_computed": "8 * (m*m + m*k) for Q and R of an m x k design",
    "stats.householder_qr.flops_computed": "4 * m*m*k",
}


class BenchError(Exception):
    pass


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    return env


def load_spec() -> dict:
    """BENCHMARK.json, beside bench/: the workloads' reasons and the metrics' names and units."""
    return json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def time_setup(root: Path, spawns: int) -> list[float]:
    """Wall times of `spawns` fresh interpreters running SETUP_CODE."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    env = _env(root)
    times = []
    for _ in range(spawns):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=root, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return times


def measure_imports(root: Path) -> dict[str, float]:
    """Split the set-up import with `-X importtime`: cumulative seconds of numpy
    and of requests, and of the top-level wikivote imports without those two."""
    runs: dict[str, list[float]] = {name: [] for name in IMPORTS.values()}
    for _ in range(IMPORTTIME_SPAWNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", SETUP_CODE],
                              env=_env(root), cwd=root, check=True, timeout=60,
                              capture_output=True, text=True)
        seconds = dict.fromkeys(IMPORTS, 0.0)
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[1].strip().isdigit():
                continue
            name, cumulative = fields[2].strip(), int(fields[1]) / 1e6
            top_level = not fields[2].startswith("  ")
            if name in ("numpy", "requests"):
                seconds[name] = cumulative
            elif top_level and name.split(".")[0] == "wikivote":
                seconds["wikivote"] += cumulative
        seconds["wikivote"] -= seconds["numpy"] + seconds["requests"]
        for module, name in IMPORTS.items():
            runs[name].append(seconds[module])
    return {name: statistics.median(values) for name, values in runs.items()}


def host_steal_s() -> float | None:
    """CPU seconds the hypervisor has taken from this VM since boot (steal in /proc/stat),
    or None where that is not reported. Wall-time metrics include the share of it that
    fell on the worker."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def blas_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": blas.get("name"), "version": blas.get("version"),
            "worker_threads": int(BLAS_THREADS)}


def run_worker(root: Path, work: Path, w: workloads.Workload, args, budget: float) -> dict:
    spec = {
        "src": str(root / "src"),
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "ops": [vars(op) for op in w.ops],
    }
    spec_path, result_path = work / "spec.json", work / "result.json"
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
                            env=_env(root), cwd=root)
    try:
        code = proc.wait(timeout=budget)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not finish within {budget:.0f} s")
    if code != 0:
        raise BenchError(f"worker exited with {code}")
    return json.loads(result_path.read_text())


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples above it) for op_tail_ms: the highest percentile
    with at least ten samples above it, but never one below the median."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(n - 11, n // 2)
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    parser = argparse.ArgumentParser(description="wikivote benchmark (one run)")
    parser.add_argument("--workload", required=True, choices=list(why))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    root = Path.cwd()
    if not (root / "src" / "wikivote" / "cli.py").is_file():
        print(f"bench: {root} is not a wikivote source checkout (need src/wikivote)",
              file=sys.stderr)
        return 2

    work = root / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    w = workloads.build(args.workload, args.seed, work)

    # set-up spawns are split around the worker, so they sample the host at two moments
    per_layer = measure_imports(root) if args.trace else {}
    setup_times = []
    if not args.trace:
        time_setup(root, 1)  # untimed: fills the bytecode and page caches
        setup_times = time_setup(root, SETUP_SPAWNS // 2)

    steal_before = host_steal_s()
    result = run_worker(root, work, w, args, WORKER_DEADLINE_S - (time.perf_counter() - started))
    steal_after = host_steal_s()
    if not args.trace:
        setup_times += time_setup(root, SETUP_SPAWNS - SETUP_SPAWNS // 2)

    import oracle  # scipy stays out of every process that runs the program

    oracle_errors = oracle.check(w)
    op_failed = [bool(f) or bool(oracle_errors.get(c)) for c, f in
                 zip(result["commands"], result["failed_ops"])]
    attempted, failed = len(op_failed), sum(op_failed)

    details = {
        "workload": args.workload, "why": why[args.workload], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "loop": "closed, one client, cycles of: " + ", ".join(op.command for op in w.ops),
        "machine": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                    "blas": blas_info()},
        "host_steal_s_during_worker": (None if steal_before is None or steal_after is None
                                       else round(steal_after - steal_before, 2)),
        "inputs": w.sizes(),
        "error_rate": failed / attempted,
        "failures": (result["failures"][:10] +
                     [f"{c}: {e}" for c, errs in oracle_errors.items() for e in errs][:10]),
    }
    latencies = result["latencies"]
    if args.trace:
        trace = result["trace"]
        per_layer.update(trace["metrics"])
        # BENCHMARK.json lists one set of per-layer metrics for every workload; a layer this
        # workload never calls reads 0 and is named here, so it is not mistaken for a free one
        details["not_reached"] = [m["name"] for m in spec["per_layer"] if m["name"] not in per_layer]
        details["layer_failures"] = trace["failures"]
        details["trace_cycles"] = trace["cycles"]
        details["self_sum_ratio"] = trace["self_sum_ratio"]
        details["computed_counts"] = COMPUTED_COUNTS
        metrics = {m["name"]: {"value": per_layer.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        value, percentile, above = tail(latencies)
        details["op_tail"] = {"percentile": percentile, "samples": len(latencies),
                              "samples_above": above}
        details["setup_spawns"] = len(setup_times)
        values = {
            "setup_s": statistics.median(setup_times),
            "rows_per_s": statistics.median(result["cycle_rates"]),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_tail_ms": value * 1e3,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(1)
