"""Runs one workload's ops against wikivote.cli.main as a closed loop with one client.

Started by run.py in a fresh interpreter, so the process that runs the ops
has imported only the program (and, with tracing on, the tracer): its peak
RSS is the program's. Usage:

    python3 bench/worker.py SPEC.json RESULT.json

SPEC names the source tree, the op cycle, the time budget and whether to
trace. Each op starts only after the previous one returns. Ops run in whole
cycles until the budget is spent. Every op's outputs are hashed, and a hash
that differs from the first one seen for the same command counts as a failure.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def run_op(cli, op: dict) -> tuple[float, str | None, str]:
    """One cli.main call: (seconds, failure or None, digest of stdout and output files)."""
    sink_out, sink_err = io.StringIO(), io.StringIO()
    failure = None
    with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
        start = time.perf_counter()
        try:
            code = cli.main(op["argv"])
        except SystemExit as exc:  # argparse usage errors exit through SystemExit
            code = exc.code
        except Exception as exc:
            code = None
            failure = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    if failure is None and code != 0:
        failure = f"exit {code}: {sink_err.getvalue().strip()[-300:]}"
    digest = hashlib.sha256(sink_out.getvalue().encode())
    for path in op["outputs"]:
        try:
            digest.update(Path(path).read_bytes())
        except OSError as exc:
            failure = failure or f"missing output {path}: {exc}"
    return elapsed, failure, digest.hexdigest()


class Loop:
    """Closed-loop runner: latencies, failures and output digests per op.

    Every op run is attempted and may fail, warm-up included; only timed ops
    add to the latencies, rows and busy time.
    """

    def __init__(self, cli, ops: list[dict]):
        self.cli = cli
        self.ops = ops
        self.latencies: list[float] = []
        self.cycle_rates: list[float] = []
        self.commands: list[str] = []
        self.failed_ops: list[bool] = []
        self.failures: list[str] = []
        self.rows = 0
        self.busy_s = 0.0
        self.reference: dict[str, str] = {}

    def op(self, op: dict, *, timed: bool = True) -> None:
        elapsed, failure, digest = run_op(self.cli, op)
        first = self.reference.setdefault(op["command"], digest)
        if failure is None and digest != first:
            failure = "output differs from the first repetition"
        self.commands.append(op["command"])
        self.failed_ops.append(failure is not None)
        if failure:
            self.failures.append(f"{op['command']}: {failure}")
        if timed:
            self.latencies.append(elapsed)
            self.rows += op["rows"]
            self.busy_s += elapsed

    def cycles(self, seconds: float, on_cycle=None) -> list[float]:
        """Run whole cycles until `seconds` have passed (at least one); return cycle times.

        Each cycle also adds its rows per busy second to cycle_rates.
        """
        times = []
        deadline = time.perf_counter() + seconds
        while not times or time.perf_counter() < deadline:
            start, rows, busy = time.perf_counter(), self.rows, self.busy_s
            for op in self.ops:
                self.op(op)
            times.append(time.perf_counter() - start)
            self.cycle_rates.append((self.rows - rows) / (self.busy_s - busy))
            if on_cycle:
                on_cycle()
        return times


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    from wikivote import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported wikivote from {cli.__file__}, not from {src}")

    loop = Loop(cli, spec["ops"])
    # one untimed op finishes lazy set-up and warms the page cache for the inputs;
    # a whole untimed cycle would add seconds to every run of the larger workloads
    loop.op(loop.ops[0], timed=False)

    result: dict = {}
    if spec["trace"]:
        import tracer  # from bench/, the script's own directory on sys.path

        result["trace"] = tracer.traced_run(loop, spec)
    else:
        loop.cycles(spec["seconds"])
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(latencies=loop.latencies, cycle_rates=loop.cycle_rates, commands=loop.commands,
                  failed_ops=loop.failed_ops, failures=loop.failures)
    Path(argv[1]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
