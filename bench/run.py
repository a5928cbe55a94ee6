"""Benchmark of conjtoep: seeded workloads, checked verdicts, named metrics.

Run from the root of a checkout (the library is imported from ``src/``):

    python3 bench/run.py --workload scan-theorem --seed 1 --seconds 30 --trace 0

Workloads: scan-theorem, banded-equivalence, dense-padding, polydisc-box.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (never used for end-to-end figures).  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--self-test`` shows that the checks catch a
flipped verdict or a residual pushed across the threshold.

Load is a closed loop: one caller in one process issues decisions one after
another, in whole rounds, until ``--seconds`` have passed.  BLAS runs on one
thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
# One BLAS thread: the single caller's matrices are mostly below a few
# hundred rows, where a second thread made run-to-run latency unsteady
# (scan-theorem p90 3.7-8.8 ms over five runs with two threads, 3.5-3.7 ms
# with one, on 2 cores).
BLAS_THREADS = 1
BLAS_ENV = {name: str(BLAS_THREADS) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
WORKLOAD_NAMES = ("scan-theorem", "banded-equivalence", "dense-padding", "polydisc-box")
# Fresh processes per run behind setup_s and cli.cold_s; medians are reported.
PROBES = 7
# In-process replays of the cold command line, for cli.process_start_s.
CLI_REPLAYS = 3
CHILD_TIMEOUT = 60
TRACE_DIR = ROOT / ".bench_build"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.self_test:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def rng_for(seed: int, workload: str, *stream: int):
    import numpy as np

    return np.random.default_rng([seed, WORKLOAD_NAMES.index(workload), *stream])


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def setup_time(args) -> float:
    """Wall time from spawning a fresh process to its first possible
    decision: interpreter start, importing conjtoep, generating inputs."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
    start = perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe failed with exit code {code}")
    return ready


def cli_cold_time(argv, accept) -> tuple:
    """Wall time of a fresh ``python -m conjtoep.cli`` process, and whether
    it gave the expected exit code and report."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "conjtoep.cli", *argv],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT,
    )
    elapsed = perf_counter() - start
    try:
        payload = json.loads(proc.stdout)
    except json.JSONDecodeError:
        payload = {}
    return elapsed, accept(proc.returncode, payload)


class Probes:
    """Fresh-process measurements spread evenly over the run, taken between
    rounds, so that they sample the same machine conditions as the rounds."""

    def __init__(self, args, cli_argv, accept):
        self.args = args
        self.cli_argv = cli_argv
        self.accept = accept
        self.due = [args.seconds * (i + 0.5) / PROBES for i in range(PROBES)]
        self.setups = []
        self.cli = []
        self.cli_ok = True

    def run_due(self, elapsed: float) -> None:
        while self.due and self.due[0] <= elapsed:
            self.due.pop(0)
            self.setups.append(setup_time(self.args))
            seconds, ok = cli_cold_time(self.cli_argv, self.accept)
            self.cli.append(seconds)
            self.cli_ok = self.cli_ok and ok


def cli_replay_times(argv) -> list:
    import contextlib
    import io

    import conjtoep.cli as cli

    times = []
    for _ in range(CLI_REPLAYS):
        start = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
        times.append(perf_counter() - start)
    return times


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_rounds(workload, run, args, tracer, probes) -> tuple:
    """Whole rounds until ``--seconds`` have passed.  In a traced run every
    second round is traced, so traced and untraced rounds share conditions."""
    walls, traced_walls = [], []
    start = perf_counter()
    index = 0
    while index == 0 or perf_counter() - start < args.seconds or (tracer is not None and index < 3):
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
            tracer.rounds += 1
        run.round_wall = 0.0
        try:
            workload.round(run, rng_for(args.seed, args.workload, 0, index), index)
        finally:
            if traced:
                tracer.uninstall()
        (traced_walls if traced else walls).append(run.round_wall)
        index += 1
        probes.run_due(perf_counter() - start)
    probes.run_due(float("inf"))
    return walls, traced_walls


def metric(value, unit) -> dict:
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(BLAS_ENV)
    if not (SRC / "conjtoep" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC.relative_to(ROOT)}/conjtoep", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import conjtoep

    if Path(conjtoep.__file__).resolve().parent != SRC / "conjtoep":
        print("error: conjtoep was not imported from this checkout", file=sys.stderr)
        return 2
    import workloads

    if args.self_test:
        import selftest

        return selftest.main()
    workload = workloads.WORKLOADS[args.workload]()
    if args.setup_probe:
        workload.inputs(rng_for(args.seed, args.workload, 0, 0), 0)
        print("ready", flush=True)
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    run = workloads.Run(tracer)
    cli_argv = workload.cli_argv(rng_for(args.seed, args.workload, 1))
    probes = Probes(args, cli_argv, workload.cli_ok)
    walls, traced_walls = run_rounds(workload, run, args, tracer, probes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not probes.cli_ok:
        run.mismatch("cold conjtoep process gave an unexpected exit code or report")

    if tracer is not None:
        tracer.close()
        replay = cli_replay_times(cli_argv)
        tracer_extra = {
            # Round 0 carries one-off warm-up, so it is left out of the baseline.
            "trace_overhead": statistics.median(traced_walls) - statistics.median(walls[1:]),
            "cli_cold": statistics.median(probes.cli),
            "process_start": statistics.median(probes.cli) - statistics.median(replay),
        }
        metrics = tracer.metrics(tracer_extra)
        TRACE_DIR.mkdir(exist_ok=True)
        trace_path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        print(f"# spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    else:
        total = sum(walls)
        metrics = {
            "setup_s": metric(statistics.median(probes.setups), "s"),
            "wall_s": metric(statistics.median(walls), "s"),
            "decisions_per_s": metric(run.attempted / total, "1/s"),
            "decision_p50_ms": metric(1e3 * statistics.median(run.latencies), "ms"),
            "decision_p90_ms": metric(1e3 * percentile(run.latencies, 90), "ms"),
            "cold_decision_p50_ms": metric(1e3 * statistics.median(run.cold), "ms"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }

    facts = machine()
    facts.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    facts.update(rounds=len(walls) + len(traced_walls), decisions=len(run.latencies), cold_decisions=len(run.cold))
    print("# machine: " + json.dumps(facts))
    print("# fresh processes (s): setup " + " ".join(f"{t:.3f}" for t in probes.setups) + ", cli " + " ".join(f"{t:.3f}" for t in probes.cli))
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    for label in run.unexpected[:20]:
        print(f"# unexpected: {label}", file=sys.stderr)
    result = {
        "correct": not run.unexpected,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
