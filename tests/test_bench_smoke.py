"""Smoke runs of the benchmark script, one second per workload and mode.

Opt-in: ``pyproject.toml`` deselects the ``bench`` marker, so run them with
``python -m pytest -m bench tests/test_bench_smoke.py``.  The traced mode is
the only one that swaps library attributes (``bench/tracing.py``) and calls
``cli.main`` in-process, so a broken tracer contract shows up only there.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
METRICS = {
    0: {metric["name"] for metric in SPEC["end_to_end"]},
    1: {metric["name"] for metric in SPEC["per_layer"]},
}


def _refuse_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@pytest.mark.bench
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_bench_run_ends_with_a_correct_result_line(workload, trace):
    argv = [sys.executable, *SPEC["command"][1:], "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    assert lines, done.stderr[-2000:]
    result = json.loads(lines[-1], parse_constant=_refuse_constant)
    assert result["correct"] is True, result
    assert set(result["metrics"]) == METRICS[trace]
    assert len(METRICS[0]) == 7 and len(METRICS[1]) == 51
