"""Smoke test of the benchmark itself: every workload at minimal length.

Run from the repository root (about three minutes)::

    python3 perfbench/smoke.py

For each workload it runs the benchmark untraced and traced with the same
seed and asserts that

* both exit 0 with every correctness check passed, and print as their last
  line one JSON object with exactly the keys ``correct``, ``attempted``,
  ``failed`` and ``metrics``;
* the untraced run prints every end-to-end metric of ``BENCHMARK.json`` and
  the traced run every per-layer metric, each with its unit;
* the traced and untraced runs agree exactly on ASR, data and time overhead
  and censor query counts, so the layer wrappers change no result.

It also checks that the benchmark fails, printing no result, in a directory holding only
``BENCHMARK.json`` and ``perfbench``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

sys.path.insert(0, HERE)
import spec  # noqa: E402


def _run(cwd: str, workload: str, trace: int):
    command = [
        sys.executable,
        os.path.join("perfbench", "run.py"),
        "--workload",
        workload,
        "--seed",
        str(SEED),
        "--seconds",
        "1",
        "--trace",
        str(trace),
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


def _result(completed) -> dict:
    assert completed.returncode == 0, completed.stdout[-2000:] + completed.stderr[-2000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS, result.keys()
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] == 0
    return result


def _assert_metrics(metrics: dict, expected: dict) -> None:
    assert set(metrics) == set(expected), set(metrics) ^ set(expected)
    for name, entry in metrics.items():
        assert entry["unit"] == expected[name], (name, entry)
        assert isinstance(entry["value"], float), (name, entry)


def check_bare_directory() -> None:
    """Without the sources the benchmark must fail and print no result."""
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        completed = _run(bare, next(iter(spec.WORKLOADS)), 0)
        assert completed.returncode != 0
        assert '"correct"' not in completed.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    end_to_end, per_layer = spec.load_metrics()
    check_bare_directory()
    for workload in spec.WORKLOADS:
        plain = _result(_run(ROOT, workload, 0))
        _assert_metrics(plain["metrics"], end_to_end)
        traced = _result(_run(ROOT, workload, 1))
        _assert_metrics(traced["metrics"], per_layer)

        records = []
        for trace in (0, 1):
            path = os.path.join(ROOT, ".bench_build", "results", f"{workload}-seed{SEED}-trace{trace}.json")
            with open(path) as handle:
                records.append(json.load(handle))
        assert records[0]["outcome"] == records[1]["outcome"], (records[0]["outcome"], records[1]["outcome"])
        print(f"ok  {workload}: {records[0]['outcome']}")
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
