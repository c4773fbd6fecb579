"""Repository benchmark: Amoeba training, evaluation and serving.

Run from the repository root::

    python3 perfbench/run.py --workload train-features --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

``--workload`` is one of ``train-features``, ``train-neural``,
``train-sharded`` or ``all`` (each workload in its own child process, so
``peak_rss_mb`` is per workload).  ``--seed`` makes every input: datasets,
censor fits, agent initialisation and serving schedules.  ``--seconds`` is
the measuring time of one workload.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs every training round a second time with
per-layer wrappers and prints the per-layer metrics, a self-time table and
the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every correctness check passed.  Full records (host fingerprint,
quality figures, query counts) are written under ``.bench_build/results``
and traced spans under ``.bench_build/traces``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

# Pin every thread pool to one thread before numpy loads: train-sharded runs
# two worker processes and must not oversubscribe a two-core host.  Sharded
# collection always uses the fork transport, whatever the caller's
# ``REPRO_TRANSPORT``.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "REPRO_NN_THREADS": "1",
    "REPRO_NN_BACKEND": "blocked",
    "REPRO_NN_KERNEL_CACHE": os.path.join(BUILD, "kernels"),
    "REPRO_TRANSPORT": "fork",
}
# Removed before repro loads: REPRO_TELEMETRY would switch repro.obs on at
# import (untraced runs would be timed with telemetry on), and
# REPRO_TELEMETRY_PORT would start a scrape endpoint in every server.
UNSET_ENV = ("REPRO_TELEMETRY", "REPRO_TELEMETRY_PORT", "REPRO_TRANSPORT_HEARTBEAT")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _warm_kernels():
    """Compile or load the nn kernels before any timing; report a cache hit."""
    from repro import nn

    cache = PINNED_ENV["REPRO_NN_KERNEL_CACHE"]
    before = set(os.listdir(cache)) if os.path.isdir(cache) else set()
    nn.compiled_kernel_available()
    nn.fused_cells_available()
    after = set(os.listdir(cache)) if os.path.isdir(cache) else set()
    return not (after - before)


def _fingerprint(cache_hit: bool):
    import platform

    import numpy as np
    from repro import nn

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "backend": nn.active_backend().describe(),
        "kernel_cache_hit": cache_hit,
        "transport": os.environ["REPRO_TRANSPORT"],
        "pinned": {key: os.environ[key] for key in PINNED_ENV},
        "unset": list(UNSET_ENV),
    }


def _peak_rss_mb() -> float:
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _format(value: float) -> str:
    return f"{value:.6g}"


def _print_table(record, spec, gated, per_layer) -> None:
    print(f"== {record['workload']}  seed={record['seed']}  rounds={record['rounds']}")
    host = record["host"]
    print(
        f"   host: nproc={host['nproc']} python={host['python']} numpy={host['numpy']} "
        f"blas={host['blas']} sha={host['git_sha'][:12]} "
        f"kernel={host['backend'].get('kernel')} kernel_error={host['backend'].get('kernel_error')} "
        f"cache_hit={host['kernel_cache_hit']} transport={host['transport']}"
    )
    spreads = record["spreads"]
    print(f"   {'metric':<30}{'value':>14}  {'unit':<12}{'q1':>12}{'q3':>12}{'n':>4}  gated")
    for name in spec.END_TO_END:
        value = record["end_to_end"][name]
        spread = spreads.get(name)
        q = (
            f"{_format(spread['q1']):>12}{_format(spread['q3']):>12}{spread['n']:>4}"
            if spread
            else f"{'':>12}{'':>12}{'':>4}"
        )
        unit = gated.get(name) or per_layer[name]
        print(f"   {name:<30}{_format(value):>14}  {unit:<12}{q}  {'yes' if name in gated else 'no'}")
    raw = "  ".join(f"{name}={_format(value)}" for name, value in record["raw_wall_clock"].items())
    print(f"   throughputs and setup_s are in host-normalised seconds; raw wall clock: {raw}")
    tally = record["tally"]
    print(f"   attempted={tally.attempted} failed={tally.failed} checks={'ok' if not tally.errors else 'FAILED'}")
    for error in tally.errors:
        print(f"   ! {error}")


def _run_all(args) -> int:
    import subprocess

    import spec

    status = 0
    for name in spec.WORKLOADS:
        command = [
            sys.executable,
            os.path.abspath(__file__),
            "--workload",
            name,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
        ]
        completed = subprocess.run(command, cwd=ROOT)
        status = status or completed.returncode
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: {os.path.join(ROOT, 'src', 'repro')} not found; run from a repository checkout", file=sys.stderr)
        return 2
    for key, value in PINNED_ENV.items():
        os.environ[key] = value
    for key in UNSET_ENV:
        os.environ.pop(key, None)
    if args.workload == "all":
        return _run_all(args)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import spec

    if args.workload not in spec.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(spec.WORKLOADS)} or all", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)

    gated, per_layer = spec.load_metrics()
    cache_hit = _warm_kernels()
    import layers
    import workloads

    record = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace), os.path.join(BUILD, "results")
    )
    record["host"] = _fingerprint(cache_hit)
    tally = record["tally"]
    correct = record["complete"] and not tally.errors
    if record["complete"]:
        record["end_to_end"]["peak_rss_mb"] = _peak_rss_mb()
        _print_table(record, spec, gated, per_layer)

    metrics = {}
    if record["complete"] and args.trace:
        recorder = record.pop("recorder")
        values = layers.per_layer_metrics(recorder, record.pop("extra"))
        values.update({name: record["end_to_end"][name] for name in per_layer if name in record["end_to_end"]})
        trace_path = os.path.join(BUILD, "traces", f"{args.workload}-seed{args.seed}.jsonl")
        recorder.write_jsonl(trace_path)
        print(
            f"   per-layer self time (traced wall {recorder.wall_s:.2f} s; "
            f"{len(recorder.spans)} spans in {os.path.relpath(trace_path, ROOT)}, "
            f"{recorder.dropped} over the in-memory cap not kept):"
        )
        for line in recorder.self_time_table().splitlines():
            print("   " + line)
        print(f"   obs.trace_overhead_share={_format(values['obs.trace_overhead_share'])}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in per_layer.items()}
    elif record["complete"]:
        metrics = {
            name: {"value": record["end_to_end"][name], "unit": unit} for name, unit in gated.items()
        }
    elif tally.errors:
        for error in tally.errors:
            print(f"! {error}")

    record["tally"] = {"attempted": tally.attempted, "failed": tally.failed, "errors": tally.errors}
    result_path = os.path.join(
        BUILD, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(result_path, "w") as handle:
        json.dump(record, handle, indent=1, default=str)
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(max(1, tally.attempted)),
                "failed": int(tally.failed),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
