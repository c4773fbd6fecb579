"""Workload shapes and scale constants shared by the runner and the smoke test.

Metric units and directions live only in ``BENCHMARK.json``: its
``end_to_end`` list is what the untraced run reports (the gated metrics),
its ``per_layer`` list what the traced run reports.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional, Tuple

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")

# Bench scale: the ``REPRO_BENCH_SCALE=small`` shapes of benchmarks/conftest.py.
DATASET_FLOWS = 72
MAX_PACKETS = 32
CENSOR_EPOCHS = 8
AMOEBA_TIMESTEPS = 800
FAST_AGENT_OVERRIDES = dict(
    n_envs=2,
    rollout_length=32,
    encoder_hidden=16,
    actor_hidden=(32, 16),
    critic_hidden=(32, 16),
)

# name -> (dataset, censors, n_envs, workers); BENCHMARK.json says why each exists.
WORKLOADS: Dict[str, Tuple[str, Tuple[str, ...], int, Optional[int]]] = {
    "train-features": ("tor", ("DT", "RF", "CUMUL"), 2, None),
    "train-neural": ("v2ray", ("SDAE", "DF", "LSTM"), 2, None),
    "train-sharded": ("tor", ("DT",), 4, 2),
}

# The eleven end-to-end metrics, in the order the table prints them.  Those
# not in BENCHMARK.json's ``end_to_end`` list are ungated and reported by
# the traced run with the per-layer metrics (perfbench/README.md says why).
END_TO_END = (
    "setup_s",
    "train_timesteps_per_s",
    "eval_flows_per_s",
    "eval_asr",
    "eval_data_overhead",
    "eval_time_overhead",
    "serve_decisions_per_s",
    "serve_packet_latency_p50_ms",
    "serve_packet_latency_p99_ms",
    "serve_max_rate_pps",
    "peak_rss_mb",
)


def load_metrics() -> Tuple[Dict[str, str], Dict[str, str]]:
    """``(gated, per_layer)``: metric name -> unit, from BENCHMARK.json."""
    with open(BENCHMARK_JSON) as handle:
        benchmark = json.load(handle)
    gated = {metric["name"]: metric["unit"] for metric in benchmark["end_to_end"]}
    per_layer = {metric["name"]: metric["unit"] for metric in benchmark["per_layer"]}
    return gated, per_layer
