"""Per-layer tracing for the traced benchmark run.

Every layer is treated as a black box: the benchmark replaces public
functions and methods of ``repro`` modules with timing wrappers for the
duration of a traced phase and restores the originals afterwards.  Nothing
inside ``src/`` is instrumented.  Spans are kept in memory (name, start,
end, parent) and written out as JSONL when the run ends; a layer's self time
is its spans' durations minus the time covered by their child spans.

Two wrappers are installed for every run, traced or not, because the
correctness checks need them: one counts the flows each environment step
proposes for censor scoring, the other checks a collect's censor-query
delta against that count inside whichever process ran the collect (the
driver for in-process training, a forked worker for sharded training).
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import nn, obs, pipeline
from repro.censors import (
    CensorClassifier,
    CumulSVMClassifier,
    DecisionTreeCensor,
    DeepFingerprintingClassifier,
    LSTMClassifier,
    RandomForestCensor,
    SDAEClassifier,
)
from repro.core import agent as agent_module
from repro.core.actor_critic import Critic, GaussianActor
from repro.core.agent import Amoeba
from repro.core.env import ActionKind, AdversarialFlowEnv
from repro.core.ppo import PPOUpdater
from repro.core.rollout import RolloutBuffer
from repro.core.state_encoder import StateEncoder
from repro.distrib.shard import ShardRunner
from repro.distrib.sharded import ShardedRolloutEngine
from repro.features.cumul import CumulFeatureExtractor
from repro.features.statistical import StatisticalFeatureExtractor
from repro.ml.decision_tree import DecisionTreeClassifier
from repro.ml.random_forest import RandomForestClassifier
from repro.ml.svm import KernelSVM, LinearSVM
from repro.nn import functional as nn_functional
from repro.nn import tensor as nn_tensor
from repro.serve.server import PolicyServer

_clock = time.perf_counter
_SPAN_CAP = 200_000


def _patch(owner, attr: str, make_wrapper: Callable) -> Tuple[object, str, object]:
    """Replace ``owner.attr`` with ``make_wrapper(original)``; returns the undo record."""
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    wrapper = functools.wraps(original)(make_wrapper(original))
    setattr(owner, attr, wrapper)
    return owner, attr, original


def _restore(undo: List[Tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
    undo.clear()


def _defining_class(cls: type, attr: str) -> type:
    for klass in cls.__mro__:
        if attr in klass.__dict__:
            return klass
    raise AttributeError(f"{cls.__name__} has no {attr}")


# --------------------------------------------------------------------------- #
# Query accounting (installed for every run)
# --------------------------------------------------------------------------- #
class QueryAudit:
    """Counts flows proposed for censor scoring and checks query deltas.

    ``proposed`` is process-local.  In a forked worker the collect check runs
    in the worker, so a mismatch raises there and the sharded engine
    re-raises it in the driver.
    """

    def __init__(self) -> None:
        self.proposed = 0
        self.collect_checks = 0
        self._undo: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        audit = self

        def wrap_propose(original):
            def propose(env, action):
                pending = original(env, action)
                audit.proposed += len(pending.flows_to_score)
                return pending

            return propose

        def wrap_collect(original):
            def collect(runner, n_ticks):
                proposed_before = audit.proposed
                result = original(runner, n_ticks)
                proposed = audit.proposed - proposed_before
                if result.query_delta != proposed:
                    raise RuntimeError(
                        f"censor query delta {result.query_delta} != {proposed} "
                        "flows proposed for scoring in this collect"
                    )
                audit.collect_checks += 1
                return result

            return collect

        self._undo.append(_patch(AdversarialFlowEnv, "propose", wrap_propose))
        self._undo.append(_patch(ShardRunner, "collect", wrap_collect))

    def uninstall(self) -> None:
        _restore(self._undo)


# --------------------------------------------------------------------------- #
# Span recorder
# --------------------------------------------------------------------------- #
class Recorder:
    """In-memory span recorder with per-name and per-layer aggregates.

    A span's layer is the part of its name before the last dot.  Calls and
    durations are kept per name, skipping spans nested in a span of the same
    name (a forest's ``predict_proba`` calling its trees' is one ML call);
    every span adds its self time to its layer.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[int, Optional[int], str, float, float]] = []
        self.dropped = 0
        self._stack: List[list] = []
        self._next_id = 0
        self.self_s: Dict[str, float] = defaultdict(float)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.values: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._undo: List[Tuple[object, str, object]] = []
        self.wall_s = 0.0

    def call(self, name: str, layer: str, function, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        nested = any(frame[1] == name for frame in self._stack)
        frame = [span_id, name, 0.0]
        self._stack.append(frame)
        start = _clock()
        try:
            return function(*args, **kwargs)
        finally:
            end = _clock()
            self._stack.pop()
            duration = end - start
            if parent is not None:
                parent[2] += duration
            self.self_s[layer] += duration - frame[2]
            if not nested:
                self.durations[name].append(duration)
            if len(self.spans) < _SPAN_CAP:
                self.spans.append(
                    (span_id, None if parent is None else parent[0], name, start, end)
                )
            else:
                self.dropped += 1

    def total_ms(self, name: str) -> float:
        return 1e3 * sum(self.durations.get(name, ()))

    def calls(self, name: str) -> float:
        return float(len(self.durations.get(name, ())))

    def wrap(self, owner, attr: str, name: str, observe: Optional[Callable] = None) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``observe(args, result)`` records per-call counts after the call.
        """
        layer = name.rsplit(".", 1)[0]
        recorder = self

        def make(original):
            def wrapper(*args, **kwargs):
                result = recorder.call(name, layer, original, args, kwargs)
                if observe is not None:
                    observe(args, result)
                return result

            return wrapper

        self._undo.append(_patch(owner, attr, make))

    def uninstall(self) -> None:
        _restore(self._undo)

    # -- output ------------------------------------------------------------
    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            for span_id, parent, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start_s": start,
                            "end_s": end,
                        }
                    )
                    + "\n"
                )

    def self_time_table(self) -> str:
        wall = max(self.wall_s, 1e-12)
        lines = [f"{'layer':<16}{'self ms':>12}{'self %':>9}"]
        for layer, self_s in sorted(self.self_s.items(), key=lambda item: -item[1]):
            lines.append(f"{layer:<16}{self_s * 1e3:>12.1f}{100.0 * self_s / wall:>8.1f}%")
        return "\n".join(lines)


# --------------------------------------------------------------------------- #
# The wrapped public surface, one block per layer
# --------------------------------------------------------------------------- #
_CENSOR_CLASSES = (
    DecisionTreeCensor,
    RandomForestCensor,
    CumulSVMClassifier,
    SDAEClassifier,
    DeepFingerprintingClassifier,
    LSTMClassifier,
)


def install_layer_wrappers(rec: Recorder) -> None:
    values, samples = rec.values, rec.samples

    # flows: dataset synthesis (called by repro.pipeline by these names).
    def on_dataset(args, dataset):
        values["flows.packets"] += sum(flow.n_packets for flow in dataset.flows)
        values["flows.flows"] += len(dataset.flows)

    rec.wrap(pipeline, "build_tor_dataset", "flows.build", on_dataset)
    rec.wrap(pipeline, "build_v2ray_dataset", "flows.build", on_dataset)

    # features: statistical (DT / RF) and CUMUL extraction.
    def on_extract(args, result):
        values["features.flows"] += len(args[1])

    rec.wrap(StatisticalFeatureExtractor, "extract_many", "features.extract", on_extract)
    rec.wrap(CumulFeatureExtractor, "extract_many", "features.extract", on_extract)

    # ml: tree, forest and SVM prediction inside censor scoring.
    for model in (DecisionTreeClassifier, RandomForestClassifier, KernelSVM, LinearSVM):
        rec.wrap(model, "predict_proba", "ml.predict")

    # censors: fitting (each concrete class) and scoring (the base contract).
    patched = set()
    for cls in _CENSOR_CLASSES:
        owner = _defining_class(cls, "fit")
        if owner not in patched:
            patched.add(owner)
            rec.wrap(owner, "fit", "censors.fit")

    def on_score(args, scores):
        flows = args[1]
        values["censors.flows"] += len(flows)
        values["censors.prefix_packets"] += sum(flow.n_packets for flow in flows)

    rec.wrap(CensorClassifier, "predict_scores", "censors.score", on_score)

    # core.env: the two phases of an environment step.
    def on_propose(args, pending):
        values["core.env.steps"] += 1
        values["core.env.masked"] += bool(pending.masked)
        values["core.env.truncations"] += pending.action_kind == ActionKind.TRUNCATION

    rec.wrap(AdversarialFlowEnv, "propose", "core.env.propose", on_propose)
    rec.wrap(AdversarialFlowEnv, "apply", "core.env.apply")

    # core.encoder: pretraining (bound by name in repro.core.agent) and the
    # incremental batched GRU step used by collection, evaluation and serving.
    rec.wrap(agent_module, "pretrain_state_encoder", "core.encoder.pretrain")

    def on_step_pairs(args, result):
        values["core.encoder.rows"] += len(args[2])

    rec.wrap(StateEncoder, "step_pairs", "core.encoder.step", on_step_pairs)

    # core.actor / core.critic forwards.
    rec.wrap(GaussianActor, "act_batch", "core.actor.act")
    rec.wrap(Critic, "value_batch", "core.critic.value")

    # core.ppo / core.rollout.
    def on_update(args, stats):
        samples["core.ppo.clip_fraction"].append(stats.clip_fraction)
        samples["core.ppo.approx_kl"].append(stats.approx_kl)

    rec.wrap(PPOUpdater, "update", "core.ppo.update", on_update)
    rec.wrap(RolloutBuffer, "finalize", "core.rollout.finalize")

    # core.agent: training, collection and evaluation entry points.
    rec.wrap(Amoeba, "train", "core.agent.train")
    rec.wrap(Amoeba, "evaluate", "core.agent.evaluate")
    rec.wrap(ShardRunner, "collect", "core.agent.collect")

    # nn: the single matmul entry point (bound by name in two modules),
    # autograd backward and the optimizer step.
    def on_matmul(args, result):
        a, b = args
        values["nn.rc_matmul_flop"] += 2.0 * a.size * (b.shape[-1] if b.ndim == 2 else 1)

    rec.wrap(nn_tensor, "rc_matmul", "nn.rc_matmul", on_matmul)
    rec.wrap(nn_functional, "rc_matmul", "nn.rc_matmul", on_matmul)
    rec.wrap(nn_tensor.Tensor, "backward", "nn.backward")
    rec.wrap(nn.Adam, "step", "nn.optim_step")

    # distrib: driver-side broadcast; worker time comes from repro.obs spans.
    def on_broadcast(args, result):
        values["distrib.broadcast_bytes"] += len(args[1])

    rec.wrap(ShardedRolloutEngine, "broadcast", "distrib.broadcast", on_broadcast)

    rec.wrap(ShardedRolloutEngine, "collect", "distrib.collect", _on_sharded_collect(rec))
    closed = set()

    def on_close(args, result):
        engine = args[0]
        if id(engine) not in closed:
            closed.add(id(engine))
            values["distrib.worker_restarts"] += engine.restarts_performed

    rec.wrap(ShardedRolloutEngine, "close", "distrib.close", on_close)

    # serve: one continuous-batching flush.
    def on_flush(args, decisions):
        values["serve.flushes"] += bool(decisions)
        values["serve.rows"] += len(decisions)

    rec.wrap(PolicyServer, "flush", "serve.flush", on_flush)


def _on_sharded_collect(rec: Recorder) -> Callable:
    """Fold worker ``collect.shard`` spans after each sharded collect.

    The engine merges worker spans into the driver's ``repro.obs`` tracer at
    the end of every collect while telemetry is on; the slowest worker's
    shard time is what the driver had to wait for.
    """

    def observe(args, merged):
        engine = args[0]
        shards = [
            record
            for record in obs.tracer().take()
            if record.name == "collect.shard"
        ]
        if not shards:
            return
        durations = [record.duration_ms for record in shards]
        rec.values["distrib.worker_collect_ms"] += sum(durations)
        rec.values["distrib.slowest_worker_ms"] += max(durations)
        rec.values["distrib.workers"] = engine.n_workers

    return observe


# --------------------------------------------------------------------------- #
# Per-layer metrics
# --------------------------------------------------------------------------- #
def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def per_layer_metrics(rec: Recorder, extra: Dict[str, float]) -> Dict[str, float]:
    """Fold the recorder into the per-layer metric names of BENCHMARK.json.

    ``extra`` carries values the workload measured itself (iteration times,
    serving packet counts, generator lag, trace overhead).  Layers a
    workload never calls read 0.
    """
    v = rec.values

    def ratio(num: float, den: float) -> float:
        return float(num) / float(den) if den else 0.0

    def mean(name: str) -> float:
        return float(np.mean(rec.samples[name])) if rec.samples[name] else 0.0

    train_ms = rec.total_ms("core.agent.train")
    sharded_collect_ms = rec.total_ms("distrib.collect")
    collect_ms = rec.total_ms("core.agent.collect") + sharded_collect_ms
    worker_ms = v["distrib.worker_collect_ms"]
    sharded = rec.calls("distrib.collect") > 0
    flush_ms = [1e3 * d for d in rec.durations.get("serve.flush", ())]

    metrics = {
        "flows.build_ms": rec.total_ms("flows.build"),
        "flows.packets_per_flow": ratio(v["flows.packets"], v["flows.flows"]),
        "features.extract_calls": rec.calls("features.extract"),
        "features.flows_extracted": v["features.flows"],
        "features.extract_ms": rec.total_ms("features.extract"),
        "features.us_per_flow": 1e3 * ratio(rec.total_ms("features.extract"), v["features.flows"]),
        "ml.predict_calls": rec.calls("ml.predict"),
        "ml.predict_ms": rec.total_ms("ml.predict"),
        "censors.fit_ms": rec.total_ms("censors.fit"),
        "censors.score_calls": rec.calls("censors.score"),
        "censors.flows_scored": v["censors.flows"],
        "censors.flows_per_call": ratio(v["censors.flows"], rec.calls("censors.score")),
        "censors.score_ms": rec.total_ms("censors.score"),
        "censors.us_per_flow": 1e3 * ratio(rec.total_ms("censors.score"), v["censors.flows"]),
        "censors.prefix_packets_mean": ratio(v["censors.prefix_packets"], v["censors.flows"]),
        "core.env.propose_ms": rec.total_ms("core.env.propose"),
        "core.env.apply_ms": rec.total_ms("core.env.apply"),
        "core.env.steps": v["core.env.steps"],
        "core.env.masked_share": ratio(v["core.env.masked"], v["core.env.steps"]),
        "core.env.truncation_share": ratio(v["core.env.truncations"], v["core.env.steps"]),
        "core.encoder.pretrain_ms": rec.total_ms("core.encoder.pretrain"),
        "core.encoder.step_calls": rec.calls("core.encoder.step"),
        "core.encoder.rows_per_call": ratio(v["core.encoder.rows"], rec.calls("core.encoder.step")),
        "core.encoder.step_ms": rec.total_ms("core.encoder.step"),
        "core.actor.act_calls": rec.calls("core.actor.act"),
        "core.actor.act_ms": rec.total_ms("core.actor.act"),
        "core.critic.value_ms": rec.total_ms("core.critic.value"),
        "core.ppo.update_ms": rec.total_ms("core.ppo.update"),
        "core.ppo.clip_fraction": mean("core.ppo.clip_fraction"),
        "core.ppo.approx_kl": mean("core.ppo.approx_kl"),
        "core.rollout.finalize_ms": rec.total_ms("core.rollout.finalize"),
        "core.agent.collect_ms": collect_ms,
        "core.agent.collect_share": ratio(collect_ms, train_ms),
        "core.agent.iter_ms_p50": _percentile(extra.get("iteration_ms", ()), 50),
        "core.agent.evaluate_ms": rec.total_ms("core.agent.evaluate"),
        "core.agent.train_asr": extra.get("train_asr", 0.0),
        "core.agent.eval_steps_per_packet": extra.get("eval_steps_per_packet", 0.0),
        "nn.rc_matmul_calls": rec.calls("nn.rc_matmul"),
        "nn.rc_matmul_ms": rec.total_ms("nn.rc_matmul"),
        "nn.rc_matmul_gflop": v["nn.rc_matmul_flop"] / 1e9,
        "nn.backward_calls": rec.calls("nn.backward"),
        "nn.backward_ms": rec.total_ms("nn.backward"),
        "nn.optim_step_ms": rec.total_ms("nn.optim_step"),
        "distrib.broadcast_ms": rec.total_ms("distrib.broadcast"),
        "distrib.broadcast_bytes": v["distrib.broadcast_bytes"],
        "distrib.collect_wait_ms": sharded_collect_ms,
        "distrib.worker_collect_ms": worker_ms,
        "distrib.overhead_ms": sharded_collect_ms - v["distrib.slowest_worker_ms"],
        "distrib.worker_idle_share": (
            1.0 - ratio(worker_ms, v["distrib.workers"] * train_ms) if sharded else 0.0
        ),
        "distrib.worker_restarts": v["distrib.worker_restarts"],
        "serve.flushes": v["serve.flushes"],
        "serve.rows_per_flush": ratio(v["serve.rows"], v["serve.flushes"]),
        "serve.flush_ms_p50": _percentile(flush_ms, 50),
        "serve.flush_ms_p99": _percentile(flush_ms, 99),
        "serve.decisions_per_packet": extra.get("decisions_per_packet", 0.0),
        "serve.deadline_misses": extra.get("deadline_misses", 0.0),
        "serve.fallback_sessions": extra.get("fallback_sessions", 0.0),
        "serve.generator_lag_ms_p99": extra.get("generator_lag_ms_p99", 0.0),
        "obs.trace_overhead_share": extra.get("trace_overhead_share", 0.0),
    }
    return {name: float(value) for name, value in metrics.items()}
