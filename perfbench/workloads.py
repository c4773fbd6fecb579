"""The measured lifecycle every workload runs: set-up, training, evaluation
and serving.

A run repeats *rounds* of training work and fills the gaps between their
units with short serving tasks until ``seconds`` are spent.

* Round ``r`` builds its inputs from the run seed and ``r``: dataset
  synthesis, censor fits and one Amoeba agent per censor (the set-up); then
  each agent trains for ``AMOEBA_TIMESTEPS`` and is evaluated
  deterministically on the test split.  Throughput is pooled over all
  rounds, so one run averages over several trained policies.  Quality
  figures and query counts come from round 0, a pure function of the seed.
* After each training unit (one agent trained and evaluated) the run serves
  until serving has had ``SERVE_SHARE`` of the elapsed time.  Serving loads
  a fixed Tor-configured policy checkpoint (about 8.4 decisions per packet)
  into a ``PolicyServer`` (the ``blocked`` f64
  backend, ``max_batch=16``) and drives it with a ``SyntheticWorkload``
  Tor/HTTPS/V2Ray mix: offered-load passes (as fast as the server drains),
  open-loop chunks that replay the generator's schedule at a fixed
  reference rate, and open-loop probes on a fixed rate ladder.  There is no
  censor and no PPO.

Host-speed normalisation.  The measuring host alternates between a fast
phase and phases in which identical work takes 1.5 to 1.8 times longer,
because other tenants share its cores; a phase lasts from under a second to
minutes.  Every measured call (one set-up, one ``Amoeba.train``, one
``Amoeba.evaluate``, one offered-load pass) is therefore bracketed by a
fixed calibration kernel (small numpy operations and Python object churn,
independent of ``repro``) and its seconds are scaled by
``CALIBRATION_REFERENCE_S`` over the kernel's duration at that moment.
Throughputs and ``setup_s`` are reported in these reference seconds: what
the work would take on a host where the kernel runs in
``CALIBRATION_REFERENCE_S``.  A slower ``repro`` shows as a larger
share of reference time; a slower host moves the kernel and the work
together.  Raw wall-clock figures are kept in the full record.  Latencies
are reported raw: at the reference rate they are set by the server's flush
timeout and per-session serialisation, wall-clock quantities.

In a traced run round 0 runs twice, untraced and then with the layer
wrappers installed; the pair gives the tracing overhead and a check that
tracing changes no result.
"""

from __future__ import annotations

import math
import os
import statistics
import time
import traceback
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import obs, pipeline
from repro.core import Amoeba, AmoebaConfig
from repro.features import FlowNormalizer
from repro.serve import PolicyServer, ServeConfig, SyntheticWorkload, run_workload

from layers import QueryAudit, Recorder, install_layer_wrappers
from spec import (
    AMOEBA_TIMESTEPS,
    CENSOR_EPOCHS,
    DATASET_FLOWS,
    FAST_AGENT_OVERRIDES,
    MAX_PACKETS,
    WORKLOADS,
)

_clock = time.perf_counter

# Serving parameters.  The latency limit applies to a packet's p99 latency,
# measured from its due time to the decision that emits its last byte.
SERVE_MIX = {"tor": 0.5, "https": 0.3, "v2ray": 0.2}
SERVE_MAX_BATCH = 16
SERVE_SIZE_SCALE = 1460.0
# Offered-load passes and reference-rate chunks serve SERVE_SESSIONS
# concurrent sessions (two full batches) from SyntheticWorkload.generate;
# ladder probes serve at least as many.  Served flows keep at most
# MAX_PACKETS packets, like the training datasets.
SERVE_SESSIONS = 32
# Share of the run spent serving, and the rotation of serving tasks.
SERVE_SHARE = 0.35
SERVE_TASKS = ("offered", "chunk", "offered", "chunk", "offered", "offered", "chunk", "probe")
# The reference rate is the generator's arrival_rate_pps for the latency
# chunks: about a third of the server's offered-load packet capacity on the
# reference host (perfbench/README.md).  A chunk holds about 1000 packets,
# at least ten beyond its p99; the latency metrics are medians over at least
# REFERENCE_CHUNKS chunks of each chunk's percentile, so one chunk that a
# host stall slowed does not set them.  The limit is 2.5 times the usual p99.
REFERENCE_RATE_PPS = 500.0
REFERENCE_CHUNKS = 3
LATENCY_LIMIT_MS = 2000.0
LADDER_PPS = [100.0 * 1.05**k for k in range(100)]
LADDER_CLIMB = 4
LADDER_START_SHARE = 0.8
PROBE_SECONDS = 2.0
MIN_ROUNDS = 2
SETUP_REPEATS = 3
# The served policy is one fixed Tor-configured checkpoint in every workload:
# an untrained policy's decisions per packet swing between about 2 and 8 with
# its initialisation, and the serving metrics should measure the serving
# code, not that draw.  Traffic schedules still come from the run seed.
SERVE_POLICY_SEED = 0
# Duration of the calibration kernel in the reference host's fast phase
# (2-vCPU Xeon VM at 2.1 GHz, numpy 2.4, one BLAS thread).
CALIBRATION_REFERENCE_S = 2.5e-3

_CAL_A = np.random.default_rng(0).standard_normal((16, 32))
_CAL_B = np.random.default_rng(1).standard_normal((32, 16))


def _kernel_seconds() -> float:
    start = _clock()
    x = _CAL_A
    for step in range(400):
        y = np.tanh(x @ _CAL_B) + 1.0
        x = np.concatenate([y, y], axis=1) * 0.5
        [{"step": step}] * 3
    return _clock() - start


def calibration_seconds() -> float:
    """Median of three timings of the fixed calibration kernel.

    The median drops a single run that another tenant's burst stretched to
    several times its length.
    """
    return statistics.median(_kernel_seconds() for _ in range(3))


class Stopwatch:
    """Raw and host-normalised seconds of one interval.

    The calibration kernel runs just before the interval starts and just
    after it ends; neither run is inside the interval.
    """

    def __init__(self) -> None:
        self.calibration = calibration_seconds()
        self.start = _clock()

    def lap(self) -> Tuple[float, float]:
        """End the interval; returns ``(raw, normalised)`` and starts the next."""
        raw = _clock() - self.start
        calibration = calibration_seconds()
        normalised = raw * CALIBRATION_REFERENCE_S / (0.5 * (self.calibration + calibration))
        self.calibration = calibration
        self.start = _clock()
        return raw, normalised


def _payload(flow) -> float:
    return float(np.abs(flow.sizes).sum())


class Tally:
    """Operations attempted / failed and correctness-check failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def check(self, ok: bool, message: str) -> bool:
        if not ok and len(self.errors) < 20:
            self.errors.append(message)
        return ok


# --------------------------------------------------------------------------- #
# Training and evaluation rounds
# --------------------------------------------------------------------------- #
@dataclass
class RoundResult:
    setup_s: float = 0.0
    setup_norm_s: float = 0.0
    train_s: float = 0.0
    train_norm_s: float = 0.0
    timesteps: int = 0
    eval_s: float = 0.0
    eval_norm_s: float = 0.0
    eval_flows: int = 0
    iteration_ms: List[float] = field(default_factory=list)
    # Per training unit, in round order.
    asr: List[float] = field(default_factory=list)
    data_overhead: List[float] = field(default_factory=list)
    time_overhead: List[float] = field(default_factory=list)
    train_queries: List[int] = field(default_factory=list)
    eval_queries: List[int] = field(default_factory=list)
    train_asr: List[float] = field(default_factory=list)
    eval_steps: int = 0
    eval_packets: int = 0

    def outcome(self) -> Dict[str, list]:
        """Everything that must not depend on timing or tracing."""
        return {
            "asr": self.asr,
            "data_overhead": self.data_overhead,
            "time_overhead": self.time_overhead,
            "train_queries": self.train_queries,
            "eval_queries": self.eval_queries,
        }


def round_seed(seed: int, index: int) -> int:
    return seed if index == 0 else int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def run_round(
    name: str, seed: int, audit: QueryAudit, tally: Tally, between: Callable[[], None]
) -> RoundResult:
    """Set up, train and evaluate every censor's agent of one round.

    ``between`` runs after each training unit and is not part of any timing.
    """
    dataset, censor_names, n_envs, workers = WORKLOADS[name]
    result = RoundResult()
    overrides = dict(FAST_AGENT_OVERRIDES, n_envs=n_envs)
    config = (
        AmoebaConfig.for_v2ray(**overrides)
        if dataset == "v2ray"
        else AmoebaConfig.for_tor(**overrides)
    ).with_overrides(max_episode_steps=2 * MAX_PACKETS)

    watch = Stopwatch()
    data = pipeline.prepare_experiment_data(
        dataset,
        n_censored=DATASET_FLOWS,
        n_benign=DATASET_FLOWS,
        max_packets=MAX_PACKETS,
        rng=seed,
    )
    censors = pipeline.train_censors(data, names=censor_names, rng=seed + 1, epochs=CENSOR_EPOCHS)
    agents = [
        Amoeba(censor, data.normalizer, config, rng=seed + 10 + index)
        for index, censor in enumerate(censors.values())
    ]
    result.setup_s, result.setup_norm_s = watch.lap()

    train_flows = data.splits.attack_train.censored_flows
    test_flows = data.splits.test.censored_flows
    for agent, (censor_name, censor) in zip(agents, censors.items()):
        _train_and_evaluate(
            agent, censor_name, censor, train_flows, test_flows, workers, audit, tally, result
        )
        between()
    return result


def _train_and_evaluate(
    agent, censor_name, censor, train_flows, test_flows, workers, audit, tally, result
) -> None:
    censor.reset_query_count()
    records = []
    iteration_ends = []

    def on_iteration(record) -> None:
        iteration_ends.append(_clock())
        records.append(record)

    proposed_before = audit.proposed
    # One interval for the whole call: sharded workers start and stop inside
    # it, so the calibration kernel never runs while they are alive.
    watch = Stopwatch()
    began = watch.start
    agent.train(
        train_flows, total_timesteps=AMOEBA_TIMESTEPS, workers=workers, callback=on_iteration
    )
    raw, normalised = watch.lap()
    result.train_s += raw
    result.train_norm_s += normalised
    result.timesteps += agent.timesteps_trained
    result.iteration_ms.extend(
        1e3 * (end - start) for start, end in zip([began] + iteration_ends, iteration_ends)
    )

    for record in records:
        finite = all(
            math.isfinite(record[key]) for key in ("policy_loss", "value_loss", "entropy")
        )
        tally.attempted += 1
        if not tally.check(finite, f"{censor_name}: non-finite PPO loss {record}"):
            tally.failed += 1
    result.train_asr.append(records[-1]["train_asr"] if records else 0.0)
    queries = censor.query_count
    if workers is None:
        # Sharded collects are checked inside the workers (QueryAudit).
        tally.check(
            queries == audit.proposed - proposed_before,
            f"{censor_name}: {queries} training queries for "
            f"{audit.proposed - proposed_before} flows proposed for scoring",
        )
    result.train_queries.append(queries)

    proposed_before = audit.proposed
    watch = Stopwatch()
    report = agent.evaluate(test_flows)
    raw, normalised = watch.lap()
    result.eval_s += raw
    result.eval_norm_s += normalised
    eval_queries = censor.query_count - queries
    tally.check(
        eval_queries == audit.proposed - proposed_before,
        f"{censor_name}: {eval_queries} evaluation queries for "
        f"{audit.proposed - proposed_before} flows proposed for scoring",
    )
    result.eval_queries.append(eval_queries)
    for attack in report.results:
        tally.attempted += 1
        kept = _payload(attack.adversarial_flow) >= _payload(attack.original_flow) - 1e-6
        if not tally.check(kept, f"{censor_name}: evaluated flow lost payload"):
            tally.failed += 1
        result.eval_steps += attack.n_steps
        result.eval_packets += attack.original_flow.n_packets
    result.eval_flows += report.n_flows
    result.asr.append(report.attack_success_rate)
    result.data_overhead.append(report.data_overhead)
    result.time_overhead.append(report.time_overhead)


# --------------------------------------------------------------------------- #
# Serving
# --------------------------------------------------------------------------- #
@dataclass
class ServeSetup:
    actor: object
    encoder: object
    config: ServeConfig
    offered: SyntheticWorkload


def serve_setup(seed: int, workdir: str) -> ServeSetup:
    """Build and save the policy checkpoint, load it, generate the offered schedule."""
    config = AmoebaConfig.for_tor(**FAST_AGENT_OVERRIDES)
    normalizer = FlowNormalizer(size_scale=SERVE_SIZE_SCALE, delay_scale=200.0)
    agent = Amoeba(None, normalizer, config, rng=SERVE_POLICY_SEED)
    path = os.path.join(workdir, f"policy-{os.getpid()}.npz")
    agent.save_policy(path)
    serve_config = ServeConfig.from_amoeba(config, SERVE_SIZE_SCALE, max_batch=SERVE_MAX_BATCH)
    server = PolicyServer.from_checkpoint(path, config=serve_config)
    os.remove(path)
    offered = SyntheticWorkload.generate(
        SERVE_SESSIONS,
        mix=SERVE_MIX,
        arrival_rate_pps=REFERENCE_RATE_PPS,
        max_packets=MAX_PACKETS,
        rng=seed + 1,
    )
    return ServeSetup(server.actor, server.encoder, serve_config, offered)


def _schedule(rate_pps: float, seed: int, sessions: int = SERVE_SESSIONS) -> SyntheticWorkload:
    """``sessions`` concurrent sessions scheduled at ``rate_pps``."""
    return SyntheticWorkload.generate(
        sessions,
        mix=SERVE_MIX,
        arrival_rate_pps=rate_pps,
        max_packets=MAX_PACKETS,
        rng=seed,
    )


def _new_server(setup: ServeSetup) -> PolicyServer:
    return PolicyServer(setup.actor, setup.encoder, config=setup.config)


def _account_sessions(server, workload, online_packets, tally: Tally, count: bool) -> Dict[str, int]:
    """Check that every submitted packet's payload is emitted or accounted.

    ``online_packets`` maps a session to the packets it completed online.
    Returns fallback / unserved counts; with ``count`` the session's packets
    are attempted operations and those not served online failed ones.
    """
    submitted = defaultdict(float)
    submitted_packets = defaultdict(int)
    for event in workload.events:
        submitted[event.session_id] += abs(event.size)
        submitted_packets[event.session_id] += 1
    fallback = unserved = 0
    for report in server.reports():
        sid = report.session_id
        offline = submitted_packets[sid] - online_packets.get(sid, 0)
        if report.demoted or report.unserved_packets:
            fallback += bool(report.demoted)
            unserved += report.unserved_packets
            ok = report.payload_bytes <= submitted[sid] + 1e-6
        else:
            ok = abs(report.payload_bytes - submitted[sid]) <= 1e-6 * max(1.0, submitted[sid])
            ok = ok and offline == 0
        ok = ok and report.emitted_bytes >= report.payload_bytes - 1e-6
        tally.check(ok, f"serve session {sid}: payload not emitted or accounted")
        if count:
            tally.attempted += submitted_packets[sid]
            tally.failed += offline
    return {"fallback": fallback, "unserved": unserved}


def offered_load(setup: ServeSetup, tally: Tally) -> Dict[str, float]:
    """One pass as fast as the server drains (``loadgen.run_workload``)."""
    server = _new_server(setup)
    watch = Stopwatch()
    report = run_workload(server, setup.offered)
    raw, normalised = watch.lap()
    online = {
        session.session_id: 0
        if (session.demoted or session.unserved_packets)
        else session.n_packets_in
        for session in server.reports()
    }
    counts = _account_sessions(server, setup.offered, online, tally, count=True)
    return {
        "decisions": report.decisions,
        "packets": report.n_packets,
        "wall_s": raw,
        "norm_s": normalised,
        "deadline_misses": server.stats()["deadline_misses"],
        **counts,
    }


def open_loop(
    setup: ServeSetup, workload: SyntheticWorkload, tally: Tally, count: bool
) -> Dict[str, object]:
    """Replay the workload's schedule; time each packet until its last byte is emitted.

    Packet ``i`` is due ``events[i].time_ms`` after the first packet: the
    generator's own schedule, in which each session follows its flow's
    inter-packet delays and sessions start at random offsets.
    Single-threaded: between due times the loop polls the server, which
    flushes on a full batch or on its flush timeout.  A packet is complete
    when a non-truncation decision is emitted for it (sessions are FIFO).
    The rate is sustained when the p99 meets the limit and the backlog does
    not grow: the generator kept to the schedule within the limit (it shares
    the thread, so an overloaded server makes it fall behind) and the
    backlog left after the last arrival drains within the limit.
    """
    server = _new_server(setup)
    for session_id in workload.flows:
        server.open_session(session_id, protocol=workload.protocols[session_id])
    events = workload.events
    origin = events[0].time_ms
    last_due = events[-1].time_ms - origin
    pending: Dict[str, deque] = defaultdict(deque)
    latencies: List[float] = []
    lags: List[float] = []
    online = defaultdict(int)
    decisions = 0
    index, n_events = 0, len(events)
    calibration = calibration_seconds()
    start = _clock()
    while index < n_events or server.pending_decisions:
        now = 1e3 * (_clock() - start)
        while index < n_events and events[index].time_ms - origin <= now:
            event = events[index]
            due = event.time_ms - origin
            lags.append(now - due)
            pending[event.session_id].append(due)
            server.submit(event.session_id, event.size, event.delay_ms)
            index += 1
        server.poll()
        emitted = server.take_decisions()
        if emitted:
            now = 1e3 * (_clock() - start)
            decisions += len(emitted)
            for decision in emitted:
                if decision.kind != "truncation":
                    latencies.append(now - pending[decision.session_id].popleft())
                    online[decision.session_id] += 1
    end_ms = 1e3 * (_clock() - start)
    calibration = 0.5 * (calibration + calibration_seconds())
    server.close_all()
    counts = _account_sessions(server, workload, online, tally, count)
    if count:
        tally.failed += sum(latency > LATENCY_LIMIT_MS for latency in latencies)

    drain_ms = end_ms - last_due
    growing = max(lags) > LATENCY_LIMIT_MS or drain_ms > LATENCY_LIMIT_MS
    p99 = float(np.percentile(latencies, 99)) if latencies else float("inf")
    return {
        "latencies": latencies,
        "p50": float(np.percentile(latencies, 50)) if latencies else float("inf"),
        "p99": p99,
        "lags": lags,
        "decisions": decisions,
        "packets": n_events,
        "calibration_s": calibration,
        "drain_ms": drain_ms,
        "meets_limit": p99 <= LATENCY_LIMIT_MS and not growing,
        "deadline_misses": server.stats()["deadline_misses"],
        **counts,
    }


class RateLadder:
    """Up-down walk over the fixed rate ladder for ``serve_max_rate_pps``.

    A probe replays a fresh ``_schedule`` at the rung's rate with enough
    sessions for ``PROBE_SECONDS`` of packets, so a rate beyond capacity
    leaves a backlog that outgrows the latency limit.  The first
    probe starts at the rung nearest ``LADDER_START_SHARE`` of the latest
    offered-load capacity estimate, so even a run with one probe usually
    has a passing rate.  Until a probe fails the walk climbs ``LADDER_CLIMB`` rungs
    per passing probe; from then on a probe that meets the limit with no
    growing backlog moves it one rung up and a failure one rung down, so the
    probes gather around the highest sustainable rung whatever the host's
    phase.  The estimate is the mean rate of the passing probes made after
    the first failure (the highest passing rate if no probe failed), each
    scaled by the host-speed factor measured around it.
    """

    def __init__(self) -> None:
        self.rung: Optional[int] = None
        self.failed = False
        self.climbed: List[float] = []
        self.passed: List[float] = []
        self.probes = 0

    def probe(self, setup: ServeSetup, estimate_pps: float, seed: int, tally: Tally) -> None:
        if self.rung is None:
            start = LADDER_START_SHARE * estimate_pps
            self.rung = max(0, sum(rate <= start for rate in LADDER_PPS) - 1)
        rate = LADDER_PPS[self.rung]
        sessions = max(SERVE_SESSIONS, int(math.ceil(rate * PROBE_SECONDS / MAX_PACKETS)))
        workload = _schedule(rate, seed + 1000 * self.probes + self.rung, sessions)
        result = open_loop(setup, workload, tally, False)
        self.probes += 1
        if result["meets_limit"]:
            scale = result["calibration_s"] / CALIBRATION_REFERENCE_S
            (self.passed if self.failed else self.climbed).append(rate * scale)
            step = 1 if self.failed else LADDER_CLIMB
            self.rung = min(self.rung + step, len(LADDER_PPS) - 1)
        else:
            self.failed = True
            self.rung = max(self.rung - 1, 0)

    @property
    def max_rate_pps(self) -> float:
        if self.passed:
            return float(np.mean(self.passed))
        return max(self.climbed, default=0.0)


# --------------------------------------------------------------------------- #
# One run
# --------------------------------------------------------------------------- #
def _quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0] if values else 0.0
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def run(name: str, seed: int, seconds: float, trace: bool, workdir: str) -> Dict[str, object]:
    """Run one workload; returns the full result record."""
    tally = Tally()
    audit = QueryAudit()
    audit.install()
    recorder = Recorder() if trace else None
    sharded = WORKLOADS[name][3] is not None
    started = _clock()
    deadline = started + seconds

    def traced(function, *args):
        """Run ``function`` with the layer wrappers (and, for sharded
        training, repro.obs worker spans) switched on."""
        install_layer_wrappers(recorder)
        worker_spans = sharded and function is run_round
        if worker_spans:
            obs.enable()
        began = _clock()
        try:
            return function(*args)
        finally:
            recorder.wall_s += _clock() - began
            if worker_spans:
                obs.disable()
                obs.tracer().take()
            recorder.uninstall()

    rounds: List[RoundResult] = []
    traced_round: Optional[RoundResult] = None
    offered: List[Dict[str, float]] = []
    traced_offered: List[Dict[str, float]] = []
    chunks: List[Dict[str, object]] = []
    ladder = RateLadder()
    overhead = {"plain": 0.0, "traced": 0.0}
    serving = {"seconds": 0.0, "task": 0}

    def serve_task(setup: ServeSetup) -> None:
        kind = SERVE_TASKS[serving["task"] % len(SERVE_TASKS)]
        serving["task"] += 1
        if kind == "offered":
            offered.append(offered_load(setup, tally))
            if trace:
                traced_offered.append(traced(offered_load, setup, tally))
                overhead["plain"] += offered[-1]["norm_s"]
                overhead["traced"] += traced_offered[-1]["norm_s"]
        elif kind == "chunk":
            schedule = _schedule(REFERENCE_RATE_PPS, seed + 2 + len(chunks))
            arguments = (setup, schedule, tally, True)
            chunks.append(traced(open_loop, *arguments) if trace else open_loop(*arguments))
        else:
            latest = offered[-1]
            ladder.probe(setup, latest["packets"] / latest["wall_s"], seed + 3, tally)

    def serve_until_share(setup: ServeSetup) -> None:
        while serving["seconds"] < SERVE_SHARE * (_clock() - started):
            began = _clock()
            serve_task(setup)
            serving["seconds"] += _clock() - began

    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            watch = Stopwatch()
            setup = serve_setup(seed, workdir)
            setup_times.append(watch.lap())
        offered_load(setup, tally)  # warm-up, not reported
        serve_task(setup)

        while True:
            began = _clock()
            result = run_round(
                name, round_seed(seed, len(rounds)), audit, tally, lambda: serve_until_share(setup)
            )
            rounds.append(result)
            if trace:
                traced_round = traced(run_round, name, seed, audit, tally, lambda: None)
                tally.check(
                    traced_round.outcome() == result.outcome(),
                    f"tracing changed results {traced_round.outcome()} != {result.outcome()}",
                )
                overhead["plain"] += result.train_norm_s + result.eval_norm_s
                overhead["traced"] += traced_round.train_norm_s + traced_round.eval_norm_s
                break
            if len(rounds) >= MIN_ROUNDS and _clock() + (_clock() - began) > deadline:
                break
        while len(chunks) < (1 if trace else REFERENCE_CHUNKS) or not ladder.probes:
            serve_task(setup)
    except Exception as exc:  # noqa: BLE001 - any failure is a failed run
        tally.attempted += 1
        tally.failed += 1
        tally.check(False, f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}")
        return {"workload": name, "seed": seed, "trace": trace, "tally": tally, "complete": False}
    finally:
        audit.uninstall()

    def total(attribute: str) -> float:
        return sum(getattr(r, attribute) for r in rounds)

    first = rounds[0]
    reference_packets = sum(len(chunk["latencies"]) for chunk in chunks)
    end_to_end = {
        "setup_s": statistics.median(r.setup_norm_s for r in rounds)
        + statistics.median(norm for _, norm in setup_times),
        "train_timesteps_per_s": total("timesteps") / total("train_norm_s"),
        "eval_flows_per_s": total("eval_flows") / total("eval_norm_s"),
        "eval_asr": float(np.mean(first.asr)),
        "eval_data_overhead": float(np.mean(first.data_overhead)),
        "eval_time_overhead": float(np.mean(first.time_overhead)),
        # Every pass serves the same schedule, so passes differ only by host
        # noise; the median drops a pass whose brackets missed a phase change.
        "serve_decisions_per_s": statistics.median(p["decisions"] / p["norm_s"] for p in offered),
        "serve_packet_latency_p50_ms": statistics.median(chunk["p50"] for chunk in chunks),
        "serve_packet_latency_p99_ms": statistics.median(chunk["p99"] for chunk in chunks),
        "serve_max_rate_pps": ladder.max_rate_pps,
    }
    raw = {
        "setup_s": statistics.median(r.setup_s for r in rounds)
        + statistics.median(raw_s for raw_s, _ in setup_times),
        "train_timesteps_per_s": total("timesteps") / total("train_s"),
        "eval_flows_per_s": total("eval_flows") / total("eval_s"),
        "serve_decisions_per_s": statistics.median(p["decisions"] / p["wall_s"] for p in offered),
    }
    # Within-run spread of each metric over its units of work: rounds,
    # offered-load passes, reference-rate chunks, passing ladder probes.
    # peak_rss_mb is one reading per process and has none.
    spreads = {
        "setup_s": _quartiles([r.setup_norm_s for r in rounds]),
        "train_timesteps_per_s": _quartiles([r.timesteps / r.train_norm_s for r in rounds]),
        "eval_flows_per_s": _quartiles([r.eval_flows / r.eval_norm_s for r in rounds]),
        "eval_asr": _quartiles([float(np.mean(r.asr)) for r in rounds]),
        "eval_data_overhead": _quartiles([float(np.mean(r.data_overhead)) for r in rounds]),
        "eval_time_overhead": _quartiles([float(np.mean(r.time_overhead)) for r in rounds]),
        "serve_decisions_per_s": _quartiles([p["decisions"] / p["norm_s"] for p in offered]),
        "serve_packet_latency_p50_ms": _quartiles([chunk["p50"] for chunk in chunks]),
        "serve_packet_latency_p99_ms": _quartiles([chunk["p99"] for chunk in chunks]),
        "serve_max_rate_pps": _quartiles(ladder.passed or ladder.climbed),
    }
    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "complete": True,
        "tally": tally,
        "rounds": len(rounds),
        "end_to_end": end_to_end,
        "raw_wall_clock": raw,
        "spreads": spreads,
        "outcome": first.outcome(),
        "serve": {
            "offered_passes": len(offered),
            "reference_packets": reference_packets,
            "latency_limit_ms": LATENCY_LIMIT_MS,
            "ladder_probes": ladder.probes,
            "ladder_passed": len(ladder.passed),
        },
        "elapsed_s": _clock() - started,
    }
    if trace:
        measured = traced_offered + chunks
        record["extra"] = {
            "iteration_ms": traced_round.iteration_ms,
            "train_asr": float(np.mean(traced_round.train_asr)),
            "eval_steps_per_packet": traced_round.eval_steps / max(1, traced_round.eval_packets),
            "decisions_per_packet": sum(p["decisions"] for p in measured)
            / max(1, sum(p["packets"] for p in measured)),
            "deadline_misses": sum(p["deadline_misses"] for p in measured),
            "fallback_sessions": sum(p["fallback"] for p in measured),
            "generator_lag_ms_p99": float(
                np.percentile([lag for chunk in chunks for lag in chunk["lags"]], 99)
            ),
            "trace_overhead_share": overhead["traced"] / overhead["plain"] - 1.0,
        }
        record["recorder"] = recorder
    return record
