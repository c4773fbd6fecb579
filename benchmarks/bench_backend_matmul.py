"""Execution-backend smoke benchmark: blocked GEMM and preallocated training step.

PR 6 introduced the pluggable execution-backend tier (:mod:`repro.nn.backend`)
and the preallocated-buffer training step.  This benchmark is the
corresponding gate, written to ``BENCH_backend.json`` at the repo root:

* **rc-matmul kernels** — the ``blocked`` backend (runtime-compiled
  register-blocked C kernel) against the ``reference`` einsum on
  rollout-shaped matmuls.  Both produce identical bits (asserted in
  ``tests/test_nn_backend.py``); here only the clock is compared.  Gate:
  strictly faster on every shape and ≥2× in the geometric mean.  Skipped if
  no C compiler is available (the blocked backend then *is* the einsum).
* **optimizer step** — preallocated in-place Adam against the allocating
  baseline on actor-sized parameters.  Gate: strictly faster.
* **PPO update phase** — one full update, preallocated scratch + in-place
  optimizers vs the allocating baseline.  The update is dominated by
  autodiff graph construction that preallocation does not touch, so the true
  margin is a few percent — within timer noise on a busy machine.  Gate: a
  no-regression bound (preallocated must not be >10% slower); the measured
  speedup is recorded for trend tracking.

Timing discipline: variants are interleaved (A/B/A/B…) so clock-frequency
drift hits both equally.  Kernel comparisons use the minimum over repeats
(noise only inflates a timing, so the minimum estimates the true cost);
optimizer/PPO comparisons use the median of per-pair ratios, which cancels
drift between adjacent blocks and is robust to outlier pairs.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro import nn
from repro.core import AmoebaConfig, RolloutBuffer
from repro.core.actor_critic import Critic, GaussianActor
from repro.core.ppo import PPOUpdater
from repro.nn import backend as nnb

RESULTS_PATH = Path(__file__).resolve().parents[1] / "BENCH_backend.json"

# Rollout-shaped matmuls: (n_envs, state_dim) x (state_dim, hidden) style
# blocks from the collection/serving forwards, plus a training-shaped batch.
MATMUL_SHAPES = [
    (8, 64, 64),
    (8, 64, 96),
    (16, 134, 64),
    (64, 64, 64),
    (256, 64, 32),
]


def _best_of(fn, repeats: int, inner: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, time.perf_counter() - start)
    return best


def _paired_compare(fn_a, fn_b, pairs: int, inner: int):
    """Interleaved A/B timing: (best_a, best_b, median of per-pair a/b ratios)."""
    best_a = best_b = float("inf")
    ratios = []
    for _ in range(pairs):
        a = _best_of(fn_a, 1, inner)
        b = _best_of(fn_b, 1, inner)
        best_a, best_b = min(best_a, a), min(best_b, b)
        ratios.append(a / b)
    return best_a, best_b, float(np.median(ratios))


def _bench_matmul_shapes():
    reference = nnb.get_backend("reference")
    blocked = nnb.get_backend("blocked")
    rows_out = []
    speedups = []
    for rows, inner_dim, cols in MATMUL_SHAPES:
        rng = np.random.default_rng(rows * 1000 + cols)
        a = rng.standard_normal((rows, inner_dim))
        b = rng.standard_normal((inner_dim, cols))
        inner = max(20, int(2e6 / (rows * inner_dim * cols)))
        # Interleave the variants so drift hits both equally.
        ref_best = blk_best = float("inf")
        for _ in range(5):
            ref_best = min(ref_best, _best_of(lambda: reference.matmul2d(a, b), 1, inner))
            blk_best = min(blk_best, _best_of(lambda: blocked.matmul2d(a, b), 1, inner))
        speedup = ref_best / blk_best
        speedups.append(speedup)
        rows_out.append(
            {
                "shape": f"{rows}x{inner_dim}x{cols}",
                "reference_us": round(ref_best / inner * 1e6, 2),
                "blocked_us": round(blk_best / inner * 1e6, 2),
                "speedup": round(speedup, 2),
            }
        )
    geomean = float(np.exp(np.mean(np.log(speedups))))
    return rows_out, geomean


def _bench_optimizer_step():
    def build(preallocate):
        network = nn.Sequential(
            nn.Linear(64, 256, rng=np.random.default_rng(0)),
            nn.Linear(256, 64, rng=np.random.default_rng(1)),
            nn.Linear(64, 32, rng=np.random.default_rng(2)),
        )
        optimizer = nn.Adam(network.parameters(), lr=1e-3, preallocate=preallocate)
        grads = np.random.default_rng(3)
        for p in network.parameters():
            p.grad = grads.standard_normal(p.data.shape)
        return optimizer

    allocating, preallocated = build(False), build(True)
    for _ in range(30):  # warm both (Adam state, allocator)
        allocating.step()
        preallocated.step()
    return _paired_compare(allocating.step, preallocated.step, pairs=11, inner=60)


def _filled_buffer(config, state_dim, action_dim):
    buffer = RolloutBuffer(config.rollout_length, config.n_envs, state_dim, action_dim)
    rng = np.random.default_rng(4)
    while not buffer.full:
        buffer.add(
            states=rng.normal(size=(config.n_envs, state_dim)),
            actions=rng.normal(size=(config.n_envs, action_dim)),
            log_probs=rng.normal(size=config.n_envs),
            rewards=rng.normal(size=config.n_envs),
            values=rng.normal(size=config.n_envs),
            dones=rng.uniform(size=config.n_envs) < 0.05,
        )
    buffer.finalize(np.zeros(config.n_envs), config.gamma, config.gae_lambda)
    return buffer


def _bench_ppo_update():
    config = AmoebaConfig.for_tor(n_envs=8, rollout_length=64)

    def build(preallocate):
        actor = GaussianActor(
            config.state_dim, hidden_dims=config.actor_hidden, rng=np.random.default_rng(1)
        )
        critic = Critic(
            config.state_dim, hidden_dims=config.critic_hidden, rng=np.random.default_rng(2)
        )
        return PPOUpdater(
            actor, critic, config, rng=np.random.default_rng(3), preallocate=preallocate
        )

    buffer = _filled_buffer(config, config.state_dim, 2)
    allocating, preallocated = build(False), build(True)
    allocating.update(buffer)
    preallocated.update(buffer)
    return _paired_compare(
        lambda: allocating.update(buffer),
        lambda: preallocated.update(buffer),
        pairs=9,
        inner=1,
    )


def test_backend_matmul_and_preallocated_training_step():
    kernel_available = nnb.compiled_kernel_available()
    matmul_rows, matmul_geomean = (None, None)
    if kernel_available:
        matmul_rows, matmul_geomean = _bench_matmul_shapes()

    opt_alloc, opt_pre, opt_speedup = _bench_optimizer_step()
    ppo_alloc, ppo_pre, ppo_speedup = _bench_ppo_update()

    results = {
        "backend": nnb.active_backend().describe(),
        "rc_matmul": {
            "kernel_available": kernel_available,
            "kernel_error": nnb.compiled_kernel_error(),
            "shapes": matmul_rows,
            "geomean_speedup": round(matmul_geomean, 2) if matmul_geomean else None,
        },
        "optimizer_step": {
            "allocating_ms": round(opt_alloc * 1e3, 3),
            "preallocated_ms": round(opt_pre * 1e3, 3),
            "speedup": round(opt_speedup, 3),
        },
        "ppo_update": {
            "n_envs": 8,
            "rollout_length": 64,
            "allocating_ms": round(ppo_alloc * 1e3, 2),
            "preallocated_ms": round(ppo_pre * 1e3, 2),
            "speedup": round(ppo_speedup, 3),
        },
    }
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")

    shape_lines = "".join(
        f"    {row['shape']:>12}: {row['reference_us']:7.1f}us -> "
        f"{row['blocked_us']:7.1f}us  ({row['speedup']:.2f}x)\n"
        for row in (matmul_rows or [])
    )
    print(
        f"\nexecution backend ({nnb.active_backend().name}):\n"
        f"  rc-matmul blocked vs reference"
        + (
            f" (geomean {matmul_geomean:.2f}x):\n{shape_lines}"
            if kernel_available
            else f": skipped ({nnb.compiled_kernel_error()})\n"
        )
        + f"  optimizer step:  {opt_alloc*1e3:.1f}ms -> {opt_pre*1e3:.1f}ms  ({opt_speedup:.2f}x median)\n"
        f"  PPO update:      {ppo_alloc*1e3:.1f}ms -> {ppo_pre*1e3:.1f}ms  ({ppo_speedup:.2f}x median)\n"
        f"  results written to {RESULTS_PATH.name}"
    )

    assert opt_speedup > 1.0, (
        f"preallocated optimizer step {opt_speedup:.3f}x not faster than allocating"
    )
    # The PPO update is graph-construction-bound; guard against regression
    # rather than demanding a win the timer cannot resolve.
    assert ppo_speedup >= 0.90, (
        f"preallocated PPO update {ppo_speedup:.3f}x — more than 10% slower than baseline"
    )
    if not kernel_available:
        pytest.skip(f"compiled kernel unavailable: {nnb.compiled_kernel_error()}")
    assert all(row["speedup"] > 1.0 for row in matmul_rows), matmul_rows
    assert matmul_geomean >= 2.0, (
        f"blocked rc-matmul geomean speedup {matmul_geomean:.2f}x below 2x target"
    )
