"""Micro-benchmarks: the beeping substrate's execution paths.

The ``*_dense`` / ``*_bitpacked`` pairs measure the same workload on both
backends; compare their medians to see the packed-word speedup (the
acceptance bar is >= 3x on schedule execution at n >= 512 — in practice
the packed path lands far above it).
"""

from __future__ import annotations

import numpy as np

from repro.beeping import BernoulliNoise, run_schedule
from repro.core import (
    BroadcastSession,
    SimulationParameters,
    simulate_broadcast_round,
)
from repro.graphs import Topology, random_regular_graph


def test_batch_schedule_execution(benchmark):
    """Vectorised OR-of-neighbours over a 5000-round schedule."""
    topology = Topology(random_regular_graph(64, 6, seed=1))
    rng = np.random.default_rng(0)
    schedule = rng.random((64, 5000)) < 0.05

    heard = benchmark(run_schedule, topology, schedule)
    assert heard.shape == (64, 5000)


def _schedule_at_scale(n: int = 512) -> tuple[Topology, np.ndarray]:
    topology = Topology(random_regular_graph(n, 8, seed=1))
    rng = np.random.default_rng(0)
    return topology, rng.random((n, 5000)) < 0.05


def test_batch_schedule_execution_n512_dense(benchmark):
    """The schedule-execution hot path at n = 512, dense reference backend."""
    topology, schedule = _schedule_at_scale()
    heard = benchmark(run_schedule, topology, schedule, backend="dense")
    assert heard.shape == schedule.shape


def test_batch_schedule_execution_n512_bitpacked(benchmark):
    """Same workload on the uint64 bit-packed backend (>= 3x the dense path)."""
    topology, schedule = _schedule_at_scale()
    heard = benchmark(run_schedule, topology, schedule, backend="bitpacked")
    assert heard.shape == schedule.shape


def test_batch_schedule_execution_n512_noisy_dense(benchmark):
    """n = 512 schedule execution under Bernoulli noise, dense backend."""
    topology, schedule = _schedule_at_scale()
    channel = BernoulliNoise(0.1, seed=3)
    heard = benchmark(run_schedule, topology, schedule, channel, 0, "dense")
    assert heard.shape == schedule.shape


def test_batch_schedule_execution_n512_noisy_bitpacked(benchmark):
    """n = 512 noisy schedule execution with packed Philox flip words."""
    topology, schedule = _schedule_at_scale()
    channel = BernoulliNoise(0.1, seed=3)
    heard = benchmark(run_schedule, topology, schedule, channel, 0, "bitpacked")
    assert heard.shape == schedule.shape


def test_noise_application(benchmark):
    """Windowed Bernoulli flips over a 50k-round block."""
    channel = BernoulliNoise(0.1, seed=3)
    block = np.zeros((64, 50_000), dtype=bool)

    heard = benchmark(channel.apply, block, 0)
    assert heard.shape == block.shape


def test_full_simulated_round_noiseless(benchmark):
    """One complete Algorithm 1 round, n = 24, Delta = 4, eps = 0."""
    topology = Topology(random_regular_graph(24, 4, seed=2))
    params = SimulationParameters(message_bits=5, max_degree=4, eps=0.0, c=3)
    messages = [v % 32 for v in range(24)]

    outcome = benchmark(
        simulate_broadcast_round, topology, messages, params, 7
    )
    assert outcome.success


def test_full_simulated_round_noisy(benchmark):
    """One complete Algorithm 1 round, n = 24, Delta = 4, eps = 0.1."""
    topology = Topology(random_regular_graph(24, 4, seed=2))
    params = SimulationParameters(message_bits=5, max_degree=4, eps=0.1, c=5)
    messages = [v % 32 for v in range(24)]

    outcome = benchmark(
        simulate_broadcast_round, topology, messages, params, 7
    )
    assert outcome.beep_rounds_used == params.overhead


def test_session_round_amortised(benchmark):
    """One BroadcastSession round (codes/channel/matrices pre-built) —
    compare with test_full_simulated_round_noisy, which pays the per-call
    session setup every time."""
    topology = Topology(random_regular_graph(24, 4, seed=2))
    params = SimulationParameters(message_bits=5, max_degree=4, eps=0.1, c=5)
    messages = [v % 32 for v in range(24)]
    session = BroadcastSession(topology, params, seed=7)
    session.run_round(messages)  # warm the distance rows and noise windows

    def one_round():
        session.reset()
        return session.run_round(messages)

    outcome = benchmark(one_round)
    assert outcome.beep_rounds_used == params.overhead
