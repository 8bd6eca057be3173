"""The benchmark's three workloads, each a fixed, seed-determined amount of work.

A workload makes all of its inputs from the workload seed before it calls
into ``repro`` (:meth:`prepare`), builds what its timed units share
(:meth:`setup`), runs one unit of work (:meth:`run`) and turns the unit's
output into a :class:`UnitResult` (:meth:`check`): a digest of every
simulated outcome with timing fields left out, the simulated Broadcast
CONGEST rounds it completed, how many of them every node decoded exactly,
and what is wrong with the output, if anything.

The negative units of ``WARMUPS`` are the untimed warm-up units, one per
set-up; their inputs come from streams no timed unit uses.  Each workload
has a ``full`` size, the one measured, and a ``smoke`` size that runs the
same code in well under a second.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import AbstractContextManager
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["WARMUPS", "WORKLOADS", "UnitResult", "make_workload"]

#: Unit indices of the untimed warm-up units, one per set-up repetition.
WARMUPS = (-1, -2, -3)

Span = Callable[[str], AbstractContextManager]


@dataclass(frozen=True)
class UnitResult:
    """What one unit produced, for correctness checks and the metrics."""

    digest: str
    rounds: int
    successes: int
    problem: "str | None" = None


def digest(payload: object) -> str:
    """SHA-256 of a canonical JSON rendering of ``payload``."""
    text = json.dumps(payload, separators=(",", ":"), sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _stream(seed: int, workload: int, unit: int) -> np.random.Generator:
    """The input stream of one unit; warm-up units draw from their own."""
    if unit < 0:
        return np.random.default_rng([seed, workload, 0, -unit])
    return np.random.default_rng([seed, workload, 1, unit])


def _seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(value) for value in rng.integers(0, 2**31, size=count)]


class BatchedNoisy:
    """One ``BatchedSession.run_round`` of R seed-replicas on a random regular graph."""

    name = "batched_noisy"
    sizes = {
        "full": {"n": 512, "degree": 8, "eps": 0.02, "replicas": 16},
        "smoke": {"n": 16, "degree": 3, "eps": 0.02, "replicas": 2},
    }

    def __init__(self, n: int, degree: int, eps: float, replicas: int) -> None:
        self.n = n
        self.degree = degree
        self.eps = eps
        self.replicas = replicas
        # B = gamma * ceil(log2 n) with gamma = 1, as SimulationParameters
        # sizes it; setup checks the two agree.
        self.message_bits = max(1, math.ceil(math.log2(n)))

    def prepare(self, seed: int, units: int) -> None:
        shared = np.random.default_rng([seed, 1])
        self.graph_seed = _seeds(shared, 1)[0]
        self.replica_seeds = _seeds(shared, self.replicas)
        self.messages = {
            unit: _stream(seed, 1, unit)
            .integers(0, 1 << self.message_bits, size=(self.replicas, self.n))
            .tolist()
            for unit in (*WARMUPS, *range(units))
        }

    def setup(self, span: Span) -> None:
        from repro.core.parameters import SimulationParameters
        from repro.core.round_simulator import BatchedSession
        from repro.graphs import Topology, random_regular_graph

        with span("graphs.build"):
            topology = Topology(
                random_regular_graph(self.n, self.degree, seed=self.graph_seed)
            )
        params = SimulationParameters.for_network(self.n, self.degree, eps=self.eps)
        if params.message_bits != self.message_bits:
            raise RuntimeError(
                f"program sizes B={params.message_bits}, inputs use "
                f"B={self.message_bits}"
            )
        self.session = BatchedSession(topology, params, self.replica_seeds)

    def run(self, unit: int, span: Span) -> list:
        return self.session.run_round(self.messages[unit])

    def check(self, outcomes: list) -> UnitResult:
        payload = [
            [
                outcome.decoded,
                outcome.per_node_success.tolist(),
                outcome.success,
                outcome.beep_rounds_used,
                outcome.phase1_errors,
                outcome.phase2_errors,
                outcome.r_collision,
                [sorted(accepted) for accepted in outcome.accepted_sets],
            ]
            for outcome in outcomes
        ]
        return UnitResult(
            digest=digest(payload),
            rounds=len(outcomes),
            successes=sum(bool(outcome.success) for outcome in outcomes),
        )


class MatchingBeeps:
    """One Algorithm 3 maximal matching through ``BeepSimulator`` on a fresh graph."""

    name = "matching_beeps"
    sizes = {
        "full": {"n": 128, "degree": 8, "eps": 0.02},
        "smoke": {"n": 16, "degree": 3, "eps": 0.02},
    }

    #: Sample width x(e) in [n^3] instead of the paper's [n^9], as in e12.
    VALUE_EXPONENT = 3

    def __init__(self, n: int, degree: int, eps: float) -> None:
        self.n = n
        self.degree = degree
        self.eps = eps

    def prepare(self, seed: int, units: int) -> None:
        self.unit_seeds = {
            unit: _seeds(_stream(seed, 2, unit), 2)
            for unit in (*WARMUPS, *range(units))
        }

    def setup(self, span: Span) -> None:
        from repro.algorithms.maximal_matching import matching_field_widths
        from repro.core.parameters import SimulationParameters, practical_c

        self.id_bits, self.value_bits = matching_field_widths(
            self.n, value_exponent=self.VALUE_EXPONENT
        )
        self.params = SimulationParameters(
            message_bits=2 + 2 * self.id_bits + self.value_bits,
            max_degree=self.degree,
            eps=self.eps,
            c=practical_c(self.eps),
        )
        # The round budget run_matching_bc gives the algorithm.
        self.max_rounds = 1 + 4 * (4 * max(1, math.ceil(math.log2(self.n))) + 4)

    def run(self, unit: int, span: Span) -> tuple:
        from repro.algorithms import VectorizedMaximalMatching
        from repro.core.transpiler import BeepSimulator
        from repro.graphs import Topology, random_regular_graph

        graph_seed, simulator_seed = self.unit_seeds[unit]
        with span("graphs.build"):
            topology = Topology(
                random_regular_graph(self.n, self.degree, seed=graph_seed)
            )
        simulator = BeepSimulator(topology, params=self.params, seed=simulator_seed)
        result = simulator.run_broadcast_congest(
            VectorizedMaximalMatching(self.id_bits, self.value_bits),
            max_rounds=self.max_rounds,
        )
        return topology, result

    def check(self, output: tuple) -> UnitResult:
        from repro.algorithms import check_matching

        topology, result = output
        stats = result.stats
        valid, reason = check_matching(topology, list(range(self.n)), result.outputs)
        problem = None
        if not result.finished:
            problem = "matching did not finish within its round budget"
        elif not valid:
            problem = f"invalid matching: {reason}"
        payload = [
            list(result.outputs),
            result.finished,
            [
                stats.simulated_rounds,
                stats.beep_rounds,
                stats.failed_rounds,
                stats.phase1_node_errors,
                stats.phase2_node_errors,
                stats.r_collisions,
            ],
        ]
        return UnitResult(
            digest=digest(payload),
            rounds=stats.simulated_rounds,
            successes=stats.simulated_rounds - stats.failed_rounds,
            problem=problem,
        )


class SweepNoiseless:
    """One ``repro.sweeps.run`` pass over a noiseless zoo grid, serial and uncached."""

    name = "sweep_noiseless"
    sizes = {
        "full": {
            "families": (
                "expander",
                "torus",
                "hypercube",
                "caterpillar",
                "powerlaw",
                "gnp",
            ),
            "sizes": (32, 64, 128),
            "seeds": 4,
            "rounds": 4,
        },
        "smoke": {
            "families": ("expander", "torus"),
            "sizes": (16,),
            "seeds": 2,
            "rounds": 1,
        },
    }

    FAMILY_PARAMS = {
        "expander": {"degree": 3},
        "caterpillar": {"legs": 2},
        "powerlaw": {"attachment": 2},
        "gnp": {"p": 0.08},
    }

    #: Fields of a sweep point that are timing, not simulated outcome.
    TIMING_FIELDS = ("elapsed", "cached")

    def __init__(
        self, families: tuple, sizes: tuple, seeds: int, rounds: int
    ) -> None:
        self.families = families
        self.grid_sizes = sizes
        self.seeds_per_pass = seeds
        self.rounds = rounds

    def prepare(self, seed: int, units: int) -> None:
        # A warm-up pass runs one seed per cell: every family and size, at
        # a quarter of the work.
        self.unit_seeds = {
            unit: _seeds(_stream(seed, 3, unit), 1 if unit < 0 else self.seeds_per_pass)
            for unit in (*WARMUPS, *range(units))
        }

    def setup(self, span: Span) -> None:
        """Every point builds its own graph and session inside the pass."""

    def grid(self, seeds: list[int]) -> dict:
        return {
            "grid": {
                "topologies": list(self.families),
                "sizes": list(self.grid_sizes),
                "noises": [0.0],
                "backends": ["auto"],
                "seeds": seeds,
                "rounds": self.rounds,
            },
            "params": {
                family: params
                for family, params in self.FAMILY_PARAMS.items()
                if family in self.families
            },
        }

    def run(self, unit: int, span: Span):
        from repro import sweeps

        return sweeps.run(self.grid(self.unit_seeds[unit]), jobs=1)

    def check(self, result) -> UnitResult:
        points = [
            {
                key: value
                for key, value in point.items()
                if key not in self.TIMING_FIELDS
            }
            for point in result.points
        ]
        return UnitResult(
            digest=digest(points),
            rounds=sum(point["rounds"] for point in points),
            successes=sum(point["successes"] for point in points),
        )


WORKLOADS = {
    workload.name: workload
    for workload in (BatchedNoisy, MatchingBeeps, SweepNoiseless)
}


def make_workload(name: str, size: str = "full"):
    """Build workload ``name`` at size ``full`` or ``smoke``."""
    workload = WORKLOADS[name]
    return workload(**workload.sizes[size])
