"""Quickstart: message passing over a noisy beeping network.

A guided tour of the library's core pipeline:

1. build a network topology;
2. simulate ONE Broadcast CONGEST round with Algorithm 1 (beep codes +
   distance codes) under channel noise, and inspect what every device
   decoded;
3. run a COMPLETE distributed algorithm (the paper's maximal matching,
   Algorithm 3) over the same noisy substrate via Theorem 11.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    BeepSimulator,
    BroadcastSession,
    SimulationParameters,
    Topology,
    gnp_graph,
)
from repro.algorithms import (
    VectorizedMaximalMatching,
    check_matching,
    matching_field_widths,
    matching_message_bits,
)


def step_one_round() -> None:
    print("=" * 70)
    print("Step 1: one Broadcast CONGEST round over noisy beeps (Algorithm 1)")
    print("=" * 70)

    topology = Topology(gnp_graph(16, 0.2, seed=1))
    print(f"network: n={topology.num_nodes}, m={topology.num_edges}, "
          f"max degree {topology.max_degree}")

    eps = 0.1  # every heard bit flips with probability 10%
    params = SimulationParameters.for_network(
        num_nodes=topology.num_nodes,
        max_degree=topology.max_degree,
        eps=eps,
        gamma=1,
    )
    print(f"noise eps={eps}, practical constant c={params.c}")
    print(f"message size B={params.message_bits} bits")
    print(f"beep-code length b={params.beep_code_length} "
          f"(= c^3 (Delta+1) B; two phases per round)")
    print(f"simulation overhead: {params.overhead} beeping rounds "
          "per Broadcast CONGEST round  [Theorem 11: O(Delta log n)]")

    messages = [(7 * v + 3) % (1 << params.message_bits)
                for v in range(topology.num_nodes)]
    outcome = BroadcastSession(topology, params, seed=42).run_round(messages)

    print(f"\nround success: {outcome.success} "
          f"(phase-1 errors {outcome.phase1_errors}, "
          f"phase-2 errors {outcome.phase2_errors})")
    for v in (0, 1, 2):
        expected = sorted(messages[int(u)] for u in topology.neighbors[v])
        print(f"  device {v}: decoded {outcome.decoded[v]}  expected {expected}")


def step_full_algorithm() -> None:
    print()
    print("=" * 70)
    print("Step 2: maximal matching over noisy beeps (Theorem 21)")
    print("=" * 70)

    topology = Topology(gnp_graph(16, 0.2, seed=1))
    n = topology.num_nodes
    ids = list(range(n))
    # The whole network's Algorithm 3 state in numpy columns, with the
    # message budget its fields need.
    id_bits, value_bits = matching_field_widths(n, ids, value_exponent=3)
    params = SimulationParameters(
        message_bits=matching_message_bits(n, ids, value_exponent=3),
        max_degree=topology.max_degree,
        eps=0.1,
        c=5,
    )
    simulator = BeepSimulator(topology, params=params, seed=7)
    result = simulator.run_broadcast_congest(
        VectorizedMaximalMatching(id_bits, value_bits), max_rounds=80
    )

    ok, reason = check_matching(topology, ids, result.outputs)
    print(f"valid maximal matching: {ok} ({reason})")
    print(f"Broadcast CONGEST rounds simulated: "
          f"{result.stats.simulated_rounds}")
    print(f"beeping rounds consumed: {result.stats.beep_rounds}")
    print(f"rounds that decoded perfectly at every node: "
          f"{result.stats.simulated_rounds - result.stats.failed_rounds}"
          f"/{result.stats.simulated_rounds}")
    matched = [(v, out) for v, out in enumerate(result.outputs)
               if out != "unmatched"]
    print(f"matched pairs: {sorted({tuple(sorted((v, o))) for v, o in matched})}")


if __name__ == "__main__":
    step_one_round()
    step_full_algorithm()
