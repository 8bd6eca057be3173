"""Sensor-field pairing: the paper's motivating deployment scenario.

A field of cheap sensors is dropped uniformly at random; devices within
radio range share a link, and communication is carrier-sense only (beeps)
with a noisy channel.  The devices must pair up with a radio neighbour for
redundant sampling — i.e. compute a **maximal matching** — using nothing
but noisy beeps.

The script runs the full Theorem 21 pipeline on a random geometric graph
and compares the measured beeping-round cost against the AGL-style TDMA
baseline [4] at the same message size and noise level.

Run:  python examples/sensor_field_pairing.py
"""

from __future__ import annotations

from repro import SimulationParameters, Topology, disk_graph
from repro.algorithms import (
    VectorizedMaximalMatching,
    check_matching,
    matching_field_widths,
    matching_message_bits,
)
from repro.baselines import TDMABroadcastSimulator
from repro.core import BeepSimulator


def main() -> None:
    num_sensors = 24
    radio_range = 0.28
    eps = 0.05

    graph = disk_graph(num_sensors, radio_range, seed=12, connect=True)
    topology = Topology(graph)
    ids = list(range(num_sensors))
    print(f"sensor field: {num_sensors} devices, radio range {radio_range}")
    print(f"links: {topology.num_edges}, max degree {topology.max_degree}, "
          f"channel noise eps={eps}\n")

    # Algorithm 3 for the whole field, and the message budget it needs.
    id_bits, value_bits = matching_field_widths(num_sensors, ids, value_exponent=3)
    budget = matching_message_bits(num_sensors, ids, value_exponent=3)

    # --- this paper's simulation -----------------------------------------
    params = SimulationParameters(
        message_bits=budget, max_degree=topology.max_degree, eps=eps, c=4
    )
    ours = BeepSimulator(topology, params=params, seed=3).run_broadcast_congest(
        VectorizedMaximalMatching(id_bits, value_bits), max_rounds=80
    )
    ok, reason = check_matching(topology, ids, ours.outputs)
    print("[Davies 2023 simulation]")
    print(f"  valid pairing: {ok} ({reason})")
    print(f"  beeping rounds: {ours.stats.beep_rounds} "
          f"({ours.stats.simulated_rounds} simulated rounds x "
          f"{params.overhead} overhead)")
    print(f"  failed rounds: {ours.stats.failed_rounds}")

    # --- the AGL-style TDMA baseline --------------------------------------
    baseline = TDMABroadcastSimulator(
        topology, message_bits=budget, eps=eps, seed=3
    )
    theirs = baseline.run_broadcast_congest(
        VectorizedMaximalMatching(id_bits, value_bits), max_rounds=80
    )
    ok_b, reason_b = check_matching(topology, ids, theirs.outputs)
    print("\n[AGL-style TDMA baseline]")
    print(f"  valid pairing: {ok_b} ({reason_b})")
    print(f"  colour classes: {baseline.num_colors}, "
          f"repetition factor: {baseline.repetitions}")
    print(f"  beeping rounds: {theirs.stats.beep_rounds} "
          f"(+ an unmodelled Delta^4 log n setup phase the paper removes)")

    # --- the pairing ------------------------------------------------------
    pairs = sorted({
        tuple(sorted((v, out)))
        for v, out in enumerate(ours.outputs)
        if out != "unmatched"
    })
    unmatched = [v for v, out in enumerate(ours.outputs) if out == "unmatched"]
    print(f"\npairs ({len(pairs)}): {pairs}")
    print(f"unpaired sensors (no available neighbour): {unmatched}")


if __name__ == "__main__":
    main()
