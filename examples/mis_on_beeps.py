"""The beeping-model complexity split (paper, Section 7).

Maximal independent set can be solved *natively* in the beeping model in
`O(log² n)` rounds — no message-passing simulation needed — while maximal
matching provably costs `Ω(Δ log n)` beeping rounds (Theorem 22).  This
script runs both on the same networks and prints the round counts side by
side: MIS stays cheap as the network densifies, matching scales with Δ.

Run:  python examples/mis_on_beeps.py
"""

from __future__ import annotations

from repro import SimulationParameters, Topology, random_regular_graph
from repro.algorithms import (
    VectorizedMaximalMatching,
    check_matching,
    check_mis,
    matching_field_widths,
    matching_message_bits,
)
from repro.beeping import beeping_mis
from repro.core import BeepSimulator
from repro.lower_bounds import matching_round_bound


def main() -> None:
    n = 20
    print(f"n = {n} devices, noiseless beeping model\n")
    print(f"{'Delta':>6}  {'MIS rounds':>11}  {'matching rounds':>16}  "
          f"{'matching LB':>12}  {'both valid':>10}")
    for delta in (3, 5, 7):
        topology = Topology(random_regular_graph(n, delta, seed=1))

        mis = beeping_mis(topology, seed=1)
        mis_ok, _ = check_mis(topology, mis.in_mis)

        ids = list(range(n))
        id_bits, value_bits = matching_field_widths(n, ids, value_exponent=3)
        params = SimulationParameters(
            message_bits=matching_message_bits(n, ids, value_exponent=3),
            max_degree=delta,
            eps=0.0,
            c=3,
        )
        result = BeepSimulator(topology, params=params, seed=1) \
            .run_broadcast_congest(
                VectorizedMaximalMatching(id_bits, value_bits), max_rounds=80
            )
        match_ok, _ = check_matching(topology, ids, result.outputs)

        print(f"{delta:>6}  {mis.rounds_used:>11}  "
              f"{result.stats.beep_rounds:>16}  "
              f"{matching_round_bound(delta, n):>12}  "
              f"{str(mis_ok and match_ok):>10}")

    print(
        "\nMIS runs directly on carrier sensing (rank-knockout phases); its"
        "\ncost is polylog(n) and indifferent to density.  Matching must move"
        "\nactual payload bits between specific neighbours, and Theorem 22"
        "\nshows the Delta factor is unavoidable - the simulation used here"
        "\nis within a log n factor of that floor."
    )


if __name__ == "__main__":
    main()
