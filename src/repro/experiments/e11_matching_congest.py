"""E11 — Lemmas 17–20: Algorithm 3 maximal matching in Broadcast CONGEST.

Three claims: outputs are always valid maximal matchings (Lemma 17), each
iteration removes at least half the edges in expectation (Lemma 19), and
the algorithm finishes in O(log n) rounds w.h.p. (Lemma 20).
"""

from __future__ import annotations

import math

from ..algorithms import check_matching, run_matching_bc
from ..graphs import Topology, gnp_graph, random_regular_graph
from ..rng import derive_rng
from .context import RunContext
from .spec import experiment
from .table import Table

__all__ = ["run", "measure_edge_decay"]


def measure_edge_decay(
    topology: Topology, iterations: int, seed: int
) -> list[float]:
    """Per-iteration fraction of edges removed by centralised Luby matching.

    Runs Algorithm 2 (the centralised form) to isolate the Lemma 19
    per-iteration claim from the message-passing machinery.
    """
    rng = derive_rng(seed, "e11-luby")
    edges = set(topology.edges())
    fractions: list[float] = []
    for _ in range(iterations):
        if not edges:
            break
        values = {edge: float(rng.random()) for edge in edges}
        in_matching = []
        for edge in edges:
            u, v = edge
            adjacent = [
                other
                for other in edges
                if other != edge and (u in other or v in other)
            ]
            if all(values[edge] < values[other] for other in adjacent):
                in_matching.append(edge)
        removed = set()
        matched_nodes = {node for edge in in_matching for node in edge}
        for edge in edges:
            if edge[0] in matched_nodes or edge[1] in matched_nodes:
                removed.add(edge)
        fractions.append(len(removed) / len(edges))
        edges -= removed
    return fractions


@experiment(
    id="e11",
    title="Lemmas 17-20: matching in BC",
    claim="Lemmas 17-20",
    tags=("matching",),
)
def run(ctx: RunContext) -> list[Table]:
    """Validity + round scaling + edge decay."""
    rounds_table = Table(
        title="E11a: Algorithm 3 rounds and validity (Lemmas 17, 20)",
        headers=[
            "graph",
            "n",
            "Delta",
            "rounds",
            "iterations",
            "4*log2(n)",
            "valid",
            "finished",
        ],
        notes=[
            "runs on the array-native Broadcast CONGEST engine (the tests "
            "hold it bit-identical per seed to the per-node engine)",
        ],
    )
    sizes = [16, 48] if ctx.quick else [16, 64, 256, 512]
    for n in sizes:
        for name, graph in [
            ("G(n, 4/n)", gnp_graph(n, min(1.0, 4.0 / n), seed=ctx.seed)),
            ("4-regular", random_regular_graph(n, 4, seed=ctx.seed)),
        ]:
            topology = Topology(graph)
            result = run_matching_bc(topology, seed=ctx.seed)
            ok, _ = check_matching(topology, list(range(n)), result.outputs)
            iterations = max(0, (result.rounds_used - 1 + 3) // 4)
            rounds_table.add_row(
                name,
                n,
                topology.max_degree,
                result.rounds_used,
                iterations,
                4 * math.ceil(math.log2(n)),
                ok,
                result.finished,
            )

    decay_table = Table(
        title="E11b: per-iteration edge removal (Lemma 19: >= 1/2 expected)",
        headers=["graph", "n", "iteration", "edges removed fraction"],
    )
    n = 48 if ctx.quick else 128
    topology = Topology(gnp_graph(n, 6.0 / n, seed=ctx.seed))
    fractions = measure_edge_decay(topology, iterations=6, seed=ctx.seed)
    for index, fraction in enumerate(fractions):
        decay_table.add_row("G(n, 6/n)", n, index + 1, fraction)
    if fractions:
        mean = sum(fractions) / len(fractions)
        decay_table.notes.append(
            f"mean removal fraction {mean:.3f} (Lemma 19 predicts >= 0.5 "
            "in expectation)"
        )
    return [rounds_table, decay_table]
