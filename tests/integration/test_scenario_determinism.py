"""Cross-process determinism matrix for the scenario layer.

Every noise model × six zoo families, plus an algorithm workload run by
its entry point and by the per-node oracle, must be byte-identical
across two *fresh* interpreter processes: the digest below covers the
raw flip streams, the dynamic-topology epoch masks, and full
algorithm-workload outcomes.  Any hidden dependence on hash
randomisation, set/dict iteration order, or process-local state breaks
the equality — the strongest form of the seeded-determinism contract the
sweep cache and the spawn worker pools rely on.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

#: The matrix script, executed verbatim in fresh subprocesses.  It prints
#: one line per (family, probe) plus a final combined digest.
MATRIX_SCRIPT = r"""
import hashlib

from repro.algorithms import make_mis_algorithms
from repro.algorithms.luby_mis import _round_budget
from repro.beeping.noise import DynamicTopology, make_noise_model
from repro.congest import BroadcastCongestNetwork
from repro.graphs import Topology
from repro.graphs.generators import build_family_graph
from repro.sweeps.workloads import run_workload

FAMILIES = ("cycle", "path", "expander", "torus", "hypercube", "powerlaw")
MODELS = ("bernoulli", "adversarial", "zone:0.25")
N = 16

combined = hashlib.sha256()


def emit(label, payload):
    digest = hashlib.sha256(payload).hexdigest()
    combined.update(digest.encode())
    print(f"{label} {digest}")


for family in FAMILIES:
    topology = Topology(build_family_graph(family, N, seed=3))
    edges = repr(sorted(map(tuple, map(sorted, topology.graph.edges))))
    emit(f"{family}/graph", edges.encode())
    for model in MODELS:
        channel = make_noise_model(model, 0.05, 11, N)
        # straddles the 4096-round Philox window boundary
        emit(f"{family}/{model}", channel.flip_block(4090, 12, N).tobytes())
    dynamic = DynamicTopology(
        topology, period=5, churn=0.3, edge_failure=0.1, seed=7
    )
    masks = [
        sorted(map(tuple, map(sorted, dynamic.topology_at(e * 5).graph.edges)))
        for e in range(4)
    ]
    emit(f"{family}/churn", repr(masks).encode())
    outcome = run_workload("mis", topology, seed=5)
    emit(f"{family}/mis/entry", repr(outcome).encode())
    # The same run's per-node oracle, inline: the script sees only src/.
    algorithms, budget = make_mis_algorithms(topology)
    network = BroadcastCongestNetwork(topology, message_bits=budget, seed=5)
    oracle = network.run(algorithms, max_rounds=_round_budget(N))
    emit(f"{family}/mis/oracle", repr(oracle).encode())

print(f"combined {combined.hexdigest()}")
"""


def _run_matrix() -> str:
    repo = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    # Force fresh, differently-salted interpreters: equal output then
    # proves the digests don't lean on Python's hash randomisation.
    env.pop("PYTHONHASHSEED", None)
    result = subprocess.run(
        [sys.executable, "-c", MATRIX_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return result.stdout


def test_matrix_byte_identical_across_fresh_processes():
    first = _run_matrix()
    second = _run_matrix()
    assert first == second
    lines = first.strip().splitlines()
    # 6 families x (graph + 3 models + churn + entry + oracle) + combined
    assert len(lines) == 6 * 7 + 1
    assert lines[-1].startswith("combined ")
    assert len(lines[-1].split()[1]) == 64
