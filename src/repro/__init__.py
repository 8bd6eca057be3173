"""repro — a full reproduction of "Optimal Message-Passing with Noisy Beeps"
(Peter Davies, PODC 2023).

The library implements the complete stack the paper builds on:

* the **noisy/noiseless beeping model** (:mod:`repro.beeping`);
* the **CONGEST / Broadcast CONGEST** message-passing models
  (:mod:`repro.congest`);
* the novel **beep codes**, **distance codes** and the **combined code**
  (:mod:`repro.codes`);
* the **optimal simulation** — Algorithm 1, Theorem 11, Corollary 12 —
  (:mod:`repro.core`);
* the **schedule executor** it runs on, which picks a dense or a
  bit-packed kernel by schedule size (:mod:`repro.engine`);
* the **prior-work baselines** it improves on (:mod:`repro.baselines`);
* the **maximal matching** application and friends (:mod:`repro.algorithms`);
* the **lower-bound machinery** of Section 5 (:mod:`repro.lower_bounds`).

See ``examples/quickstart.py`` for a guided tour.
"""

from .errors import (
    ConfigurationError,
    DecodingError,
    MessageSizeError,
    ProtocolViolationError,
    ReproError,
)
from .graphs import (
    Topology,
    build_family_graph,
    complete_bipartite_with_isolated,
    complete_graph,
    cycle_graph,
    disk_graph,
    family_names,
    gnp_graph,
    grid_graph,
    path_graph,
    random_regular_graph,
    star_graph,
    topology_families,
)
from .beeping import (
    BeepingNetwork,
    BernoulliNoise,
    NoiselessChannel,
    beep_wave_broadcast,
    run_schedule,
)
from .congest import (
    BroadcastCongestAlgorithm,
    BroadcastCongestNetwork,
    CongestAlgorithm,
    CongestNetwork,
    MessageCodec,
)
from .codes import BeepCode, CombinedCode, DistanceCode, KautzSingletonCode
from .core import (
    BatchedSession,
    BeepSimulator,
    BroadcastSession,
    CandidatePolicy,
    SimulationParameters,
    paper_strict_c,
    practical_c,
    simulate_broadcast_round,
)

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "ConfigurationError",
    "DecodingError",
    "MessageSizeError",
    "ProtocolViolationError",
    "Topology",
    "build_family_graph",
    "family_names",
    "topology_families",
    "complete_bipartite_with_isolated",
    "complete_graph",
    "cycle_graph",
    "disk_graph",
    "gnp_graph",
    "grid_graph",
    "path_graph",
    "random_regular_graph",
    "star_graph",
    "BeepingNetwork",
    "BernoulliNoise",
    "NoiselessChannel",
    "beep_wave_broadcast",
    "run_schedule",
    "BroadcastCongestAlgorithm",
    "BroadcastCongestNetwork",
    "CongestAlgorithm",
    "CongestNetwork",
    "MessageCodec",
    "BeepCode",
    "CombinedCode",
    "DistanceCode",
    "KautzSingletonCode",
    "BatchedSession",
    "BeepSimulator",
    "BroadcastSession",
    "CandidatePolicy",
    "SimulationParameters",
    "paper_strict_c",
    "practical_c",
    "simulate_broadcast_round",
    "__version__",
]
