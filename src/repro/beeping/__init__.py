"""The beeping network substrate (Section 1.1 of the paper).

Discrete synchronous rounds; in each round every device either **beeps** or
**listens**.  A listener hears a beep iff at least one neighbour beeped; in
the noisy model the heard bit is flipped independently with probability
``ε ∈ (0, 1/2)``.

This package holds the model itself: the channels and churn schedules
of the scenario layer (:mod:`repro.beeping.noise`) and
:class:`BeepingNetwork`, a general round-by-round engine driving
arbitrary :class:`BeepingProtocol` objects.  Schedule-driven phases (an
``(n, rounds)`` beep matrix in, heard matrix out), which is how the code
phases of Algorithm 1 run at speed, go to the schedule executor above
it, :func:`repro.engine.run_schedule_batch`; the two paths have
identical semantics (property-tested against each other).
"""

from .model import Action, BEEP, LISTEN
from .noise import (
    AdversarialNoise,
    BernoulliNoise,
    DynamicTopology,
    HeterogeneousNoise,
    NoiselessChannel,
    NoiseModel,
    WindowedNoise,
    make_noise_model,
    noise_model_names,
    parse_noise_model,
    unreliable_zone,
)
from .node import BeepingProtocol, ScheduledProtocol
from .network import BeepingNetwork
from .primitives import BeepWaveResult, beep_wave_broadcast
from .mis import BeepingMISProtocol, BeepingMISResult, beeping_mis

__all__ = [
    "Action",
    "BEEP",
    "LISTEN",
    "NoiseModel",
    "WindowedNoise",
    "BernoulliNoise",
    "HeterogeneousNoise",
    "AdversarialNoise",
    "DynamicTopology",
    "NoiselessChannel",
    "unreliable_zone",
    "make_noise_model",
    "noise_model_names",
    "parse_noise_model",
    "BeepingProtocol",
    "ScheduledProtocol",
    "BeepingNetwork",
    "BeepWaveResult",
    "beep_wave_broadcast",
    "BeepingMISProtocol",
    "BeepingMISResult",
    "beeping_mis",
]
