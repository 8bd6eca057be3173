"""The program's layer seams, wrapped from outside for the traced mode.

Every seam is a public function or method of ``repro``.  Module-level
functions are replaced wherever a ``repro`` module holds a reference to
them, because callers import the names directly (``repro.codes.beep``
looks up its own ``derive_rng``, ``repro.core.round_simulator`` its own
``phase1_decode``).  Methods are replaced on the class that defines them.
:func:`install` returns a function that puts every original back.

:func:`layer_metrics` turns the recorded spans of the timed units into
the per-layer metrics.  Spans opened during set-up sit under the
``setup`` root and are left out.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from typing import Callable

from .spans import Recorder, self_times, traced

__all__ = ["PER_LAYER_UNITS", "install", "layer_metrics"]

#: Layers whose self time is reported, in report order.
SELF_LAYERS = (
    "graphs.build",
    "rng.derive_rng",
    "codes.beep_encode",
    "codes.distance_encode",
    "beeping.noise.flip_block",
    "engine.run_schedule",
    "core.round_simulator.session_init",
    "core.round_simulator.run_round",
    "core.decoder.phase1_decode",
    "core.decoder.phase2_decode",
    "core.transpiler.run_broadcast_congest",
    "algorithms.matching",
    "sweeps.run",
    "sweeps.execute_batch",
)

#: Layers whose span count is reported as ``<layer>.calls``.
CALL_LAYERS = (
    "graphs.build",
    "rng.derive_rng",
    "codes.beep_encode",
    "codes.distance_encode",
    "beeping.noise.flip_block",
    "engine.run_schedule",
    "core.round_simulator.run_round",
    "core.decoder.phase1_decode",
    "core.decoder.phase2_decode",
)

#: Span names whose self time belongs to another layer.  ``Topology(...)``
#: is part of a graph build but is not a build of its own.
_FOLDED = {"graphs.topology": "graphs.build"}

#: Every per-layer metric with its unit, in report order.
PER_LAYER_UNITS: dict[str, str] = {
    **{f"{layer}.calls": "count" for layer in CALL_LAYERS},
    **{f"{layer}.self_s": "s" for layer in SELF_LAYERS},
    "codes.beep_cache.hit_ratio": "ratio",
    "beeping.noise.flip_bits": "bit",
    "engine.schedule_bits": "bit",
    "core.round_simulator.phase1_node_errors": "count",
    "core.round_simulator.phase2_node_errors": "count",
    "core.round_simulator.r_collisions": "count",
    "sweeps.replicas_per_session": "ratio",
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every seam so its calls are recorded; returns the undo."""
    import repro.sweeps.engine as sweep_engine
    from repro import rng
    from repro.algorithms import VectorizedMaximalMatching
    from repro.beeping.noise import WindowedNoise
    from repro.codes.beep import BeepCode
    from repro.codes.distance import DistanceCode
    from repro.core import decoder
    from repro.core.round_simulator import BatchedSession, BroadcastSession
    from repro.core.transpiler import BeepSimulator
    from repro.engine.bitpacked import BitpackedBackend
    from repro.engine.dense import DenseBackend
    from repro.graphs import build_family_graph

    undo: list[tuple[object, str, object]] = []

    def replace(owner: object, attribute: str, wrapper: object) -> None:
        undo.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    def function(original: Callable, name: str, before=None, after=None) -> None:
        wrapper = traced(recorder, name, original, before, after)
        for module_name, module in list(sys.modules.items()):
            if module_name != "repro" and not module_name.startswith("repro."):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    replace(module, attribute, wrapper)

    def method(cls: type, attribute: str, name: str, before=None, after=None):
        original = cls.__dict__[attribute]
        replace(cls, attribute, traced(recorder, name, original, before, after))

    def count_keying(args: tuple, kwargs: dict) -> None:
        if len(args) > 1 and args[1] == "beep-code":
            recorder.count("beep_keyings")

    def count_outcomes(result: object) -> None:
        outcomes = result if isinstance(result, list) else [result]
        for outcome in outcomes:
            recorder.count("phase1_node_errors", outcome.phase1_errors)
            recorder.count("phase2_node_errors", outcome.phase2_errors)
            recorder.count("r_collisions", int(outcome.r_collision))

    def count_schedule_bits(args: tuple, kwargs: dict) -> None:
        recorder.count("schedule_bits", args[2].size)

    function(rng.derive_rng, "rng.derive_rng", before=count_keying)
    function(build_family_graph, "graphs.build")
    replace(
        sweep_engine,
        "Topology",
        traced(recorder, "graphs.topology", sweep_engine.Topology),
    )
    method(
        BeepCode,
        "encode_int",
        "codes.beep_encode",
        before=lambda args, kwargs: recorder.count("beep_encode_int"),
    )
    method(BeepCode, "encode_many", "codes.beep_encode")
    method(DistanceCode, "encode_int", "codes.distance_encode")
    method(
        WindowedNoise,
        "flip_block",
        "beeping.noise.flip_block",
        before=lambda args, kwargs: recorder.count("flip_bits", args[2] * args[3]),
    )
    # Both backends "auto" resolves to, by schedule size.
    for backend in (BitpackedBackend, DenseBackend):
        for attribute in ("run_schedule", "run_schedule_batch"):
            method(
                backend,
                attribute,
                "engine.run_schedule",
                before=count_schedule_bits,
            )
    method(BroadcastSession, "__init__", "core.round_simulator.session_init")
    method(
        BatchedSession,
        "__init__",
        "core.round_simulator.session_init",
        before=lambda args, kwargs: recorder.count("batched_sessions"),
    )
    for session in (BroadcastSession, BatchedSession):
        method(
            session,
            "run_round",
            "core.round_simulator.run_round",
            after=count_outcomes,
        )
    function(decoder.phase1_decode, "core.decoder.phase1_decode")
    function(decoder.phase2_decode, "core.decoder.phase2_decode")
    method(
        BeepSimulator,
        "run_broadcast_congest",
        "core.transpiler.run_broadcast_congest",
    )
    for step in ("broadcast_step", "receive_step"):
        method(VectorizedMaximalMatching, step, "algorithms.matching")
    function(
        sweep_engine.run,
        "sweeps.run",
        after=lambda result: recorder.count("sweep_points", len(result.points)),
    )
    function(sweep_engine.execute_batch, "sweeps.execute_batch")

    def restore() -> None:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)

    return restore


def layer_metrics(recorder: Recorder) -> tuple[dict[str, float], float]:
    """Per-layer metrics of the timed units, and their traced wall time.

    Every metric of :data:`PER_LAYER_UNITS` is returned except
    ``trace.overhead_ratio``, which needs the untraced run.  The self
    times plus ``trace.unattributed_s`` add up to the returned wall time
    exactly when every span inside a unit is attributed to a layer.
    """
    own = self_times(recorder.starts, recorder.ends, recorder.parents)
    calls: Counter[str] = Counter()
    self_s: defaultdict[str, float] = defaultdict(float)
    unattributed = 0.0
    timed = 0.0
    for index, name in enumerate(recorder.names):
        if recorder.phases[index] != "unit":
            continue
        if name == "unit":
            unattributed += own[index]
            timed += recorder.ends[index] - recorder.starts[index]
            continue
        calls[name] += 1
        self_s[_FOLDED.get(name, name)] += own[index]

    def counter(name: str) -> float:
        return recorder.counters.get(("unit", name), 0)

    metrics: dict[str, float] = {}
    for layer in CALL_LAYERS:
        metrics[f"{layer}.calls"] = calls[layer]
    for layer in SELF_LAYERS:
        metrics[f"{layer}.self_s"] = self_s.pop(layer, 0.0)
    if self_s:
        raise ValueError(f"spans outside every layer: {sorted(self_s)}")
    encodes = counter("beep_encode_int")
    metrics["codes.beep_cache.hit_ratio"] = (
        1.0 - counter("beep_keyings") / encodes if encodes else 0.0
    )
    metrics["beeping.noise.flip_bits"] = counter("flip_bits")
    metrics["engine.schedule_bits"] = counter("schedule_bits")
    for name in ("phase1_node_errors", "phase2_node_errors", "r_collisions"):
        metrics[f"core.round_simulator.{name}"] = counter(name)
    sessions = counter("batched_sessions")
    metrics["sweeps.replicas_per_session"] = (
        counter("sweep_points") / sessions if sessions else 0.0
    )
    metrics["trace.unattributed_s"] = unattributed
    return metrics, timed
