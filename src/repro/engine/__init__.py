"""Pluggable simulation backends for the beeping substrate.

Everything that executes beep schedules — :func:`repro.beeping.run_schedule`,
:class:`repro.core.BroadcastSession` and the CONGEST runners above it —
delegates its carrier sense to a :class:`SimulationBackend`, whose one
method is ``run_schedule_batch``:

* :class:`DenseBackend` (``"dense"``) — the scipy-CSR/numpy reference path;
* :class:`BitpackedBackend` (``"bitpacked"``) — schedules packed into
  ``uint64`` words, 64 rounds per OR/XOR;
* :class:`ShardedBackend` (``"sharded"``) — either of the above hash-sharded
  across ``P`` worker processes with chunked boundary exchange (see
  :mod:`repro.engine.sharded`); built via :func:`with_shards`.

All are bit-identical (property-tested); they differ only in speed.
Selection is by name, by instance, or ``"auto"`` — a size heuristic that
picks the packed path once the schedule is big enough to amortise the
pack/unpack overhead.  :func:`set_default_backend` changes what ``"auto"``
callers get process-wide (the experiments harness exposes it as
``--backend``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .base import (
    SimulationBackend,
    normalize_batch_args,
    validate_schedule,
    validate_schedule_batch,
)
from .bitpacked import BitpackedBackend
from .dense import DenseBackend
from .mp import START_METHOD, mp_context
from .packing import WORD_BITS, pack_rows, unpack_rows, words_for

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..graphs import Topology

__all__ = [
    "SimulationBackend",
    "DenseBackend",
    "BitpackedBackend",
    "ShardedBackend",
    "with_shards",
    "mp_context",
    "START_METHOD",
    "available_backends",
    "get_backend",
    "resolve_backend",
    "get_default_backend",
    "set_default_backend",
    "validate_schedule",
    "validate_schedule_batch",
    "normalize_batch_args",
    "WORD_BITS",
    "pack_rows",
    "unpack_rows",
    "words_for",
]

#: Singleton registry — backends are stateless, one instance each suffices.
_BACKENDS: dict[str, SimulationBackend] = {
    DenseBackend.name: DenseBackend(),
    BitpackedBackend.name: BitpackedBackend(),
}

#: ``"auto"`` flips to the bit-packed path once the schedule clears both
#: thresholds: enough total bits to amortise pack/unpack, and enough rounds
#: that the 64-per-word reduction actually compresses the work.
_AUTO_MIN_CELLS = 4096
_AUTO_MIN_ROUNDS = 64

_default_backend: "str | SimulationBackend" = "auto"


def available_backends() -> tuple[str, ...]:
    """Registered backend names, in registration order."""
    return tuple(_BACKENDS)


def get_backend(name: str) -> SimulationBackend:
    """Look up a backend by registry name.

    Unknown names raise :class:`~repro.errors.ConfigurationError` listing
    every registered backend, so ``--backend`` typos get a one-line error.
    """
    from ..errors import ConfigurationError

    try:
        return _BACKENDS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown backend {name!r}; known: {sorted(_BACKENDS)} (or 'auto')"
        ) from None


def set_default_backend(spec: "str | SimulationBackend") -> None:
    """Set what ``backend=None`` / ``"auto"``-less callers resolve to.

    ``spec`` is a registry name, ``"auto"``, or a backend instance.  The
    experiments harness wires its ``--backend`` flag here so every layer of
    a run (schedules, sessions, CONGEST transpilation) picks it up without
    threading the choice through each experiment signature.
    """
    global _default_backend
    if isinstance(spec, SimulationBackend):
        _default_backend = spec
        return
    if spec != "auto":
        get_backend(spec)  # validate the name eagerly
    _default_backend = spec


def get_default_backend() -> "str | SimulationBackend":
    """The current process-wide default backend spec."""
    return _default_backend


def _auto_choice(
    topology: "Topology | None" = None, rounds: "int | None" = None
) -> SimulationBackend:
    if topology is None or rounds is None:
        return _BACKENDS[DenseBackend.name]
    n = topology.num_nodes
    if rounds >= _AUTO_MIN_ROUNDS and n * rounds >= _AUTO_MIN_CELLS:
        return _BACKENDS[BitpackedBackend.name]
    return _BACKENDS[DenseBackend.name]


def resolve_backend(
    spec: "str | SimulationBackend | None" = None,
    topology: "Topology | None" = None,
    rounds: "int | None" = None,
) -> SimulationBackend:
    """Resolve a backend spec to an instance.

    ``spec`` may be a backend instance (returned as-is), a registry name,
    ``"auto"``, or ``None`` (= the process default, itself ``"auto"``
    unless :func:`set_default_backend` changed it).  ``"auto"`` consults
    the schedule shape, ``topology`` plus ``rounds``, and resolves to the
    dense backend when either is missing.
    """
    if spec is None:
        spec = _default_backend
    if isinstance(spec, SimulationBackend):
        return spec
    if spec == "auto":
        return _auto_choice(topology, rounds)
    return get_backend(spec)


# Imported after the registry helpers exist: the sharded coordinator
# resolves its local kernel through ``resolve_backend`` lazily.
from .sharded import ShardedBackend  # noqa: E402


def with_shards(
    spec: "str | SimulationBackend | None",
    shards: int,
    memory_budget_bytes: "int | None" = None,
) -> "str | SimulationBackend | None":
    """Wrap a backend spec in a :class:`ShardedBackend` when ``shards > 1``.

    The single seam every ``--shards`` flag goes through: ``shards <= 1``
    returns ``spec`` unchanged (no worker pool, byte-for-byte the
    existing single-process path), while ``shards > 1`` returns a
    :class:`ShardedBackend` using ``spec`` as its local kernel.  A spec
    that is already a :class:`ShardedBackend` is returned as-is when the
    shard counts agree, and rejected otherwise — nesting sharded tiers
    is never meaningful.
    """
    from ..errors import ConfigurationError

    if isinstance(spec, ShardedBackend):
        if spec.shards != shards and shards > 1:
            raise ConfigurationError(
                f"backend is already sharded ({spec.shards} shards); "
                f"cannot re-shard to {shards}"
            )
        return spec
    if shards is None or int(shards) <= 1:
        return spec
    base = None if spec in (None, "auto") else spec
    return ShardedBackend(
        int(shards), base=base, memory_budget_bytes=memory_budget_bytes
    )
