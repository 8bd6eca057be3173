"""Run contexts: everything an experiment needs to know about *how* to run.

:class:`RunContext` is one immutable object carrying the execution
**profile** (``"quick"``, ``"full"``, or a custom label), the master
seed, a progress callback, and factory
methods for per-experiment child RNG streams (built on
:func:`repro.rng.derive_rng`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import ConfigurationError
from ..rng import derive_rng, derive_seed

__all__ = ["PROFILES", "RunContext"]

#: The built-in execution profiles.  ``"quick"`` is the CI-sized sweep,
#: ``"full"`` the paper-sized one; anything else is a custom label that
#: experiments treat as quick but that is recorded verbatim in results.
PROFILES: tuple[str, ...] = ("quick", "full")


@dataclass(frozen=True)
class RunContext:
    """Immutable execution context handed to every experiment runner.

    Attributes
    ----------
    experiment_id:
        The id of the experiment being run (e.g. ``"e06"``).
    profile:
        Execution profile: ``"quick"``, ``"full"``, or a custom label
        (custom labels behave like ``"quick"`` for sweep sizing but are
        recorded in result metadata).
    seed:
        Master seed; all child streams derive from it.
    progress:
        Optional callback receiving free-text progress messages.
    """

    experiment_id: str
    profile: str = "quick"
    seed: int = 0
    progress: Callable[[str], None] | None = None

    def __post_init__(self) -> None:
        """Validate the profile label."""
        if not self.profile or not isinstance(self.profile, str):
            raise ConfigurationError(
                f"profile must be a non-empty string, got {self.profile!r}"
            )

    def __getstate__(self) -> dict:
        """Pickle the context *without* its progress callback.

        Progress callbacks are process-local — closures over queues,
        open sockets, or UI state — and must never cross a process
        boundary; a context that gets pickled into a worker therefore
        drops the callback instead of failing (or worse, smuggling a
        broken copy across).  Runners that want worker-side progress
        re-wire it explicitly through a queue-backed relay (see
        :func:`repro.experiments.api._progress_relay`).
        """
        state = dict(self.__dict__)
        state["progress"] = None
        return state

    @property
    def quick(self) -> bool:
        """True for every profile except ``"full"``."""
        return self.profile != "full"

    @property
    def full(self) -> bool:
        """True iff this is the paper-sized ``"full"`` profile."""
        return self.profile == "full"

    def rng(self, *context: object) -> np.random.Generator:
        """A child generator keyed by the master seed plus ``context``.

        ``ctx.rng("e02")`` is exactly ``derive_rng(seed, "e02")``.
        """
        return derive_rng(self.seed, *context)

    def child_seed(self, *context: object) -> int:
        """A 63-bit integer sub-seed derived from the master seed."""
        return derive_seed(self.seed, *context)

    def report(self, message: str) -> None:
        """Forward ``message`` to the progress callback, if one is set."""
        if self.progress is not None:
            self.progress(f"{self.experiment_id}: {message}")
