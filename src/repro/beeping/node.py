"""Protocol interface for devices in the beeping network."""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..errors import ConfigurationError
from .model import Action

__all__ = ["BeepingProtocol", "ScheduledProtocol"]


class BeepingProtocol(ABC):
    """The behaviour of one device across beeping rounds.

    The engine calls :meth:`act` at the start of each round and
    :meth:`observe` with the heard bit at the end of the round.  Per the
    paper's convention (Section 1.5), a beeping device observes a 1 for its
    own round (possibly flipped by noise); a listening device observes the
    OR of its neighbours' beeps (possibly flipped).
    """

    @abstractmethod
    def act(self, round_index: int) -> Action:
        """Choose to BEEP or LISTEN in the given round."""

    @abstractmethod
    def observe(self, round_index: int, heard: bool) -> None:
        """Receive the bit heard in the given round."""

    @property
    def finished(self) -> bool:
        """Whether the device has terminated (default: never)."""
        return False

    def output(self) -> object:
        """The device's final output (default: ``None``)."""
        return None


class ScheduledProtocol(BeepingProtocol):
    """A device that beeps according to a fixed boolean schedule and records
    everything it hears.

    Construct with the device's beep schedule; after a
    :class:`~repro.beeping.network.BeepingNetwork` run, :attr:`heard` holds
    the observation string.  It is the per-round replay of a code phase
    that the tests hold the schedule executor
    (:func:`repro.engine.run_schedule_batch`) to, bit for bit.

    ``start_round`` anchors the schedule: global round ``start_round + i``
    executes schedule position ``i`` (the engine passes global round
    numbers, which also key the noise stream).
    """

    def __init__(self, schedule: np.ndarray, start_round: int = 0) -> None:
        schedule = np.asarray(schedule, dtype=bool)
        if schedule.ndim != 1:
            raise ConfigurationError("schedule must be a 1-D boolean array")
        self._schedule = schedule
        self._start_round = start_round
        self._heard = np.zeros(len(schedule), dtype=bool)
        self._observed = 0

    @property
    def schedule(self) -> np.ndarray:
        """The fixed beep schedule (True = beep)."""
        return self._schedule

    @property
    def heard(self) -> np.ndarray:
        """Observations recorded so far (valid up to the last round run)."""
        return self._heard

    def act(self, round_index: int) -> Action:
        position = round_index - self._start_round
        if not 0 <= position < len(self._schedule):
            return Action.LISTEN
        return Action.BEEP if self._schedule[position] else Action.LISTEN

    def observe(self, round_index: int, heard: bool) -> None:
        position = round_index - self._start_round
        if 0 <= position < len(self._heard):
            self._heard[position] = heard
            self._observed = max(self._observed, position + 1)

    @property
    def finished(self) -> bool:
        return self._observed >= len(self._schedule)

    def output(self) -> np.ndarray:
        return self._heard.copy()
