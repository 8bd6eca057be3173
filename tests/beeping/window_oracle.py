"""The boolean, float-compare flip windows: the oracle for packed windows.

Before the noise layer stored its windows packed, every window was drawn
as ``Generator.random((4096, n)) < ε`` (one threshold per column for a
heterogeneous channel, argsorted whole-round bursts for an adversarial
one) and cached as a boolean ``(4096, n)`` matrix.  This module keeps
that generator, keyed exactly as the channels key theirs, so the tests
can hold ``flip_block``'s packed words to ``pack_rows`` of its boolean
block.
"""

from __future__ import annotations

import numpy as np

from repro.beeping.noise import (
    AdversarialNoise,
    BernoulliNoise,
    HeterogeneousNoise,
    WindowedNoise,
)
from repro.rng import derive_rng

#: Rounds per noise window.
WINDOW = 4096


def window_rng(seed: int, window: int) -> np.random.Generator:
    """The Philox generator of one window of a channel seeded ``seed``."""
    key = derive_rng(seed, "beep-noise-key").integers(
        0, 2**63, size=2, dtype=np.uint64
    )
    return np.random.Generator(
        np.random.Philox(key=key, counter=[0, 0, np.uint64(window), 0])
    )


def window_flips(channel: WindowedNoise, window: int, n: int) -> np.ndarray:
    """The boolean round-major ``(WINDOW, n)`` flips of one window."""
    rng = window_rng(channel.seed, window)
    if isinstance(channel, BernoulliNoise):
        return rng.random((WINDOW, n)) < channel.eps
    if isinstance(channel, HeterogeneousNoise):
        return rng.random((WINDOW, n)) < channel.eps_vector[None, :]
    assert isinstance(channel, AdversarialNoise)
    block = np.zeros((WINDOW, n), dtype=bool)
    budget = int(channel.eps * WINDOW * n)
    if budget == 0:
        return block
    full, remainder = divmod(budget, n)
    round_order = np.argsort(rng.random(WINDOW), kind="stable")
    block[round_order[:full]] = True
    if remainder:
        node_order = np.argsort(rng.random(n), kind="stable")
        block[round_order[full], node_order[:remainder]] = True
    return block


def flip_block(
    channel: WindowedNoise, round_index: int, rounds: int, n: int
) -> np.ndarray:
    """The boolean ``(n, rounds)`` flips from ``round_index``, window by window."""
    flips = np.empty((n, rounds), dtype=bool)
    window, offset = divmod(round_index, WINDOW)
    position = 0
    while position < rounds:
        take = min(WINDOW - offset, rounds - position)
        block = window_flips(channel, window, n)
        flips[:, position : position + take] = block[offset : offset + take].T
        position += take
        window, offset = window + 1, 0
    return flips
