"""Transmission-side of Algorithm 1: building the two phase schedules.

Phase 1: node ``v`` beeps the bits of ``C(r_v)`` (one bit per round).
Phase 2: node ``v`` beeps the bits of ``CD(r_v, m_v)``.

Nodes with no message this round (``None``) abstain from both phases — they
only listen, so their codeword simply does not appear in neighbours'
superimpositions.

:func:`build_phase_schedules` is the *reference* implementation the tests
compare against.  The sessions in :mod:`repro.core.round_simulator` build
their schedules with a vectorised twin that must produce the same
matrices; no module in the package calls this function.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..codes import CombinedCode
from ..errors import ConfigurationError

__all__ = ["build_phase_schedules"]


def build_phase_schedules(
    combined_code: CombinedCode,
    r_values: Sequence[int],
    messages: Sequence[int | None],
) -> tuple[np.ndarray, np.ndarray]:
    """Build the ``(n, b)`` beep schedules for both phases of Algorithm 1.

    Parameters
    ----------
    combined_code:
        The shared codes ``C`` and ``D``.
    r_values:
        Each node's random string ``r_v`` (as integers).
    messages:
        Each node's message ``m_v`` for this simulated round, or ``None``
        for nodes that stay silent.

    Returns
    -------
    (phase1, phase2):
        Boolean schedule matrices; row ``v`` is node ``v``'s beep pattern.
    """
    if len(r_values) != len(messages):
        raise ConfigurationError(
            f"{len(r_values)} r-values but {len(messages)} messages"
        )
    n = len(r_values)
    b = combined_code.length
    phase1 = np.zeros((n, b), dtype=bool)
    phase2 = np.zeros((n, b), dtype=bool)
    for node in range(n):
        message = messages[node]
        if message is None:
            continue
        phase1[node] = combined_code.beep_code.encode_int(r_values[node])
        phase2[node] = combined_code.encode(r_values[node], message)
    return phase1, phase2
