"""Receiver-side of Algorithm 1: the two decoding stages of Section 4.

**Phase 1** (Lemmas 8–9): node ``v`` heard ``x̃_v`` — the superimposition of
its inclusive neighbourhood's beep codewords with each bit flipped with
probability ε.  It accepts every candidate ``r`` whose codeword has fewer
than ``(2ε+1)/4 · c²γlog n`` ones in positions where ``x̃_v`` has none.

**Phase 2** (Lemma 10): for each accepted ``r``, node ``v`` reads the heard
string of the second phase at the one-positions of ``C(r)`` to obtain
``ỹ_{v,r}`` and decodes the message as the distance codeword nearest in
Hamming distance.

Both stages are exact implementations of the paper's tests, vectorised over
(candidate × node) with matrix products.  Candidate enumeration policy is
the caller's choice (see :class:`~repro.core.parameters.CandidatePolicy`).

These are the *reference* implementations the tests compare against.  The
sessions in :mod:`repro.core.round_simulator` decode through faster
kernels that must equal these value for value; no module in the package
calls these functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import bitstrings
from ..codes import BeepCode, CombinedCode
from ..errors import ConfigurationError

__all__ = ["DecodedMessage", "phase1_decode", "phase2_decode"]


@dataclass(frozen=True)
class DecodedMessage:
    """One decoded neighbour transmission.

    Attributes
    ----------
    message:
        The decoded message value.
    distance:
        Hamming distance between the heard subsequence and the winning
        distance codeword.
    margin:
        Gap to the runner-up codeword's distance (higher = more confident;
        0 means a tie, broken toward the smaller message value).
    """

    message: int
    distance: int
    margin: int


def phase1_decode(
    beep_code: BeepCode,
    heard: np.ndarray,
    candidates: Sequence[int],
    eps: float,
    codeword_matrix: np.ndarray | None = None,
) -> list[set[int]]:
    """Decode every node's accepted codeword set ``R̃_v`` (Lemma 9 test).

    Parameters
    ----------
    beep_code:
        The shared beep code ``C``.
    heard:
        Boolean ``(n, b)`` matrix; row ``v`` is the string ``x̃_v``.
    candidates:
        Candidate ``r`` values to test (the scan set; the per-candidate
        test is the paper's regardless of how this set was chosen).
    eps:
        The channel noise rate, which sets the acceptance threshold.
    codeword_matrix:
        Optional pre-built ``(len(candidates), b)`` matrix of the
        candidates' codewords (row ``i`` = ``C(candidates[i])``), letting
        sessions amortise encoding across rounds.

    Returns
    -------
    list[set[int]]
        Per node, the set of accepted candidate values.
    """
    heard = np.asarray(heard, dtype=bool)
    if heard.ndim != 2 or heard.shape[1] != beep_code.length:
        raise ConfigurationError(
            f"heard matrix must be (n, {beep_code.length}), got {heard.shape}"
        )
    if not candidates:
        return [set() for _ in range(heard.shape[0])]
    if codeword_matrix is None:
        codeword_matrix = beep_code.encode_many(list(candidates)).astype(np.int32)
    elif codeword_matrix.shape != (len(candidates), beep_code.length):
        raise ConfigurationError(
            f"codeword matrix must be ({len(candidates)}, {beep_code.length}), "
            f"got {codeword_matrix.shape}"
        )
    not_heard = (~heard).astype(np.int32)
    # statistics[i, v] = 1(C(candidate_i) ∧ ¬x̃_v)
    statistics = codeword_matrix @ not_heard.T
    threshold = beep_code.decoding_threshold(eps)
    accepted_mask = statistics < threshold
    return [
        {candidates[i] for i in np.flatnonzero(accepted_mask[:, v])}
        for v in range(heard.shape[0])
    ]


def phase2_decode(
    combined_code: CombinedCode,
    heard: np.ndarray,
    accepted: Sequence[set[int]],
    message_candidates: Sequence[int],
    codeword_matrix: np.ndarray | None = None,
) -> list[dict[int, DecodedMessage]]:
    """Decode every node's neighbour messages from the phase-2 heard strings.

    Parameters
    ----------
    combined_code:
        The shared codes.
    heard:
        Boolean ``(n, b)`` matrix; row ``v`` is the phase-2 string ``ỹ_v``.
    accepted:
        Per node, the codeword values accepted in phase 1 (the node's own
        value should already be removed by the caller).
    message_candidates:
        Candidate message values for nearest-codeword decoding.
    codeword_matrix:
        Optional pre-built boolean ``(len(message_candidates), len(D))``
        matrix of distance codewords (row ``i`` =
        ``D(message_candidates[i])``), letting sessions amortise encoding
        across rounds.

    Returns
    -------
    list[dict[int, DecodedMessage]]
        Per node, a mapping from accepted ``r`` value to decoded message.
    """
    heard = np.asarray(heard, dtype=bool)
    n = heard.shape[0]
    if len(accepted) != n:
        raise ConfigurationError(
            f"accepted sets ({len(accepted)}) must match heard rows ({n})"
        )
    if not message_candidates:
        raise ConfigurationError("phase 2 needs at least one message candidate")
    distance_code = combined_code.distance_code
    if codeword_matrix is None:
        codeword_matrix = np.stack(
            [distance_code.encode_int(m) for m in message_candidates]
        )
    elif codeword_matrix.shape != (
        len(message_candidates),
        distance_code.length,
    ):
        raise ConfigurationError(
            f"codeword matrix must be ({len(message_candidates)}, "
            f"{distance_code.length}), got {codeword_matrix.shape}"
        )
    # Sort candidates so argmin tie-break lands on the smallest message
    # value, matching DistanceCode.decode_nearest.
    order = np.argsort(np.asarray(message_candidates, dtype=np.int64), kind="stable")
    ordered_messages = [message_candidates[i] for i in order]
    ordered_matrix = codeword_matrix[order]

    results: list[dict[int, DecodedMessage]] = []
    beep_code = combined_code.beep_code
    for node in range(n):
        node_result: dict[int, DecodedMessage] = {}
        for r in sorted(accepted[node]):
            positions = bitstrings.ones_positions(beep_code.encode_int(r))
            subsequence = heard[node][positions]
            distances = np.count_nonzero(ordered_matrix != subsequence, axis=1)
            best = int(np.argmin(distances))
            best_distance = int(distances[best])
            if len(distances) > 1:
                runner_up = int(np.partition(distances, 1)[1])
                margin = runner_up - best_distance
            else:
                margin = int(len(subsequence) - best_distance)
            node_result[r] = DecodedMessage(
                message=ordered_messages[best],
                distance=best_distance,
                margin=margin,
            )
        results.append(node_result)
    return results
