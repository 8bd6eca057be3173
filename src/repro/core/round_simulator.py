"""Algorithm 1: simulating Broadcast CONGEST rounds with noisy beeps.

The full round protocol of Section 3:

1. every node ``v`` with a message picks ``r_v`` uniformly at random;
2. phase 1 (``b`` beeping rounds): ``v`` beeps the bits of ``C(r_v)``;
3. phase 2 (``b`` beeping rounds): ``v`` beeps the bits of ``CD(r_v, m_v)``;
4. every node decodes its neighbours' codeword set from the phase-1
   superimposition (Lemmas 8–9) and then each neighbour's message from the
   phase-2 subsequences (Lemma 10).

:class:`BroadcastSession` is the multi-round engine: it builds the code
pair, the channel and the distance-row LRU **once**, then runs rounds
with :meth:`~BroadcastSession.run_round`.  Each round starts at the
session's global beeping-round offset and moves it ``2b`` on, so
consecutive rounds chain; :meth:`~BroadcastSession.reset` is the one way
to move the offset, and a session reset to ``k · 2b`` runs exactly round
``k`` of a chained one (same seeds → same :class:`RoundOutcome`\\ s).

Every session has one plan/decode path, in index form.  The candidate
policy picks the two scan sets and nothing else.  The plan makes every
draw of the round (``r_v``, the candidate decoys, the message decoys)
and encodes both candidate lists, so a sender is just its
candidate index and its message index: ``CD(r_v, m_v)`` is ``D(m_v)``
written into the one-positions of ``C(r_v)`` (Notation 7).  Both codes
are random codes keyed by ``(seed, input)``, so one
:func:`~repro.codes.encode_batch` call, one Philox pass, derives every
codeword a round needs, for every replica of a batch at once
(:func:`_plan_round`).  Decoding
works on one array representation, the round's accepted ``(node,
candidate index)`` pairs in node-major order.  :func:`_phase1_pairs`
finds them with the Lemma 9 count (a gather over each codeword's
one-positions, or a float32 product on small rounds),
:func:`_phase2_nearest` gives each pair its nearest message index, and
the ground truth comes from the topology's CSR.  The results are
*exactly* equal (not just statistically) to the reference
implementations: the row-by-row encoder of
``tests/core/reference_round.py`` and the decoders of
:mod:`repro.core.decoder`, which stay public.  Together they are the
oracle the tests compare against (``tests/core/test_session_oracle.py``
replays whole rounds through them); no module here calls them.

Every round's beeping phases run through one driver, :func:`_run_round`,
as 3-D calls to the schedule executor,
:func:`repro.engine.run_schedule_batch`, on one schedule buffer that
phase 2 overwrites in place: a standalone :class:`BroadcastSession` is a
batch of one, and :class:`BatchedSession` stacks ``R`` seed-replicas of
the same ``(topology, params)`` pair — one :class:`BroadcastSession` per
seed — into one batch.
``BatchedSession(...).run_round(batch)[r]`` is bit-identical to what the
``r``-th standalone :class:`BroadcastSession` would return, a property
enforced by ``tests/core/test_batched_session.py``.

The returned :class:`RoundOutcome` carries both the decoded messages (which
downstream algorithms consume, right or wrong — simulation fidelity is part
of what the experiments measure) and ground-truth diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..beeping.noise import DynamicTopology, NoiseModel, make_noise_model
from ..codes import CombinedCode, encode_batch
from ..engine import run_schedule_batch
from ..errors import ConfigurationError
from ..graphs import Topology
from ..lru import LRUDict
from ..packing import sorted_unique
from ..rng import derive_rng, derive_seed, random_bits_many
from .parameters import CandidatePolicy, SimulationParameters

__all__ = [
    "RoundOutcome",
    "BroadcastSession",
    "BatchedSession",
]

#: Integers below 2^24 are exact in float32: phase 1's float32 product
#: is exact below this code length, and phase 2's float32 scores while
#: twice the codeword weight stays below it.  Past either bound an
#: integer path runs instead.
_EXACT_FLOAT32_LIMIT = 1 << 24

#: Phase 1 counts by gathering rows of ¬heard once ``candidates · n``
#: reaches this size; below it the per-step numpy overhead of the gather
#: loop loses to one float32 product.
_GATHER_MIN_CELLS = 1 << 14

#: Exhaustive candidate scans are exponential; refuse ``r_bits`` beyond
#: this size (``r_bits = c·B`` with ``c >= 3`` bounds ``B`` by 7).
_EXHAUSTIVE_LIMIT_BITS = 22

#: Distance-code rows cached across rounds (per session).  Rows are short
#: (``c²B`` bits) and in-flight messages recur across rounds (IDs, counters
#: ...), so this cache converts phase-2 matrix builds into lookups.
_DISTANCE_ROW_CACHE_SIZE = 8192


@dataclass(frozen=True)
class RoundOutcome:
    """Result of simulating one Broadcast CONGEST round.

    Attributes
    ----------
    decoded:
        Per node, the decoded neighbour messages as a sorted list (a
        multiset: two neighbours sending equal messages appear twice).
    per_node_success:
        Per node, whether the decoded multiset equals the true one.
    success:
        Whether every node decoded perfectly.
    beep_rounds_used:
        Beeping rounds consumed (``2b``).
    phase1_errors:
        Nodes whose accepted codeword set differed from the truth.
    phase2_errors:
        Nodes with correct phase 1 but a wrong decoded message multiset.
    r_collision:
        Whether two transmitting nodes drew identical random strings.
    accepted_sets:
        Per node, the accepted phase-1 candidate values (own value
        removed) — diagnostic view of ``R̃_v``.
    """

    decoded: list[list[int]]
    per_node_success: np.ndarray
    success: bool
    beep_rounds_used: int
    phase1_errors: int
    phase2_errors: int
    r_collision: bool
    accepted_sets: list[set[int]]


class BroadcastSession:
    """An amortised multi-round engine for Algorithm 1.

    All per-execution state — the code pair ``(C, D)``, the channel and
    the distance-row LRU — is built in the constructor; each
    :meth:`run_round` call then only pays for the round itself, planned
    and decoded through the exact vectorised kernels.  The session tracks
    the global beeping-round offset, so consecutive rounds chain, and
    :meth:`reset` moves it.

    Parameters
    ----------
    topology:
        The network (its max degree must not exceed ``params.max_degree``).
        A :class:`~repro.beeping.noise.DynamicTopology` churn schedule is
        accepted too: the beeping phases run against its per-epoch masks
        and each round's diagnostics are judged against the mask at the
        round's first beeping round.
    params:
        Code parameters.
    seed:
        Master seed; per-round randomness is derived from ``seed`` and
        the round's offset, so rounds are independent and the whole
        session is reproducible.
    policy, num_decoys:
        The candidate scan set (see docs/ARCHITECTURE.md, "Candidate
        policies"); ``num_decoys=0`` scans only the values in flight.
    channel:
        Override the noise channel (defaults to the one implied by
        ``params.eps``).
    codes:
        Reuse a previously built code pair.
    """

    def __init__(
        self,
        topology: Topology,
        params: SimulationParameters,
        seed: int,
        *,
        policy: CandidatePolicy = CandidatePolicy.ORACLE_WITH_DECOYS,
        num_decoys: int = 16,
        channel: NoiseModel | None = None,
        codes: CombinedCode | None = None,
    ) -> None:
        if topology.max_degree > params.max_degree:
            raise ConfigurationError(
                f"topology degree {topology.max_degree} exceeds parameter "
                f"max_degree {params.max_degree}"
            )
        if (
            policy is CandidatePolicy.EXHAUSTIVE
            and params.r_bits > _EXHAUSTIVE_LIMIT_BITS
        ):
            raise ConfigurationError(
                f"exhaustive policy limited to r_bits <= "
                f"{_EXHAUSTIVE_LIMIT_BITS}, got {params.r_bits}"
            )
        self._topology = topology
        self._params = params
        self._seed = seed
        self._policy = policy
        self._num_decoys = num_decoys
        self._codes = (
            codes
            if codes is not None
            else params.combined_code(derive_seed(seed, "codes"))
        )
        self._channel = (
            channel
            if channel is not None
            else make_noise_model(
                "bernoulli", params.eps, seed, topology.num_nodes
            )
        )
        self._round_offset = 0
        self._distance_rows: LRUDict[int, np.ndarray] = LRUDict(
            _DISTANCE_ROW_CACHE_SIZE
        )

    @property
    def topology(self) -> Topology:
        """The network topology."""
        return self._topology

    @property
    def params(self) -> SimulationParameters:
        """The code parameters in force."""
        return self._params

    @property
    def codes(self) -> CombinedCode:
        """The shared code pair ``(C, D)``, built once per session."""
        return self._codes

    @property
    def channel(self) -> NoiseModel:
        """The noise channel, built once per session."""
        return self._channel

    @property
    def next_round_offset(self) -> int:
        """The global beeping-round offset the next round will start at."""
        return self._round_offset

    def reset(self, round_offset: int = 0) -> None:
        """Move the session's global beeping-round offset (``>= 0``)."""
        if round_offset < 0:
            raise ConfigurationError(f"round_offset must be >= 0, got {round_offset}")
        self._round_offset = round_offset

    def run_round(self, messages: Sequence[int | None]) -> RoundOutcome:
        """Run Algorithm 1 once and decode every node's neighbour messages.

        ``messages`` holds, per node, the ``B``-bit message to broadcast or
        ``None`` to stay silent this round.  The round starts at the
        session's offset (it keys both the noise stream and the per-round
        random strings) and moves the offset to just past itself, so
        back-to-back calls chain contiguously.
        """
        return _run_round([self], _plan_round([self], [messages]))[0]

    def _round_topology(self, round_offset: int) -> Topology:
        """The static adjacency defining a round's ground truth.

        Static sessions always answer their own topology.  Under a
        :class:`~repro.beeping.noise.DynamicTopology` the round's
        diagnostics (true neighbour sets, per-node success) are judged
        against the mask active at the round's *first* beeping round —
        the epoch a device's transmission started under is the one its
        neighbours could have heard it in.
        """
        if isinstance(self._topology, DynamicTopology):
            return self._topology.topology_at(round_offset)
        return self._topology

    def _draw_round(
        self, messages: Sequence[int | None]
    ) -> "tuple[_Draws, np.ndarray, list[int]]":
        """The draw stage of :func:`_plan_round`: validation, draws, row lookups.

        Makes every draw of the round from the stream keyed by the
        session's offset, in the reference order: each node's random
        string, the candidate decoys, the message decoys.  The policy
        only picks the two candidate lists; then the message candidates
        are looked up in the session's distance-row LRU.  Returns the
        draws, the ``D(message_candidates)`` matrix and the rows of it
        the encode stage still owes (the LRU's misses; until then those
        rows are unset).
        """
        topology = self._topology
        params = self._params
        n = topology.num_nodes
        if len(messages) != n:
            raise ConfigurationError(f"got {len(messages)} messages for {n} nodes")
        for message in messages:
            if message is not None and (
                message < 0 or message >> params.message_bits
            ):
                raise ConfigurationError(
                    f"message {message} does not fit in {params.message_bits} bits"
                )

        # Step 1: every participating node draws r_v uniformly at random.
        round_rng = derive_rng(self._seed, "round-randomness", self._round_offset)
        r_values = random_bits_many(round_rng, n, params.r_bits)
        senders = [v for v in range(n) if messages[v] is not None]

        # The scan sets: the full domains, or the values in flight plus
        # decoys (a zero budget draws nothing).
        candidates: Sequence[int]
        message_candidates: Sequence[int]
        if self._policy is CandidatePolicy.EXHAUSTIVE:
            candidates = range(1 << params.r_bits)
            message_candidates = range(1 << params.message_bits)
        else:
            candidate_set = {r_values[v] for v in senders}
            candidate_set |= _draw_decoys(
                round_rng, params.r_bits, candidate_set, self._num_decoys
            )
            message_set = {messages[v] for v in senders}
            if message_set:
                message_set |= _draw_decoys(
                    round_rng,
                    params.message_bits,
                    message_set,
                    self._num_decoys,
                    max_draws=20 * self._num_decoys,
                )
            candidates = sorted(candidate_set)
            message_candidates = sorted(message_set)  # type: ignore[type-var]
        candidate_row = {value: row for row, value in enumerate(candidates)}
        message_row = {m: row for row, m in enumerate(message_candidates)}
        codewords = np.empty(
            (len(message_candidates), self._codes.distance_code.length), dtype=bool
        )
        misses: list[int] = []
        for row, message in enumerate(message_candidates):
            # A hit refreshes the row's recency (recurring messages are the
            # cache's whole point); the encode stage inserts misses.
            codeword = self._distance_rows.get(message)
            if codeword is None:
                misses.append(row)
            else:
                codewords[row] = codeword
        own = np.full(n, -1, dtype=np.int64)
        own[senders] = [candidate_row[r_values[v]] for v in senders]
        message_index = np.full(n, -1, dtype=np.int64)
        message_index[senders] = [message_row[messages[v]] for v in senders]
        draws = _Draws(
            round_offset=self._round_offset,
            candidates=candidates,
            message_candidates=message_candidates,
            own=own,
            message_index=message_index,
        )
        return draws, codewords, misses

    def _accepted_pairs(
        self, plan: "_RoundPlan", heard: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Phase 1's decode (Lemma 9): the accepted ``(node, candidate
        index)`` pairs of ``heard``, node-major, each sender's own
        candidate removed."""
        pair_node, pair_cand = _phase1_pairs(
            heard,
            plan.positions,
            self._codes.beep_code.decoding_threshold(self._params.eps),
        )
        keep = pair_cand != plan.own[pair_node]
        return pair_node[keep], pair_cand[keep]

    def _finish_round(
        self,
        plan: "_RoundPlan",
        pairs: "tuple[np.ndarray, np.ndarray]",
        heard2: np.ndarray,
    ) -> RoundOutcome:
        """Everything after phase 1's decode: phase 2's decode and the truth.

        Takes phase 1's accepted pairs (:meth:`_accepted_pairs`), reads
        the plan's candidate and message indices and draws nothing.
        Works on indices, never values (``r_v`` and messages can exceed
        64 bits); Python ints are rebuilt only for the public fields.
        Advances the session offset.
        """
        topology = self._round_topology(plan.round_offset)
        n = topology.num_nodes
        b = self._codes.length
        own = plan.own
        pair_node, pair_cand = pairs

        # Step 4b: phase-2 decoding (nearest distance codeword).
        if len(plan.codewords):
            decoded_node = pair_node
            best = _phase2_nearest(
                heard2, pair_node, plan.positions[pair_cand], plan.codewords
            )
        else:
            decoded_node = best = pair_node[:0]

        # Ground truth: each node's sending neighbours, from the CSR.
        adjacency = topology.adjacency
        edge_node = np.repeat(np.arange(n), np.diff(adjacency.indptr))
        edge_sender = adjacency.indices.astype(np.int64)
        sending = own[edge_sender] >= 0
        edge_node, edge_sender = edge_node[sending], edge_sender[sending]

        # Phase 1 was right where the accepted and the true (node, index)
        # key sets agree; the unique true keys keep set semantics under
        # r-collisions.
        k1 = max(1, len(plan.candidates))
        phase1_wrong = np.zeros(n, dtype=bool)
        phase1_wrong[
            np.setxor1d(
                pair_node * k1 + pair_cand,
                sorted_unique(edge_node * k1 + own[edge_sender]),
                assume_unique=True,
            )
            // k1
        ] = True

        # A node succeeded where its sorted decoded and true message
        # indices agree segment by segment (candidates sort like values).
        k2 = max(1, len(plan.message_candidates))
        decoded_keys = np.sort(decoded_node * k2 + best)
        true_keys = np.sort(edge_node * k2 + plan.message_index[edge_sender])
        decoded_counts = np.bincount(decoded_node, minlength=n)
        per_node_success = decoded_counts == np.bincount(edge_node, minlength=n)
        aligned = decoded_keys[per_node_success[decoded_keys // k2]]
        differ = aligned != true_keys[per_node_success[true_keys // k2]]
        per_node_success[aligned[differ] // k2] = False

        decoded = _segments(
            np.array(plan.message_candidates, dtype=object)[
                decoded_keys % k2
            ].tolist(),
            decoded_counts,
        )
        accepted = _segments(
            np.array(plan.candidates, dtype=object)[pair_cand].tolist(),
            np.bincount(pair_node, minlength=n),
        )
        # An r-collision is two senders on one candidate: two equal
        # neighbours among their sorted indices.
        sender_rows = np.sort(own[own >= 0])
        self._round_offset = plan.round_offset + 2 * b
        return RoundOutcome(
            decoded=decoded,
            per_node_success=per_node_success,
            success=bool(per_node_success.all()),
            beep_rounds_used=2 * b,
            phase1_errors=int(phase1_wrong.sum()),
            phase2_errors=int((~phase1_wrong & ~per_node_success).sum()),
            r_collision=bool((sender_rows[1:] == sender_rows[:-1]).any()),
            accepted_sets=[set(values) for values in accepted],
        )


@dataclass(frozen=True)
class _Draws:
    """One replica's draws for a round, in index form (the draw stage of
    :func:`_plan_round`)."""

    round_offset: int
    #: The phase-1 candidate values, ascending.
    candidates: "Sequence[int]"
    #: The phase-2 candidate messages, ascending.
    message_candidates: "Sequence[int]"
    #: Per node, its candidate index and its message index (−1: silent).
    own: np.ndarray
    message_index: np.ndarray


@dataclass(frozen=True)
class _RoundPlan(_Draws):
    """One simulated round in index form: its draws, every codeword encoded.

    Sender ``v`` beeps row ``own[v]`` of ``positions`` in phase 1, and in
    phase 2 writes row ``message_index[v]`` of ``codewords`` into those
    same positions.
    """

    #: Row ``c``: the ascending one-positions of ``C(candidates[c])``
    #: (``(0, w)`` when there are no candidates).
    positions: np.ndarray
    #: Row ``i``: ``D(message_candidates[i])``.
    codewords: np.ndarray


def _plan_round(
    sessions: "Sequence[BroadcastSession]",
    messages: "Sequence[Sequence[int | None]]",
) -> "list[_RoundPlan]":
    """Plan one round for every session: a draw stage each, one encode stage.

    The draw stage (:meth:`BroadcastSession._draw_round`) validates each
    replica's messages, makes its draws at the session's offset in the
    reference order and looks its message candidates up in its
    distance-row LRU.  The encode stage then derives every codeword the
    batch still owes — each replica's beep candidates and distance-row
    misses, whichever policy picked them — with one
    :func:`~repro.codes.encode_batch` call, one Philox pass over the
    exact ``derive_rng`` streams, and caches the new rows.  Each plan is
    built once, complete, and is the same whether its session is planned
    alone or in a batch.
    """
    drawn = [
        session._draw_round(replica_messages)
        for session, replica_messages in zip(sessions, messages)
    ]
    requests = []
    for session, (draws, _, misses) in zip(sessions, drawn):
        requests += [
            (session.codes.beep_code, draws.candidates),
            (
                session.codes.distance_code,
                [draws.message_candidates[row] for row in misses],
            ),
        ]
    encoded = encode_batch(requests)
    plans = []
    for session, (draws, codewords, misses), positions, rows in zip(
        sessions, drawn, encoded[::2], encoded[1::2]
    ):
        for row, codeword in zip(misses, rows):
            codewords[row] = codeword
            # A copy, so the cached row does not pin the round's matrix.
            session._distance_rows[draws.message_candidates[row]] = codeword.copy()
        plans.append(
            _RoundPlan(**vars(draws), positions=positions, codewords=codewords)
        )
    return plans


def _run_round(
    sessions: "Sequence[BroadcastSession]", plans: "Sequence[_RoundPlan]"
) -> list[RoundOutcome]:
    """Run one planned round's beeping phases for every session, then decode.

    The one round driver: a standalone session passes itself as a batch of
    one, a :class:`BatchedSession` passes all its replicas (same topology).
    Each phase is one replica-batched
    :func:`~repro.engine.run_schedule_batch` call, which checks the
    stacked schedules once and splits a dynamic topology at its epochs.
    Both phases share one ``(R, n, b)`` buffer: phase 1 sets each
    sender's codeword positions, and phase 2 writes the sender's message
    codeword over exactly those positions (``CD(r_v, m_v)`` is zero
    elsewhere).  The executor returns fresh heard arrays, so the
    overwrite cannot reach phase 1's.  Phase 1's heard stack is decoded
    into each replica's accepted pairs and dropped before phase 2 runs,
    and the buffer is dropped before the finishes, so no more than two
    ``(R, n, b)`` stacks are ever alive.
    """
    first = sessions[0]
    b = first.codes.length
    channels = [session.channel for session in sessions]
    senders = [np.flatnonzero(plan.own >= 0) for plan in plans]
    schedules = np.zeros((len(plans), first.topology.num_nodes, b), dtype=bool)
    for schedule, plan, nodes in zip(schedules, plans, senders):
        schedule[nodes[:, np.newaxis], plan.positions[plan.own[nodes]]] = True
    heard = run_schedule_batch(
        first.topology, schedules, channels, [plan.round_offset for plan in plans]
    )
    pairs = [
        session._accepted_pairs(plan, replica_heard)
        for session, plan, replica_heard in zip(sessions, plans, heard)
    ]
    del heard  # decoded: free phase 1's stack before phase 2 makes one
    for schedule, plan, nodes in zip(schedules, plans, senders):
        schedule[nodes[:, np.newaxis], plan.positions[plan.own[nodes]]] = (
            plan.codewords[plan.message_index[nodes]]
        )
    heard = run_schedule_batch(
        first.topology,
        schedules,
        channels,
        [plan.round_offset + b for plan in plans],
    )
    del schedules, schedule  # the finishes read only phase 2's stack
    return [
        session._finish_round(plan, replica_pairs, replica_heard)
        for session, plan, replica_pairs, replica_heard in zip(
            sessions, plans, pairs, heard
        )
    ]


def _phase1_pairs(
    heard: np.ndarray, positions: np.ndarray, threshold: int
) -> "tuple[np.ndarray, np.ndarray]":
    """Every accepted ``(node, candidate index)`` pair of the Lemma 9 test.

    Row ``c`` of ``positions`` holds the one-positions of candidate
    ``c``'s codeword.  A candidate passes at node ``v`` when fewer than
    ``threshold`` of them are silent in ``heard[v]``.  The pairs come
    back node-major, candidates ascending, and are the reference
    decoder's accepted sets exactly: the counts are the same integers,
    whichever kernel the size rule picks.
    """
    n, b = heard.shape
    if len(positions) * n < _GATHER_MIN_CELLS and b < _EXACT_FLOAT32_LIMIT:
        counts = _phase1_counts_sgemm(heard, positions)
    else:
        counts = _phase1_counts_gather(heard, positions)
    return np.nonzero(counts.T < threshold)


def _phase1_counts_gather(heard: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """``counts[c, v]``: how many of candidate ``c``'s positions ``v`` missed.

    One step per codeword position gathers a row of the transposed
    ``¬heard`` for every candidate, so the work is ``K · w · n`` byte
    adds instead of the ``K · b · n`` of a dense product (a codeword has
    ``w`` ones in ``b`` bits).  The accumulator is the narrowest unsigned
    type that holds ``w``.
    """
    not_heard = np.empty(heard.shape[::-1], dtype=bool)
    np.logical_not(heard.T, out=not_heard)
    not_heard = not_heard.view(np.uint8)
    counts = np.zeros(
        (len(positions), heard.shape[0]), dtype=np.min_scalar_type(positions.shape[1])
    )
    for column in np.ascontiguousarray(positions.T):
        counts += not_heard[column]
    return counts


def _phase1_counts_sgemm(heard: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """The same counts as one float32 ``sgemm`` over 0/1 codeword rows.

    Exact below :data:`_EXACT_FLOAT32_LIMIT` code bits: every partial sum
    is an integer float32 represents exactly.
    """
    codewords = np.zeros((len(positions), heard.shape[1]), dtype=np.float32)
    codewords[np.arange(len(positions))[:, np.newaxis], positions] = 1.0
    return codewords @ np.subtract(1.0, heard.T, dtype=np.float32)


def _phase2_nearest(
    heard: np.ndarray,
    pair_node: np.ndarray,
    pair_positions: np.ndarray,
    codewords: np.ndarray,
) -> np.ndarray:
    """Each pair's nearest distance codeword (Lemma 10), as a row index.

    Pair ``p`` reads ``heard[pair_node[p]]`` at ``pair_positions[p]``,
    giving the subsequence ``s``.  With ``codewords`` in ascending
    message order, the first argmin of ``d(s, D(m)) = |s| + |D(m)| −
    2·s·D(m)`` is the reference decoder's winner, smallest-message
    tie-break included.  ``|s|`` is constant along a row, so the argmin
    runs over ``|D(m)| − 2·s·D(m)`` alone.  Those scores lie in
    ``[−2w, w]``: float32 is exact while ``2w`` stays below
    :data:`_EXACT_FLOAT32_LIMIT`, and int64 takes over past it.
    """
    weight = pair_positions.shape[1]
    dtype = np.float32 if weight <= _EXACT_FLOAT32_LIMIT // 2 else np.int64
    subsequences = heard.reshape(-1)[
        pair_node[:, np.newaxis] * heard.shape[1] + pair_positions
    ]
    scores = subsequences.astype(dtype) @ (-2 * codewords.T.astype(dtype))
    scores += np.count_nonzero(codewords, axis=1).astype(dtype)
    return np.argmin(scores, axis=1)


def _segments(flat: list, counts: np.ndarray) -> "list[list]":
    """Split ``flat`` into consecutive runs of ``counts[v]`` items."""
    ends = np.cumsum(counts).tolist()
    return [flat[start:end] for start, end in zip([0, *ends[:-1]], ends)]


class BatchedSession:
    """``R`` seed-replicas of one ``(topology, params)`` pair, run as a batch.

    Each replica is a full :class:`BroadcastSession` built from its own
    master seed — codes, channel and decoder state derive from that seed
    exactly as standalone sessions do — but every simulated round executes
    each beeping phase for all replicas as one stacked
    :func:`~repro.engine.run_schedule_batch` call, then
    hands each replica's heard matrices to that replica's own decode
    half.  Outcome ``r`` of
    :meth:`run_round` is therefore bit-identical to what
    ``BroadcastSession(topology, params, seeds[r], ...)`` would have
    produced on the same messages, which is what lets
    :mod:`repro.sweeps` batch a grid cell's seed axis without changing a
    single simulated number.

    Parameters
    ----------
    topology:
        The network, shared by every replica.
    params:
        Code parameters, shared by every replica.
    seeds:
        One master seed per replica (the batch size is ``len(seeds)``).
        Every replica scans :class:`BroadcastSession`'s default candidate
        set.
    channels:
        Optional per-replica channel overrides (one entry per seed,
        ``None`` entries meaning "the default for that seed's params") —
        how the sweep layer runs non-default noise models batched.
    """

    def __init__(
        self,
        topology: Topology,
        params: SimulationParameters,
        seeds: Sequence[int],
        *,
        channels: "Sequence[NoiseModel | None] | None" = None,
    ) -> None:
        seeds = [int(seed) for seed in seeds]
        if not seeds:
            raise ConfigurationError("BatchedSession needs at least one seed")
        if channels is None:
            channels = [None] * len(seeds)
        if len(channels) != len(seeds):
            raise ConfigurationError(
                f"got {len(channels)} channel overrides for "
                f"{len(seeds)} replicas"
            )
        self._sessions = tuple(
            BroadcastSession(topology, params, seed, channel=channel)
            for seed, channel in zip(seeds, channels)
        )
        self._topology = topology
        self._params = params
        self._seeds = tuple(seeds)

    @property
    def topology(self) -> Topology:
        """The network topology shared by every replica."""
        return self._topology

    @property
    def params(self) -> SimulationParameters:
        """The code parameters shared by every replica."""
        return self._params

    @property
    def seeds(self) -> tuple[int, ...]:
        """The per-replica master seeds (defines the batch size)."""
        return self._seeds

    @property
    def num_replicas(self) -> int:
        """Number of seed-replicas in the batch."""
        return len(self._sessions)

    @property
    def sessions(self) -> "tuple[BroadcastSession, ...]":
        """The per-replica sessions (read-only; offsets advance per round)."""
        return self._sessions

    def reset(self, round_offset: int = 0) -> None:
        """Move every replica's global beeping-round offset (``>= 0``)."""
        for session in self._sessions:
            session.reset(round_offset)

    def run_round(
        self, messages: "Sequence[Sequence[int | None]]"
    ) -> list[RoundOutcome]:
        """Run one simulated round on every replica, batched.

        ``messages[r]`` is replica ``r``'s per-node message list (exactly
        the argument :meth:`BroadcastSession.run_round` takes).  Returns
        one :class:`RoundOutcome` per replica.
        """
        if len(messages) != len(self._sessions):
            raise ConfigurationError(
                f"got {len(messages)} replica message lists for "
                f"{len(self._sessions)} replicas"
            )
        return _run_round(self._sessions, _plan_round(self._sessions, messages))


def _draw_decoys(
    rng: np.random.Generator,
    bits: int,
    taken: "set[int]",
    num_decoys: int,
    max_draws: "int | None" = None,
) -> "set[int]":
    """Distinct uniform ``bits``-bit decoys outside ``taken``, by rejection.

    Draws until ``num_decoys`` values are found (fewer when the space
    has fewer free values) or ``max_draws`` draws are spent, skipping
    every value already taken or drawn.  The decoys, and where the
    generator is left, equal those of one
    :func:`~repro.rng.random_bits` call per draw.  The first
    :func:`~repro.rng.random_bits_many` call asks for exactly the count
    wanted, so it cannot read past the draw that ends the loop.  When
    rejections leave decoys missing, the rest are over-drawn in chunks
    and scanned one value at a time; then the generator is rewound and
    the draws the scan used are read again, in one more call.
    """
    budget = min(num_decoys, (1 << bits) - len(taken))
    draws = budget if max_draws is None else min(budget, max_draws)
    decoys = {
        value for value in random_bits_many(rng, draws, bits) if value not in taken
    }
    if len(decoys) == budget or draws == max_draws:
        return decoys
    state = rng.bit_generator.state
    scanned = 0
    while True:
        # 8 draws per missing decoy: per sweep_noiseless unit, where 5-7-bit
        # message spaces make half the sampler's calls over-draw, chunks of
        # 8, 16 and 32 took about 42, 48 and 54 ms (larger chunks decode
        # more unused values; smaller ones make more calls).
        for value in random_bits_many(rng, 8 * (budget - len(decoys)), bits):
            scanned += 1
            if value not in taken:
                decoys.add(value)
            if len(decoys) == budget or draws + scanned == max_draws:
                rng.bit_generator.state = state
                random_bits_many(rng, scanned, bits)  # re-read the used draws
                return decoys
