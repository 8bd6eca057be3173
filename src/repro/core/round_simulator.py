"""Algorithm 1: simulating Broadcast CONGEST rounds with noisy beeps.

The full round protocol of Section 3:

1. every node ``v`` with a message picks ``r_v`` uniformly at random;
2. phase 1 (``b`` beeping rounds): ``v`` beeps the bits of ``C(r_v)``;
3. phase 2 (``b`` beeping rounds): ``v`` beeps the bits of ``CD(r_v, m_v)``;
4. every node decodes its neighbours' codeword set from the phase-1
   superimposition (Lemmas 8–9) and then each neighbour's message from the
   phase-2 subsequences (Lemma 10).

:class:`BroadcastSession` is the multi-round engine: it builds the code
pair, the channel, the candidate-policy state and the decoder codeword
matrices **once**, then exposes :meth:`~BroadcastSession.run_round` /
:meth:`~BroadcastSession.run_many` whose outcomes are bit-identical to a
sequence of standalone calls with matching round offsets (same seeds →
same :class:`RoundOutcome`\\ s).  :func:`simulate_broadcast_round` remains
as the one-shot compatibility wrapper.

Every session has one plan/decode path: schedules come from
:func:`_build_phase_schedules_fast`, and decoding works on one array
representation, the round's accepted ``(node, candidate index)`` pairs
in node-major order.  :func:`_phase1_pairs` finds them with the Lemma 9
count (a gather over each codeword's one-positions, or a float32
product on small rounds), :func:`_phase2_nearest` gives each pair its
nearest message index, and the ground truth comes from the topology's
CSR.  The results are *exactly* equal (not just statistically) to the
reference implementations: the row-by-row encoder of
``tests/core/reference_round.py`` and the decoders of
:mod:`repro.core.decoder`, which stay public.  Together they are the
oracle the tests compare against (``tests/core/test_session_oracle.py``
replays whole rounds through them); no module here calls them.

Every round's beeping phases run through one driver, :func:`_run_round`,
as 3-D calls to the schedule executor,
:func:`repro.engine.run_schedule_batch`: a standalone
:class:`BroadcastSession` is a batch of one, and :class:`BatchedSession`
stacks ``R`` seed-replicas of the same ``(topology, params)`` pair —
one :class:`BroadcastSession` per seed — into one batch.
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
from ..codes import CombinedCode
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
    "simulate_broadcast_round",
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

#: Exhaustive candidate scans are exponential; refuse beyond this size.
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
    the candidate-policy decoder state — is built in the constructor; each :meth:`run_round` call then only pays for the
    round itself, planned and decoded through the exact vectorised
    kernels.  The session tracks the global beeping-round offset so
    consecutive rounds chain exactly like
    :class:`~repro.core.transpiler.BeepSimulator` chains standalone calls.

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
        Master seed; per-round randomness is derived from
        ``(seed, round_offset)`` so rounds are independent and the whole
        session is reproducible.
    policy, num_decoys:
        Candidate enumeration policy (see docs/ARCHITECTURE.md,
        "Candidate policies").
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
        if policy is CandidatePolicy.EXHAUSTIVE:
            if params.r_bits > _EXHAUSTIVE_LIMIT_BITS:
                raise ConfigurationError(
                    f"exhaustive policy limited to r_bits <= "
                    f"{_EXHAUSTIVE_LIMIT_BITS}, got {params.r_bits}"
                )
            if params.message_bits > _EXHAUSTIVE_LIMIT_BITS:
                raise ConfigurationError(
                    "exhaustive policy limited to small message spaces"
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
        # Candidate-policy decoder state, built lazily once per session:
        # the full domain's one-positions and phase-2 matrix for
        # EXHAUSTIVE, and a bounded distance-row LRU cache for the
        # message-decoy policies.
        self._exhaustive_positions: np.ndarray | None = None
        self._exhaustive_phase2: np.ndarray | None = None
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
        """Rewind the session's global beeping-round offset."""
        self._round_offset = _checked_offset(round_offset)

    def run_round(
        self,
        messages: Sequence[int | None],
        round_offset: int | None = None,
    ) -> RoundOutcome:
        """Run Algorithm 1 once and decode every node's neighbour messages.

        ``messages`` holds, per node, the ``B``-bit message to broadcast or
        ``None`` to stay silent this round.  ``round_offset`` overrides the
        session's running offset (it keys both the noise stream and the
        per-round random strings) and, as in :meth:`reset`, must be
        ``>= 0``; either way the session's offset advances to just past
        this round, so back-to-back calls chain contiguously.
        """
        return _run_round([self], [self._plan_round(messages, round_offset)])[0]

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

    def _plan_round(
        self,
        messages: Sequence[int | None],
        round_offset: int | None,
    ) -> "_RoundPlan":
        """Everything before the beeping phases: validation, draws, schedules.

        Draws each node's random string and then the candidate decoys
        (the first two consumers of the per-round stream), encodes every
        in-flight value and decoy in one
        :meth:`~repro.codes.BeepCode.encode_positions` call, and builds
        both phase schedules from those rows.  The returned plan carries
        the still-live round RNG, which :meth:`_finish_round` continues
        from in exactly the reference draw order (message decoys last).
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
        if round_offset is None:
            round_offset = self._round_offset
        else:
            _checked_offset(round_offset)

        # Step 1: every participating node draws r_v uniformly at random.
        round_rng = derive_rng(self._seed, "round-randomness", round_offset)
        r_values = random_bits_many(round_rng, n, params.r_bits)
        participating = [messages[v] is not None for v in range(n)]

        # Candidate enumeration per the chosen policy.
        in_flight = sorted({r_values[v] for v in range(n) if participating[v]})
        candidates = _candidate_set(
            self._policy,
            in_flight,
            1 << params.r_bits,
            params.r_bits,
            self._num_decoys,
            round_rng,
        )

        # Steps 2-3: the two oblivious beeping phase schedules.  The
        # exhaustive domain has its own once-per-session positions, so only
        # the other policies' candidates join the round's encode call.
        (
            phase1_schedule,
            phase2_schedule,
            slot_positions,
            slot_rows,
        ) = _build_phase_schedules_fast(
            self._codes,
            r_values,
            messages,
            self._distance_rows,
            extra_values=()
            if self._policy is CandidatePolicy.EXHAUSTIVE
            else candidates,
        )
        return _RoundPlan(
            messages=list(messages),
            round_offset=round_offset,
            round_rng=round_rng,
            r_values=r_values,
            participating=participating,
            candidates=candidates,
            phase1_schedule=phase1_schedule,
            phase2_schedule=phase2_schedule,
            slot_positions=slot_positions,
            slot_rows=slot_rows,
        )

    def _finish_round(
        self,
        plan: "_RoundPlan",
        heard1: np.ndarray,
        heard2: np.ndarray,
    ) -> RoundOutcome:
        """Everything after the beeping phases: both decode steps and the truth.

        Works on candidate *indices*, never values (``r_v`` and messages
        can exceed 64 bits); Python ints are rebuilt only for the public
        fields.  Consumes the plan's round RNG where the plan left it
        (message decoys) and advances the session offset, so splitting a
        round around the beeping phases cannot perturb any stream.
        """
        topology = self._round_topology(plan.round_offset)
        params = self._params
        messages = plan.messages
        n = topology.num_nodes
        b = self._codes.length
        exhaustive = self._policy is CandidatePolicy.EXHAUSTIVE
        senders = np.flatnonzero(plan.participating)

        # Candidate one-positions, and each sender's own candidate index.
        # Outside EXHAUSTIVE the plan's slot rows are exactly the sorted
        # candidates; the exhaustive domain is its own index.
        if exhaustive:
            positions = self._exhaustive_domain_positions()
            row_of: "Sequence[int] | dict[int, int]" = range(len(plan.candidates))
        else:
            positions = plan.slot_positions
            row_of = plan.slot_rows
        own = np.full(n, -1, dtype=np.int64)
        own[senders] = [row_of[plan.r_values[v]] for v in senders]

        # Step 4a: phase-1 decoding (Lemma 9), own value removed.
        pair_node, pair_cand = _phase1_pairs(
            heard1, positions, self._codes.beep_code.decoding_threshold(params.eps)
        )
        keep = pair_cand != own[pair_node]
        pair_node, pair_cand = pair_node[keep], pair_cand[keep]

        # Step 4b: phase-2 decoding (nearest distance codeword).
        message_candidates = sorted({messages[v] for v in senders})  # type: ignore[type-var]
        if (
            self._policy is CandidatePolicy.ORACLE_WITH_DECOYS
            and message_candidates
        ):
            message_candidates = _with_message_decoys(
                message_candidates,
                params.message_bits,
                self._num_decoys,
                plan.round_rng,
            )
        if exhaustive:
            message_candidates = list(range(1 << params.message_bits))
        if message_candidates:
            decoded_node = pair_node
            best = _phase2_nearest(
                heard2,
                pair_node,
                positions[pair_cand],
                self._phase2_matrix(message_candidates),
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
        k2 = max(1, len(message_candidates))
        message_row = (
            range(k2)
            if exhaustive
            else {message: row for row, message in enumerate(message_candidates)}
        )
        sender_message = np.zeros(n, dtype=np.int64)
        sender_message[senders] = [message_row[messages[v]] for v in senders]
        decoded_keys = np.sort(decoded_node * k2 + best)
        true_keys = np.sort(edge_node * k2 + sender_message[edge_sender])
        decoded_counts = np.bincount(decoded_node, minlength=n)
        per_node_success = decoded_counts == np.bincount(edge_node, minlength=n)
        aligned = decoded_keys[per_node_success[decoded_keys // k2]]
        differ = aligned != true_keys[per_node_success[true_keys // k2]]
        per_node_success[aligned[differ] // k2] = False

        decoded = _segments(
            np.array(message_candidates, dtype=object)[decoded_keys % k2].tolist(),
            decoded_counts,
        )
        accepted = _segments(
            np.array(plan.candidates, dtype=object)[pair_cand].tolist(),
            np.bincount(pair_node, minlength=n),
        )
        # An r-collision is two senders on one candidate: two equal
        # neighbours among their sorted indices.
        sender_rows = np.sort(own[senders])
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

    def run_many(
        self,
        message_rounds: Sequence[Sequence[int | None]],
        round_offset: int | None = None,
    ) -> list[RoundOutcome]:
        """Run consecutive Broadcast CONGEST rounds, chaining offsets.

        Equivalent to calling :func:`simulate_broadcast_round` once per
        entry with ``round_offset`` advancing by ``2b`` each time — but the
        codes, channel and decoder matrices are constructed only
        once, in the session constructor.
        """
        if round_offset is not None:
            self.reset(round_offset)
        return [self.run_round(messages) for messages in message_rounds]

    def _exhaustive_domain_positions(self) -> np.ndarray:
        """The one-positions of every codeword of the exhaustive domain.

        Under :attr:`CandidatePolicy.EXHAUSTIVE` the candidate list is the
        full domain every round, so its rows (row ``r`` for value ``r``)
        come from one :meth:`~repro.codes.BeepCode.encode_positions` call
        per session.
        """
        if self._exhaustive_positions is None:
            self._exhaustive_positions = self._codes.beep_code.encode_positions(
                range(1 << self._params.r_bits)
            )
        return self._exhaustive_positions

    def _phase2_matrix(self, message_candidates: Sequence[int]) -> np.ndarray:
        """The phase-2 boolean codeword matrix for ``message_candidates``.

        Built from a bounded per-session row cache (messages recur across
        rounds far more than the phase-1 random strings do); the full
        message space is cached wholesale under EXHAUSTIVE.
        """
        distance_code = self._codes.distance_code
        if self._policy is CandidatePolicy.EXHAUSTIVE:
            if self._exhaustive_phase2 is None:
                self._exhaustive_phase2 = np.stack(
                    [distance_code.encode_int(m) for m in message_candidates]
                )
            return self._exhaustive_phase2
        rows = self._distance_rows
        matrix = np.empty(
            (len(message_candidates), distance_code.length), dtype=bool
        )
        for position, message in enumerate(message_candidates):
            # LRU semantics via LRUDict: hits refresh recency (recurring
            # messages are the cache's whole point, one-shot decoy rows
            # get evicted first), misses evict at the bound on insert.
            row = rows.get(message)
            if row is None:
                row = np.asarray(distance_code.encode_int(message), dtype=bool)
                rows[message] = row
            matrix[position] = row
        return matrix


@dataclass
class _RoundPlan:
    """Pre-beeping state of one simulated round (see ``_plan_round``).

    Carries the still-live per-round RNG between the plan and finish
    halves so the draw order (``r_v`` values, candidate decoys, message
    decoys) is exactly the reference order regardless of how the beeping
    phases in between are executed.
    """

    messages: "list[int | None]"
    round_offset: int
    round_rng: np.random.Generator
    r_values: list[int]
    participating: list[bool]
    #: The phase-1 candidate list (in-flight values plus decoys, sorted).
    candidates: list[int]
    phase1_schedule: np.ndarray
    phase2_schedule: np.ndarray
    #: The ascending one-positions of every in-flight value's and every
    #: non-exhaustive candidate's beep codeword (row ``slot_rows[r]``;
    #: ``None`` when there is nothing to encode), from the round's one
    #: encode call and reused by the schedules and both decode steps.
    #: Outside EXHAUSTIVE its rows are exactly ``candidates``, in order.
    slot_positions: "np.ndarray | None"
    slot_rows: "dict[int, int]"


def _run_round(
    sessions: "Sequence[BroadcastSession]", plans: "Sequence[_RoundPlan]"
) -> list[RoundOutcome]:
    """Run one planned round's beeping phases for every session, then decode.

    The one round driver: a standalone session passes itself as a batch of
    one, a :class:`BatchedSession` passes all its replicas (same topology).
    Each phase is one replica-batched
    :func:`~repro.engine.run_schedule_batch` call, which checks the
    stacked schedules once and splits a dynamic topology at its epochs.
    """
    first = sessions[0]
    b = first.codes.length
    channels = [session.channel for session in sessions]
    phases = (
        [plan.phase1_schedule for plan in plans],
        [plan.phase2_schedule for plan in plans],
    )
    heard1, heard2 = (
        run_schedule_batch(
            first.topology,
            np.stack(schedules),
            channels,
            [plan.round_offset + phase * b for plan in plans],
        )
        for phase, schedules in enumerate(phases)
    )
    return [
        session._finish_round(plan, heard1[index], heard2[index])
        for index, (session, plan) in enumerate(zip(sessions, plans))
    ]


def _checked_offset(round_offset: int) -> int:
    """``round_offset``, once it is known to be a global round (``>= 0``)."""
    if round_offset < 0:
        raise ConfigurationError(f"round_offset must be >= 0, got {round_offset}")
    return round_offset


def _build_phase_schedules_fast(
    codes: CombinedCode,
    r_values: Sequence[int],
    messages: "Sequence[int | None]",
    distance_rows: "LRUDict[int, np.ndarray]",
    extra_values: Sequence[int] = (),
) -> "tuple[np.ndarray, np.ndarray, np.ndarray | None, dict[int, int]]":
    """Both phase schedules of Algorithm 1, built for all nodes at once.

    Node ``v`` beeps ``C(r_v)`` in phase 1 and ``CD(r_v, m_v)`` in
    phase 2; a node with no message (``None``) abstains from both.
    Phase 1 sets the one-positions of each active node's ``C(r_v)``, and
    phase 2 scatters each ``D(m_v)`` into those positions in ascending
    order — exactly Notation 7's ``CD`` layout — instead of looping
    :meth:`~repro.codes.CombinedCode.encode` per node.  ``distance_rows``
    is the owning session's bounded row cache.

    The active nodes' r-values and ``extra_values`` (the round's decoy
    candidates) are encoded together in one
    :meth:`~repro.codes.BeepCode.encode_positions` call.  Besides the two
    schedules, returns that slot-position matrix (``None`` when it is
    empty) and a ``value → row`` map, so both decode steps can reuse the
    one-positions without encoding or scanning any codeword again.
    """
    n = len(r_values)
    if n != len(messages):
        raise ConfigurationError(
            f"{len(r_values)} r-values but {len(messages)} messages"
        )
    b = codes.length
    phase1 = np.zeros((n, b), dtype=bool)
    phase2 = np.zeros((n, b), dtype=bool)
    active = [v for v in range(n) if messages[v] is not None]
    values = sorted({r_values[v] for v in active}.union(extra_values))
    if not values:
        return phase1, phase2, None, {}
    positions = codes.beep_code.encode_positions(values)
    slot_rows = {value: row for row, value in enumerate(values)}
    if not active:
        return phase1, phase2, positions, slot_rows
    nodes = np.asarray(active)[:, None]
    active_positions = positions[[slot_rows[r_values[v]] for v in active]]
    phase1[nodes, active_positions] = True
    distance_code = codes.distance_code
    payloads = np.empty((len(active), distance_code.length), dtype=bool)
    for position, v in enumerate(active):
        message = messages[v]
        row = distance_rows.get(message)
        if row is None:
            row = np.asarray(distance_code.encode_int(message), dtype=bool)
            distance_rows[message] = row
        payloads[position] = row
    phase2[nodes, active_positions] = payloads
    return phase1, phase2, positions, slot_rows


def _phase1_pairs(
    heard: np.ndarray, positions: "np.ndarray | None", threshold: int
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
    if positions is None:  # the round had no candidates
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
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
    policy, num_decoys:
        As for :class:`BroadcastSession`.
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
        policy: CandidatePolicy = CandidatePolicy.ORACLE_WITH_DECOYS,
        num_decoys: int = 16,
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
            BroadcastSession(
                topology,
                params,
                seed,
                policy=policy,
                num_decoys=num_decoys,
                channel=channel,
            )
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
        """Rewind every replica's global beeping-round offset."""
        for session in self._sessions:
            session.reset(round_offset)

    def run_round(
        self,
        messages: "Sequence[Sequence[int | None]]",
        round_offset: int | None = None,
    ) -> list[RoundOutcome]:
        """Run one simulated round on every replica, batched.

        ``messages[r]`` is replica ``r``'s per-node message list (exactly
        the argument :meth:`BroadcastSession.run_round` takes);
        ``round_offset``, when given, rewinds every replica to that
        offset first.  Returns one :class:`RoundOutcome` per replica.
        """
        if len(messages) != len(self._sessions):
            raise ConfigurationError(
                f"got {len(messages)} replica message lists for "
                f"{len(self._sessions)} replicas"
            )
        plans = [
            session._plan_round(replica_messages, round_offset)
            for session, replica_messages in zip(self._sessions, messages)
        ]
        return _run_round(self._sessions, plans)

    def run_many(
        self,
        message_rounds: "Sequence[Sequence[Sequence[int | None]]]",
        round_offset: int | None = None,
    ) -> list[list[RoundOutcome]]:
        """Run consecutive rounds on every replica, chaining offsets.

        ``message_rounds[t][r]`` is replica ``r``'s message list for
        round ``t``; the result is indexed the same way.
        """
        if round_offset is not None:
            self.reset(round_offset)
        return [self.run_round(round_messages) for round_messages in message_rounds]


def simulate_broadcast_round(
    topology: Topology,
    messages: Sequence[int | None],
    params: SimulationParameters,
    seed: int,
    round_offset: int = 0,
    policy: CandidatePolicy = CandidatePolicy.ORACLE_WITH_DECOYS,
    num_decoys: int = 16,
    channel: NoiseModel | None = None,
    codes: CombinedCode | None = None,
) -> RoundOutcome:
    """Run Algorithm 1 once and decode every node's neighbour messages.

    One-shot compatibility wrapper over :class:`BroadcastSession`: builds a
    session, runs a single round at ``round_offset``, and returns its
    outcome.  Simulating many rounds this way rebuilds the session state
    every call — use :class:`BroadcastSession` directly for that.

    Parameters
    ----------
    topology:
        The network (its max degree must not exceed ``params.max_degree``).
    messages:
        Per node, the ``B``-bit message to broadcast, or ``None`` to stay
        silent this round.
    params:
        Code parameters.
    seed:
        Master seed; the per-round randomness is derived from
        ``(seed, round_offset)`` so consecutive rounds are independent.
    round_offset:
        Global beeping-round number at which this simulated round starts
        (keys both noise and the per-round random strings).
    policy, num_decoys:
        Candidate enumeration policy (see docs/ARCHITECTURE.md,
        "Candidate policies").
    channel:
        Override the noise channel (defaults to the one implied by
        ``params.eps``).
    codes:
        Reuse a previously built code pair (saves rebuilding it when
        simulating many rounds).
    """
    session = BroadcastSession(
        topology,
        params,
        seed,
        policy=policy,
        num_decoys=num_decoys,
        channel=channel,
        codes=codes,
    )
    return session.run_round(messages, round_offset=round_offset)


def _candidate_set(
    policy: CandidatePolicy,
    in_flight: list[int],
    r_space: int,
    r_bits: int,
    num_decoys: int,
    rng: np.random.Generator,
) -> list[int]:
    if policy is CandidatePolicy.EXHAUSTIVE:
        return list(range(r_space))  # the session checked r_bits
    if policy is CandidatePolicy.IN_FLIGHT:
        return list(in_flight)
    in_flight_set = set(in_flight)
    # Tiny r-spaces can hold fewer free values than the decoy budget;
    # capping it keeps the draws unchanged whenever the cap does not bind.
    budget = min(num_decoys, r_space - len(in_flight_set))
    decoys: set[int] = set()
    while len(decoys) < budget:
        draw = int.from_bytes(rng.bytes(max(1, (r_bits + 7) // 8)), "little")
        draw &= r_space - 1
        if draw not in in_flight_set:
            decoys.add(draw)
    return sorted(in_flight_set | decoys)


def _with_message_decoys(
    message_candidates: list[int],
    message_bits: int,
    num_decoys: int,
    rng: np.random.Generator,
) -> list[int]:
    space = 1 << message_bits
    existing = set(message_candidates)
    budget = min(num_decoys, space - len(existing))
    attempts = 0
    while budget > 0 and attempts < 20 * num_decoys:
        draw = int.from_bytes(rng.bytes(max(1, (message_bits + 7) // 8)), "little")
        draw &= space - 1
        attempts += 1
        if draw not in existing:
            existing.add(draw)
            budget -= 1
    return sorted(existing)
