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
:func:`_build_phase_schedules_fast` and decoding from
:func:`_phase1_decode_fast` / :func:`_phase2_decode_fast`, vectorised
kernels that are *exactly* equal (not just statistically) to the
reference implementations in :mod:`repro.core.encoder` and
:mod:`repro.core.decoder`.  Those stay public as the oracle the tests
compare against (``tests/core/test_session_oracle.py`` replays whole
rounds through them); no module here calls them.

Every round's beeping phases run through one driver, :func:`_run_round`,
as 3-D :func:`~repro.beeping.batch.run_schedule_batch` calls: a
standalone :class:`BroadcastSession` is a batch of one, and
:class:`BatchedSession` stacks ``R`` seed-replicas of the same
``(topology, params)`` pair — one :class:`BroadcastSession` per seed —
into one batch.  ``BatchedSession(...).run_round(batch)[r]`` is
bit-identical to what the ``r``-th standalone :class:`BroadcastSession`
would return, a property enforced by
``tests/core/test_batched_session.py``.

The returned :class:`RoundOutcome` carries both the decoded messages (which
downstream algorithms consume, right or wrong — simulation fidelity is part
of what the experiments measure) and ground-truth diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..beeping.batch import run_schedule_batch
from ..beeping.noise import DynamicTopology, NoiseModel, make_noise_model
from ..codes import CombinedCode
from ..errors import ConfigurationError
from ..graphs import Topology
from ..lru import LRUDict
from ..rng import derive_rng, derive_seed
from .decoder import DecodedMessage
from .parameters import CandidatePolicy, SimulationParameters

__all__ = [
    "RoundOutcome",
    "BroadcastSession",
    "BatchedSession",
    "simulate_broadcast_round",
]

#: Largest code length at which 0/1 dot products are exactly representable
#: in float32 (every partial sum is an integer below 2^24), letting the
#: vectorised decoders ride the BLAS sgemm path without changing a single
#: count.
_EXACT_FLOAT32_LIMIT = 1 << 24

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
        # the full phase-1/phase-2 matrices for EXHAUSTIVE, and a bounded
        # distance-row LRU cache for the message-decoy policies.
        self._exhaustive_phase1: np.ndarray | None = None
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
        if round_offset < 0:
            raise ConfigurationError(
                f"round_offset must be >= 0, got {round_offset}"
            )
        self._round_offset = round_offset

    def run_round(
        self,
        messages: Sequence[int | None],
        round_offset: int | None = None,
    ) -> RoundOutcome:
        """Run Algorithm 1 once and decode every node's neighbour messages.

        ``messages`` holds, per node, the ``B``-bit message to broadcast or
        ``None`` to stay silent this round.  ``round_offset`` overrides the
        session's running offset (it keys both the noise stream and the
        per-round random strings); either way the session's offset advances
        to just past this round, so back-to-back calls chain contiguously.
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

        # Step 1: every participating node draws r_v uniformly at random.
        round_rng = derive_rng(self._seed, "round-randomness", round_offset)
        r_space = 1 << params.r_bits
        r_values = _draw_r_values(round_rng, n, r_space)
        participating = [messages[v] is not None for v in range(n)]

        # Candidate enumeration per the chosen policy.
        in_flight = sorted({r_values[v] for v in range(n) if participating[v]})
        candidates = _candidate_set(
            self._policy,
            in_flight,
            r_space,
            params.r_bits,
            self._num_decoys,
            round_rng,
        )

        # Steps 2-3: the two oblivious beeping phase schedules.  The
        # exhaustive domain has its own once-per-session matrix, so only
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
        """Everything after the beeping phases: candidate scans and decoding.

        Consumes the plan's round RNG where the plan left it (message
        decoys) and advances the session offset, so splitting a round
        around the beeping phases cannot perturb any stream.
        """
        topology = self._round_topology(plan.round_offset)
        params = self._params
        codes = self._codes
        n = topology.num_nodes
        messages = plan.messages
        r_values = plan.r_values
        participating = plan.participating
        candidates = plan.candidates
        b = codes.length

        # Step 4a: phase-1 decoding (Lemma 9 threshold test).
        accepted_raw = _phase1_decode_fast(
            codes.beep_code,
            heard1,
            candidates,
            params.eps,
            codeword_matrix=self._phase1_matrix(plan, candidates),
        )
        accepted: list[set[int]] = []
        for v in range(n):
            own = {r_values[v]} if participating[v] else set()
            accepted.append(accepted_raw[v] - own)

        # Ground truth for diagnostics.
        true_sets = [
            {r_values[int(u)] for u in topology.neighbors[v] if participating[int(u)]}
            for v in range(n)
        ]
        phase1_errors = sum(accepted[v] != true_sets[v] for v in range(n))
        transmitted = [r_values[v] for v in range(n) if participating[v]]
        r_collision = len(set(transmitted)) != len(transmitted)

        # Step 4b: phase-2 decoding (nearest distance codeword).
        message_candidates = sorted(
            {messages[v] for v in range(n) if participating[v]}  # type: ignore[arg-type]
        )
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
        if self._policy is CandidatePolicy.EXHAUSTIVE:
            message_candidates = list(range(1 << params.message_bits))
        if not message_candidates:
            decoded_maps = [dict() for _ in range(n)]
        else:
            # Accepted values reuse the plan's slot table; only values
            # outside it (the exhaustive domain's) pay an encode.
            decoded_maps = _phase2_decode_fast(
                codes,
                heard2,
                accepted,
                message_candidates,
                codeword_matrix=self._phase2_matrix(message_candidates),
                slot_positions=plan.slot_positions,
                slot_index=plan.slot_rows,
            )

        decoded = [
            sorted(entry.message for entry in decoded_maps[v].values())
            for v in range(n)
        ]
        truth = [
            sorted(
                messages[int(u)]  # type: ignore[arg-type]
                for u in topology.neighbors[v]
                if participating[int(u)]
            )
            for v in range(n)
        ]
        per_node_success = np.asarray(
            [decoded[v] == truth[v] for v in range(n)], dtype=bool
        )
        phase2_errors = sum(
            1
            for v in range(n)
            if accepted[v] == true_sets[v] and not per_node_success[v]
        )
        self._round_offset = plan.round_offset + 2 * b
        return RoundOutcome(
            decoded=decoded,
            per_node_success=per_node_success,
            success=bool(per_node_success.all()),
            beep_rounds_used=2 * b,
            phase1_errors=phase1_errors,
            phase2_errors=phase2_errors,
            r_collision=r_collision,
            accepted_sets=accepted,
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

    def _phase1_matrix(
        self, plan: "_RoundPlan", candidates: Sequence[int]
    ) -> np.ndarray:
        """The phase-1 decoder's ``float32`` candidate codeword matrix.

        Under :attr:`CandidatePolicy.EXHAUSTIVE` the candidate list is the
        full domain every round, so the matrix is built once and reused.
        The other policies draw fresh random decoys each round; their
        matrix is scattered from the plan's slot table, which holds every
        candidate's one-positions.
        """
        if self._policy is not CandidatePolicy.EXHAUSTIVE:
            # float32 from the start: the phase-1 count product consumes
            # this matrix on the BLAS sgemm path (values stay exactly 0/1).
            matrix = np.zeros(
                (len(candidates), self._codes.length), dtype=np.float32
            )
            if candidates:
                rows = [plan.slot_rows[value] for value in candidates]
                matrix[
                    np.arange(len(candidates))[:, None], plan.slot_positions[rows]
                ] = 1.0
            return matrix
        if self._exhaustive_phase1 is None:
            self._exhaustive_phase1 = self._codes.beep_code.encode_many(
                list(candidates)
            ).astype(np.float32)
        return self._exhaustive_phase1

    def _phase2_matrix(self, message_candidates: Sequence[int]) -> np.ndarray | None:
        """The phase-2 boolean codeword matrix for ``message_candidates``.

        Built from a bounded per-session row cache (messages recur across
        rounds far more than the phase-1 random strings do); the full
        message space is cached wholesale under EXHAUSTIVE.
        """
        if not message_candidates:
            return None
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
    #: encode call and reused by the schedules and both decoders.
    slot_positions: "np.ndarray | None"
    slot_rows: "dict[int, int]"


def _run_round(
    sessions: "Sequence[BroadcastSession]", plans: "Sequence[_RoundPlan]"
) -> list[RoundOutcome]:
    """Run one planned round's beeping phases for every session, then decode.

    The one round driver: a standalone session passes itself as a batch of
    one, a :class:`BatchedSession` passes all its replicas (same topology).
    Each phase is one replica-batched schedule execution, routed through
    :func:`~repro.beeping.batch.run_schedule_batch` (not the executor
    directly) so dynamic topologies get their epoch segmentation.
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


def _build_phase_schedules_fast(
    codes: CombinedCode,
    r_values: Sequence[int],
    messages: "Sequence[int | None]",
    distance_rows: "LRUDict[int, np.ndarray]",
    extra_values: Sequence[int] = (),
) -> "tuple[np.ndarray, np.ndarray, np.ndarray | None, dict[int, int]]":
    """Vectorised twin of :func:`~repro.core.encoder.build_phase_schedules`.

    Produces element-identical schedules: phase 1 sets the one-positions
    of each active node's ``C(r_v)``, and phase 2 scatters each ``D(m_v)``
    into those positions in ascending order — exactly Notation 7's ``CD``
    layout — instead of looping :meth:`~repro.codes.CombinedCode.encode`
    per node.  ``distance_rows`` is the owning session's bounded row
    cache.

    The active nodes' r-values and ``extra_values`` (the round's decoy
    candidates) are encoded together in one
    :meth:`~repro.codes.BeepCode.encode_positions` call.  Besides the two
    schedules, returns that slot-position matrix (``None`` when it is
    empty) and a ``value → row`` map, so the decoders can reuse the
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


def _phase1_decode_fast(
    beep_code,
    heard: np.ndarray,
    candidates: Sequence[int],
    eps: float,
    codeword_matrix: "np.ndarray | None" = None,
) -> list[set[int]]:
    """Exact fast twin of :func:`~repro.core.decoder.phase1_decode`.

    Same Lemma 9 statistics and threshold, same accepted sets — the only
    difference is that the candidate × node count matrix rides the BLAS
    ``sgemm`` path: with the code length below 2^24 every partial sum is
    an integer exactly representable in float32, so the counts (and the
    threshold compare) cannot differ from the int32 product.
    """
    heard = np.asarray(heard, dtype=bool)
    if not candidates:
        return [set() for _ in range(heard.shape[0])]
    if codeword_matrix is None:
        codeword_matrix = beep_code.encode_many(list(candidates))
    if beep_code.length < _EXACT_FLOAT32_LIMIT:
        # Single-pass bool → float32 conversions (¬heard fused into the
        # subtraction, and the candidate matrix converted only when not
        # already float32), then the exact BLAS sgemm count product; the
        # threshold compare happens in float32, which is exact because
        # every count is an integral float below 2^24.
        not_heard = np.subtract(1.0, heard.T, dtype=np.float32)
        statistics = np.asarray(codeword_matrix, dtype=np.float32) @ not_heard
    else:  # pragma: no cover - paper-strict code lengths only
        statistics = codeword_matrix.astype(np.int64) @ (~heard).T.astype(np.int64)
    accepted_mask = statistics < beep_code.decoding_threshold(eps)
    accepted: list[set[int]] = [set() for _ in range(heard.shape[0])]
    for i, v in zip(*np.nonzero(accepted_mask)):
        accepted[v].add(candidates[i])
    return accepted


def _phase2_decode_fast(
    combined_code: CombinedCode,
    heard: np.ndarray,
    accepted: "Sequence[set[int]]",
    message_candidates: Sequence[int],
    codeword_matrix: "np.ndarray | None" = None,
    slot_positions: "np.ndarray | None" = None,
    slot_index: "dict[int, int] | None" = None,
) -> "list[dict[int, DecodedMessage]]":
    """Exact fast twin of :func:`~repro.core.decoder.phase2_decode`.

    Gathers every accepted ``(node, r)`` pair's heard subsequence into one
    rectangular matrix (beep codewords have constant weight) and computes
    all Hamming distances as a single exact count product —
    ``d(s, D(m)) = |D(m)| + |s| - 2 s·D(m)`` — so the per-pair winner,
    distance and margin (including the smallest-message tie-break, which
    ``argmin`` over the sorted candidate order preserves) match the
    reference decoder value for value.

    ``slot_positions``/``slot_index`` optionally supply precomputed slot
    patterns (row ``slot_index[r]`` holds the ascending one-positions of
    ``C(r)``, as the schedule builder returns them) so accepted values
    need no re-encoding; values missing from the index (the exhaustive
    domain's) are encoded in one ``encode_positions`` call.
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
    # Every session call site passes candidates pre-sorted (the
    # reference decoder's argsort is then the identity), so skip the
    # permutation copy unless the order actually needs fixing, and avoid
    # re-copying an already-boolean matrix.
    messages_arr = np.asarray(message_candidates, dtype=np.int64)
    if messages_arr.size > 1 and np.any(messages_arr[1:] < messages_arr[:-1]):
        order = np.argsort(messages_arr, kind="stable")
        ordered_messages = [message_candidates[i] for i in order]
        ordered_matrix = np.asarray(codeword_matrix)[order]
    else:
        ordered_messages = list(message_candidates)
        ordered_matrix = codeword_matrix
    ordered_matrix = np.asarray(ordered_matrix, dtype=bool)

    pair_nodes: list[int] = []
    pair_rs: list[int] = []
    for node in range(n):
        for r in sorted(accepted[node]):
            pair_nodes.append(node)
            pair_rs.append(r)
    results: list[dict[int, DecodedMessage]] = [dict() for _ in range(n)]
    if not pair_nodes:
        return results

    beep_code = combined_code.beep_code
    weight = beep_code.weight
    if slot_positions is None or slot_index is None:
        slot_positions, slot_index = np.empty((0, weight), dtype=np.int64), {}
    missing = sorted({r for r in pair_rs if r not in slot_index})
    if missing:
        slot_index = {
            **slot_index,
            **{r: len(slot_positions) + row for row, r in enumerate(missing)},
        }
        slot_positions = np.concatenate(
            (slot_positions, beep_code.encode_positions(missing))
        )
    positions = slot_positions[[slot_index[r] for r in pair_rs]]
    # One flat gather for every pair's subsequence beats row-wise
    # advanced indexing on the heard matrix.
    flat = heard.reshape(-1)
    subsequences = flat[
        np.asarray(pair_nodes, dtype=np.int64)[:, None] * heard.shape[1]
        + positions
    ]
    # distances[p, m] = |D(m)| + |s_p| - 2 s_p · D(m).  The intermediate
    # |D(m)| + |s_p| can reach 2 * weight, so float32 stays exact only
    # while that bound is representable (weight <= 2^23); beyond it fall
    # back to an integer computation.
    count_dtype = (
        np.float32 if weight <= _EXACT_FLOAT32_LIMIT // 2 else np.int64
    )
    code_weights = np.count_nonzero(ordered_matrix, axis=1).astype(count_dtype)
    sub_weights = np.count_nonzero(subsequences, axis=1).astype(count_dtype)
    dots = subsequences.astype(count_dtype) @ ordered_matrix.T.astype(count_dtype)
    distances = code_weights[np.newaxis, :] + sub_weights[:, np.newaxis] - 2 * dots
    best = np.argmin(distances, axis=1)
    best_distance = np.take_along_axis(
        distances, best[:, np.newaxis], axis=1
    )[:, 0]
    if distances.shape[1] > 1:
        runner_up = np.partition(distances, 1, axis=1)[:, 1]
        margins = runner_up - best_distance
    else:
        margins = weight - best_distance
    for pair, (node, r) in enumerate(zip(pair_nodes, pair_rs)):
        results[node][r] = DecodedMessage(
            message=ordered_messages[int(best[pair])],
            distance=int(best_distance[pair]),
            margin=int(margins[pair]),
        )
    return results


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


def _draw_r_values(
    rng: np.random.Generator, count: int, r_space: int
) -> list[int]:
    """Draw each node's random string as an integer in ``[0, 2^a)``.

    Equal, value for value, to ``count`` calls of
    :func:`repro.rng.random_bits` (``a`` routinely exceeds 63 bits, so
    ``Generator.integers`` cannot draw them), from one
    ``Generator.bytes`` call: each of those calls consumes whole 32-bit
    words, so node ``v``'s bytes start at ``v`` times the rounded-up
    stride, and the stream is left exactly where the calls would leave it.
    """
    if not count:
        return []  # numpy's bytes(0) still consumes a word
    bits = (r_space - 1).bit_length() if r_space > 1 else 1
    nbytes = (bits + 7) // 8
    stride = 4 * ((nbytes + 3) // 4)
    data = rng.bytes(count * stride)
    mask = (1 << bits) - 1
    return [
        int.from_bytes(data[start : start + nbytes], "little") & mask
        for start in range(0, count * stride, stride)
    ]


def _candidate_set(
    policy: CandidatePolicy,
    in_flight: list[int],
    r_space: int,
    r_bits: int,
    num_decoys: int,
    rng: np.random.Generator,
) -> list[int]:
    if policy is CandidatePolicy.EXHAUSTIVE:
        if r_bits > _EXHAUSTIVE_LIMIT_BITS:
            raise ConfigurationError(
                f"exhaustive policy limited to r_bits <= {_EXHAUSTIVE_LIMIT_BITS}, "
                f"got {r_bits}"
            )
        return list(range(r_space))
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
