"""Channel noise models and dynamic-network scenarios for the beeping substrate.

The noisy beeping model of Ashkenazi, Gelles and Leshem [4] flips each heard
bit independently with probability ``ε ∈ (0, 1/2)``.  Per the paper's
Footnote 2 convention, a node "hears" its own beep as a 1, and in the noisy
model that self-observation is flipped with probability ``ε`` as well — a
simplification that only weakens the nodes, adopted here by default so
measured failure rates are comparable to the analysis.

Beyond the uniform :class:`BernoulliNoise` channel, this module is the
**scenario layer**: heterogeneous per-node noise rates
(:class:`HeterogeneousNoise`, :func:`unreliable_zone`), adversarial flip
schedules that spend the same ε budget in concentrated bursts
(:class:`AdversarialNoise`), and seeded node-churn / edge-failure
schedules over a static topology (:class:`DynamicTopology`).

**The window contract.**  Every noise model generates its flips one
4096-round *window* at a time from a Philox stream keyed by
``(seed, window index)``, and :class:`DynamicTopology` draws its per-epoch
masks the same way — so the flips (or the active edge set) for round
``t`` are a pure function of ``(seed, t, n)``.  They never depend on how
rounds are batched, which kernel executes them, or how many replicas
share a call.  That is the single property that keeps the dense,
bit-packed and replica-batched execution paths bit-identical under every
scenario (property-tested in ``tests/beeping/test_scenarios.py`` and
``tests/engine/``).

Windows are stored packed, in :mod:`repro.packing`'s word layout: node
``v``'s flip in round ``4096 w + t`` is bit ``t % 64`` of word
``t // 64`` in row ``v`` of window ``w``'s ``(n, 64)`` ``uint64``
matrix, and :meth:`WindowedNoise.flip_block` hands out spans of those
words.  The Bernoulli draws never become floats: ``Generator.random()``
maps a raw Philox word ``x`` to ``(x >> 11) · 2**-53``, and since
``ε · 2**53`` is exact in float64, ``random() < ε`` holds exactly when
``x < ceil(ε · 2**53) · 2**11``, so comparing the raw words against that
integer threshold draws the very flips the float comparison would.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..errors import ConfigurationError
from ..graphs import Topology
from ..lru import LRUDict
from ..packing import WORD_BITS, pack_columns, unpack_rows, words_for
from ..rng import derive_rng, derive_seed

__all__ = [
    "NoiseModel",
    "NoiselessChannel",
    "WindowedNoise",
    "BernoulliNoise",
    "HeterogeneousNoise",
    "AdversarialNoise",
    "DynamicTopology",
    "unreliable_zone",
    "make_noise_model",
    "noise_model_names",
    "parse_noise_model",
]


class NoiseModel(ABC):
    """Transforms the true received bits into what devices actually hear."""

    @property
    @abstractmethod
    def eps(self) -> float:
        """The per-bit flip probability (0 for a noiseless channel)."""

    @abstractmethod
    def apply(self, received: np.ndarray, round_index: int) -> np.ndarray:
        """Return the heard bits for one round (or a block of rounds).

        ``received`` is a boolean array — shape ``(n,)`` for a single round
        or ``(n, r)`` for a block starting at ``round_index``.  The same
        ``(round_index, shape)`` always yields the same flips, so the
        per-round engine and the batch executor produce identical noise.
        """


class NoiselessChannel(NoiseModel):
    """The noiseless beeping model: devices hear exactly the received bits."""

    @property
    def eps(self) -> float:
        """Always 0: no bit is ever flipped."""
        return 0.0

    def apply(self, received: np.ndarray, round_index: int) -> np.ndarray:
        """Return an unmodified boolean copy of ``received``."""
        return np.array(received, dtype=bool, copy=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NoiselessChannel()"


#: Rounds per noise window.  Flips are generated one window at a time from
#: a Philox stream keyed by (seed, window index), so the flips for round
#: ``t`` depend only on ``(seed, t, n)`` — executing rounds one at a time
#: or in arbitrary batches yields identical noise.
_WINDOW = 4096

#: Packed words per node in one window.
_WINDOW_WORDS = _WINDOW // WORD_BITS

#: Raw Philox words drawn at a time for a Bernoulli window (1 MiB): each
#: chunk is compared while still in cache, faster than drawing the whole
#: window (16 MiB at n = 512) first.
_RAW_CHUNK_WORDS = 1 << 17

#: Flip windows kept resident per channel; a window is stored packed,
#: ``n * 512`` bytes (256 KiB at n = 512), and chained phases touch at
#: most two consecutive windows plus the occasional replay, so a handful
#: suffices.
_WINDOW_CACHE_SIZE = 4


def _raw_threshold(eps: "float | np.ndarray") -> np.ndarray:
    """``ceil(ε · 2**53) << 11``, the bound below which a raw word flips.

    Exact for ``ε`` in ``[0, 1/2)`` (see the module docstring), 0 at
    ``ε = 0``, and elementwise for an array of rates.
    """
    scaled = np.ceil(np.asarray(eps, dtype=np.float64) * 2.0**53)
    return scaled.astype(np.uint64) << np.uint64(11)


class WindowedNoise(NoiseModel):
    """Shared machinery for window-keyed flip channels.

    Subclasses implement :meth:`_window_flips` — the round-major boolean
    ``(_WINDOW, n)`` flip matrix of one window, row ``t`` for round
    ``t`` as Philox fills it — from the per-window generator
    :meth:`_window_rng` provides.  This base packs each window once into
    ``(n, 64)`` ``uint64`` words, keeps a small per-``(window, n)`` LRU
    of them, and serves the packed :meth:`flip_block` and the 1-D/2-D
    :meth:`apply` from it.  Because every flip is a pure function of
    ``(seed, round, n)``, any channel built on this base automatically
    satisfies the window contract that keeps the execution kernels
    bit-identical.
    """

    def __init__(self, seed: int) -> None:
        self._seed = int(seed)
        key_rng = derive_rng(self._seed, "beep-noise-key")
        self._key = key_rng.integers(0, 2**63, size=2, dtype=np.uint64)
        # Small LRU of recently generated packed windows, keyed by
        # (window, n): two topologies of different sizes sharing one
        # channel instance can never cross-contaminate, and re-querying
        # an evicted window regenerates exactly the same flips
        # (regression-tested).
        self._window_cache: LRUDict[tuple[int, int], np.ndarray] = LRUDict(
            _WINDOW_CACHE_SIZE
        )

    @property
    def seed(self) -> int:
        """The seed keying the flip pattern."""
        return self._seed

    def apply(self, received: np.ndarray, round_index: int) -> np.ndarray:
        """XOR the window-keyed flips into ``received`` (1-D or 2-D form)."""
        received = np.asarray(received, dtype=bool)
        if received.ndim == 1:
            n = received.shape[0]
            window, offset = self._window_of(round_index)
            word, bit = divmod(offset, WORD_BITS)
            column = self._window_words(window, n)[:, word]
            flips = (column >> np.uint64(bit)) & np.uint64(1)
            return received ^ flips.astype(bool)
        if received.ndim != 2:
            raise ConfigurationError("received array must be 1-D or 2-D")
        n, rounds = received.shape
        return received ^ unpack_rows(self.flip_block(round_index, rounds, n), rounds)

    def flip_block(self, round_index: int, rounds: int, n: int) -> np.ndarray:
        """The packed ``(n, words_for(rounds))`` flips from ``round_index``.

        Node ``v``'s flip in round ``round_index + t`` is bit ``t % 64``
        of word ``t // 64`` in row ``v`` (``pack_rows`` of the boolean
        ``(n, rounds)`` flip matrix), and pad bits are zero.  This is the
        raw noise stream :meth:`apply` XORs in, which the bit-packed
        kernel XORs into its packed rows as it is.  Only the windows the
        span covers are generated or read, and the result is a fresh
        ``<u8`` array, never a view of a cached window.
        """
        window, _ = self._window_of(round_index)
        for name, value in (("rounds", rounds), ("n", n)):
            if value < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {value}")
        words = words_for(rounds)
        if words == 0:
            return np.zeros((n, 0), dtype=np.dtype("<u8"))
        # Global word indices of the span's first and last rounds.
        first, shift = divmod(round_index, WORD_BITS)
        last = (round_index + rounds - 1) // WORD_BITS
        parts = []
        for covered in range(window, last // _WINDOW_WORDS + 1):
            base = covered * _WINDOW_WORDS
            cached = self._window_words(covered, n)
            parts.append(cached[:, max(first - base, 0) : last + 1 - base])
        source = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
        flips = source[:, :words] >> np.uint64(shift)
        if shift:
            # Funnel shift: word j takes its high bits from source word
            # j + 1, which past the span's last word does not exist and
            # reads as zero.
            flips[:, : source.shape[1] - 1] |= source[:, 1:] << np.uint64(
                WORD_BITS - shift
            )
        tail = rounds % WORD_BITS
        if tail:
            flips[:, -1] &= np.uint64((1 << tail) - 1)
        return flips

    @staticmethod
    def _window_of(round_index: int) -> tuple[int, int]:
        """``(window, offset)`` of a global round, which must be ``>= 0``."""
        if round_index < 0:
            raise ConfigurationError(
                f"round_index must be >= 0, got {round_index}"
            )
        return divmod(round_index, _WINDOW)

    def _window_rng(self, window: int) -> np.random.Generator:
        """The Philox generator for one window, counter-keyed by its index."""
        bit_generator = np.random.Philox(
            key=self._key, counter=[0, 0, np.uint64(window), 0]
        )
        return np.random.Generator(bit_generator)

    def _window_below(
        self, window: int, n: int, thresholds: np.ndarray
    ) -> np.ndarray:
        """Round-major ``(_WINDOW, n)`` flips: raw words below ``thresholds``.

        The words are those ``random((_WINDOW, n))`` on :meth:`_window_rng`
        would turn into floats, in the same order; ``thresholds`` is one
        :func:`_raw_threshold` or one per column.
        """
        bit_generator = self._window_rng(window).bit_generator
        flips = np.empty((_WINDOW, n), dtype=bool)
        rows = max(1, _RAW_CHUNK_WORDS // max(n, 1))
        for start in range(0, _WINDOW, rows):
            stop = min(start + rows, _WINDOW)
            raw = bit_generator.random_raw((stop - start, n))
            np.less(raw, thresholds, out=flips[start:stop])
        return flips

    def _window_words(self, window: int, n: int) -> np.ndarray:
        """The read-only packed ``(n, 64)`` flips of one window, LRU-cached."""
        cache_key = (window, n)
        words = self._window_cache.get(cache_key)
        if words is None:
            words = pack_columns(self._window_flips(window, n))
            words.setflags(write=False)
            self._window_cache[cache_key] = words
        return words

    @abstractmethod
    def _window_flips(self, window: int, n: int) -> np.ndarray:
        """Generate the round-major boolean ``(_WINDOW, n)`` flips of one window."""


class BernoulliNoise(WindowedNoise):
    """The noisy beeping model: each heard bit flips with probability ``ε``.

    Flips are keyed by ``(seed, round)`` so executions are reproducible and
    independent of how rounds are batched: applying rounds one at a time or
    as a block yields the same flip pattern.
    """

    def __init__(self, eps: float, seed: int) -> None:
        if not 0.0 < eps < 0.5:
            raise ConfigurationError(
                f"noisy beeping requires eps in (0, 1/2), got {eps} "
                "(use NoiselessChannel for eps = 0)"
            )
        self._eps = eps
        self._threshold = _raw_threshold(eps)
        super().__init__(seed)

    @property
    def eps(self) -> float:
        """The uniform per-bit flip probability."""
        return self._eps

    def _window_flips(self, window: int, n: int) -> np.ndarray:
        """One window of iid Bernoulli(ε) flips (raw words below the threshold)."""
        return self._window_below(window, n, self._threshold)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BernoulliNoise(eps={self._eps}, seed={self._seed})"


class HeterogeneousNoise(WindowedNoise):
    """Per-node flip probabilities: node ``v`` hears through ε = ``eps_vector[v]``.

    Models heterogeneous networks whose devices differ in radio
    reliability: each heard bit of node ``v`` flips independently with
    that node's own rate.  The flips come from the same per-window raw
    Philox words as :class:`BernoulliNoise`'s, compared against one
    integer threshold per column (``ε_v = 0`` never flips) — so the
    window contract holds and the channel is pinned to the ``n =
    len(eps_vector)`` it was built for (applying it to any other width
    is a configuration error, never silent recycling).
    """

    def __init__(self, eps_vector, seed: int) -> None:
        vector = np.asarray(eps_vector, dtype=np.float64)
        if vector.ndim != 1 or vector.shape[0] == 0:
            raise ConfigurationError(
                "heterogeneous noise needs a non-empty 1-D eps vector, "
                f"got shape {vector.shape}"
            )
        if np.any(vector < 0.0) or np.any(vector >= 0.5):
            raise ConfigurationError(
                "heterogeneous noise requires every per-node eps in [0, 1/2); "
                f"offending values include {vector[(vector < 0) | (vector >= 0.5)][:3]}"
            )
        self._eps_vector = vector
        self._eps_vector.setflags(write=False)
        self._thresholds = _raw_threshold(vector)
        super().__init__(seed)

    @property
    def eps(self) -> float:
        """The mean per-node flip probability (the channel's ε budget)."""
        return float(self._eps_vector.mean())

    @property
    def eps_vector(self) -> np.ndarray:
        """The read-only per-node flip-probability vector."""
        return self._eps_vector

    @property
    def num_nodes(self) -> int:
        """The node count this channel is pinned to."""
        return int(self._eps_vector.shape[0])

    def _window_flips(self, window: int, n: int) -> np.ndarray:
        """One window of per-node Bernoulli(ε_v) flips (one raw-word bound per node)."""
        if n != self.num_nodes:
            raise ConfigurationError(
                f"heterogeneous channel built for {self.num_nodes} nodes "
                f"applied to {n}"
            )
        return self._window_below(window, n, self._thresholds)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HeterogeneousNoise(n={self.num_nodes}, "
            f"mean_eps={self.eps:.4g}, seed={self._seed})"
        )


class AdversarialNoise(WindowedNoise):
    """Worst-case flips within the per-window ε budget.

    Spends the same expected flip budget as Bernoulli(ε) — at most
    ``floor(ε · 4096 · n)`` flips per window — but concentrates it into
    *whole-round bursts*: seeded rounds of the window have every node's
    heard bit inverted at once (plus one partial round for the budget
    remainder).  A fully inverted round maximally perturbs every node's
    heard count simultaneously, which is exactly what the Lemma 9
    threshold test and the phase-2 distance margins average away under
    iid noise — so this channel probes where the decision margins break
    rather than degrade.

    The burst placement is a pure function of ``(seed, window, n)``
    (never of the transmitted bits), so the window contract — and with
    it the bit-identity of every execution path — is preserved.
    """

    def __init__(self, eps: float, seed: int) -> None:
        if not 0.0 < eps < 0.5:
            raise ConfigurationError(
                f"adversarial noise requires eps in (0, 1/2), got {eps} "
                "(use NoiselessChannel for eps = 0)"
            )
        self._eps = eps
        super().__init__(seed)

    @property
    def eps(self) -> float:
        """The per-window flip budget, expressed as the equivalent ε rate."""
        return self._eps

    def _window_flips(self, window: int, n: int) -> np.ndarray:
        """One window of budgeted full-round bursts at seeded positions."""
        block = np.zeros((_WINDOW, n), dtype=bool)
        budget = int(self._eps * _WINDOW * n)
        if budget == 0:
            return block
        rng = self._window_rng(window)
        full, remainder = divmod(budget, n)
        # Seeded burst placement via argsort of uniforms: deterministic
        # given the Philox stream, and eps < 1/2 bounds full below
        # _WINDOW / 2, so there is always room for the partial round.
        round_order = np.argsort(rng.random(_WINDOW), kind="stable")
        block[round_order[:full]] = True
        if remainder:
            node_order = np.argsort(rng.random(n), kind="stable")
            block[round_order[full], node_order[:remainder]] = True
        return block

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AdversarialNoise(eps={self._eps}, seed={self._seed})"


def unreliable_zone(
    n: int,
    *,
    frac: float,
    eps_hot: float,
    eps_cold: float,
    seed: int,
) -> HeterogeneousNoise:
    """A two-level heterogeneous profile: a seeded hot zone in a cold network.

    ``round(frac * n)`` nodes (at least one, chosen by a seeded
    permutation) hear through ``eps_hot``; every other node hears through
    ``eps_cold``.  The hot-node subset depends only on ``(seed, n)``, so
    the profile is reproducible across processes and kernels.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ConfigurationError(f"unreliable_zone needs n >= 1, got {n!r}")
    if not 0.0 <= frac <= 1.0:
        raise ConfigurationError(
            f"unreliable_zone frac must be in [0, 1], got {frac}"
        )
    for name, value in (("eps_hot", eps_hot), ("eps_cold", eps_cold)):
        if not 0.0 <= value < 0.5:
            raise ConfigurationError(
                f"unreliable_zone {name} must be in [0, 1/2), got {value}"
            )
    hot_count = min(int(n), max(1, int(round(frac * n)))) if frac > 0 else 0
    vector = np.full(int(n), eps_cold, dtype=np.float64)
    if hot_count:
        order = derive_rng(seed, "unreliable-zone", int(n)).permutation(int(n))
        vector[order[:hot_count]] = eps_hot
    return HeterogeneousNoise(vector, seed=seed)


class DynamicTopology:
    """A seeded node-churn / edge-failure schedule over a static topology.

    Rounds are grouped into *epochs* of ``period`` beeping rounds; for
    each epoch a Philox draw keyed by ``(seed, epoch)`` marks a set of
    down nodes (probability ``churn`` each — a down node's radio is off,
    masking every incident edge while the node keeps listening to
    silence) and independently failed edges (probability
    ``edge_failure`` each).  :meth:`topology_at` materialises the masked
    epoch as an ordinary static :class:`~repro.graphs.Topology` (LRU
    cached), which is how the executors consume it: the schedule runner
    segments executions at epoch boundaries and hands each segment a
    static topology, so **no kernel ever sees the wrapper** and the
    bit-identity of dense / bit-packed / batched execution extends to
    dynamic networks for free.

    The mask for round ``t`` depends only on ``(seed, t // period, n)``
    — the window contract again — never on how the surrounding rounds
    are batched.  Node and edge counts, and the degree bound ``Δ``, are
    reported from the *base* topology (masking only removes edges), so
    parameter sizing against the wrapper stays conservative.
    """

    #: Masked epoch topologies kept resident per wrapper.
    _EPOCH_CACHE_SIZE = 8

    def __init__(
        self,
        base: Topology,
        *,
        period: int,
        churn: float = 0.0,
        edge_failure: float = 0.0,
        seed: int = 0,
    ) -> None:
        if isinstance(base, DynamicTopology):
            raise ConfigurationError("DynamicTopology cannot wrap another")
        if (
            not isinstance(period, (int, np.integer))
            or isinstance(period, bool)
            or period < 1
        ):
            raise ConfigurationError(
                f"dynamic topology period must be an int >= 1, got {period!r}"
            )
        for name, value in (("churn", churn), ("edge_failure", edge_failure)):
            if not 0.0 <= value < 1.0:
                raise ConfigurationError(
                    f"dynamic topology {name} must be in [0, 1), got {value}"
                )
        self._base = base
        self._period = int(period)
        self._churn = float(churn)
        self._edge_failure = float(edge_failure)
        self._seed = int(seed)
        key_rng = derive_rng(self._seed, "dynamic-topology-key")
        self._key = key_rng.integers(0, 2**63, size=2, dtype=np.uint64)
        # Canonical sorted (u, v) edge list of the base graph: the fixed
        # order the per-epoch edge-failure draws index into.
        self._edges = np.asarray(base.edges(), dtype=np.int64).reshape(-1, 2)
        self._epoch_cache: LRUDict[int, Topology] = LRUDict(
            self._EPOCH_CACHE_SIZE
        )

    @property
    def base(self) -> Topology:
        """The unmasked static :class:`~repro.graphs.Topology`."""
        return self._base

    @property
    def period(self) -> int:
        """Beeping rounds per epoch (one mask draw per epoch)."""
        return self._period

    @property
    def churn(self) -> float:
        """Per-epoch probability that a node's radio is down."""
        return self._churn

    @property
    def edge_failure(self) -> float:
        """Per-epoch probability that an individual edge fails."""
        return self._edge_failure

    @property
    def seed(self) -> int:
        """The seed keying the churn/failure schedule."""
        return self._seed

    @property
    def num_nodes(self) -> int:
        """Node count of the base topology (masking never removes nodes)."""
        return self._base.num_nodes

    @property
    def num_edges(self) -> int:
        """Edge count of the *base* topology (the masked count varies)."""
        return self._base.num_edges

    @property
    def max_degree(self) -> int:
        """Degree bound ``Δ`` of the base topology (an upper bound per epoch)."""
        return self._base.max_degree

    def epoch_of(self, round_index: int) -> int:
        """The epoch containing global beeping round ``round_index``."""
        if round_index < 0:
            raise ConfigurationError(
                f"round_index must be >= 0, got {round_index}"
            )
        return round_index // self._period

    def segments(self, start_round: int, rounds: int):
        """Epoch-aligned ``(start, stop)`` global-round segments of a span.

        Yields consecutive half-open intervals covering
        ``[start_round, start_round + rounds)``, each contained in a
        single epoch — the unit at which the schedule runners swap in
        :meth:`topology_at` masks.
        """
        position = start_round
        end = start_round + rounds
        while position < end:
            boundary = (self.epoch_of(position) + 1) * self._period
            stop = min(boundary, end)
            yield position, stop
            position = stop

    def topology_at(self, round_index: int) -> Topology:
        """The masked static topology active during ``round_index``'s epoch."""
        return self._epoch_topology(self.epoch_of(round_index))

    def _epoch_topology(self, epoch: int) -> Topology:
        """Materialise (and cache) the masked topology of one epoch."""
        cached = self._epoch_cache.get(epoch)
        if cached is not None:
            return cached
        n = self.num_nodes
        rng = np.random.Generator(
            np.random.Philox(key=self._key, counter=[0, 0, np.uint64(epoch), 0])
        )
        # Draw order is fixed — nodes first, then edges — so each mask is
        # a pure function of (seed, epoch, n) regardless of the rates.
        node_down = rng.random(n) < self._churn
        edge_down = rng.random(self._edges.shape[0]) < self._edge_failure
        keep = ~(
            edge_down | node_down[self._edges[:, 0]] | node_down[self._edges[:, 1]]
        )
        topology = Topology.from_edges(n, self._edges[keep])
        self._epoch_cache[epoch] = topology
        return topology

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DynamicTopology(n={self.num_nodes}, period={self._period}, "
            f"churn={self._churn}, edge_failure={self._edge_failure}, "
            f"seed={self._seed})"
        )


#: Grid-facing noise-model names (the ``zone:`` form is parameterised by
#: its hot-zone fraction, e.g. ``"zone:0.25"``).
_KNOWN_NOISE_MODELS = ("bernoulli", "adversarial", "zone:<frac>")

#: How much hotter the unreliable zone runs than the nominal rate before
#: capping; the cold rate is solved so the mean stays on the ε budget.
_ZONE_HOT_FACTOR = 4.0

#: The hot zone's rate ceiling (strictly below the model's 1/2 bound).
_ZONE_HOT_CAP = 0.45


def noise_model_names() -> tuple[str, ...]:
    """The grid-facing noise-model names, ``zone:`` shown parameterised."""
    return _KNOWN_NOISE_MODELS


def parse_noise_model(name: str) -> tuple:
    """Validate a noise-model name into its parsed ``(kind, ...)`` form.

    Accepts ``"bernoulli"``, ``"adversarial"``, and ``"zone:<frac>"``
    with a fractional hot-zone size in ``(0, 1]``.  Anything else raises
    a one-line :class:`ConfigurationError` listing the known names — the
    sweep CLI surfaces that as its usual exit-2 error.
    """
    known = ", ".join(_KNOWN_NOISE_MODELS)
    if not isinstance(name, str):
        raise ConfigurationError(
            f"noise model must be a string, got {name!r}; known: {known}"
        )
    if name == "bernoulli":
        return ("bernoulli",)
    if name == "adversarial":
        return ("adversarial",)
    if name.startswith("zone:"):
        try:
            frac = float(name[len("zone:") :])
        except ValueError:
            raise ConfigurationError(
                f"unknown noise model {name!r}; known: {known}"
            ) from None
        if not 0.0 < frac <= 1.0:
            raise ConfigurationError(
                f"zone fraction must be in (0, 1], got {frac} in {name!r}"
            )
        return ("zone", frac)
    raise ConfigurationError(f"unknown noise model {name!r}; known: {known}")


def zone_rates(n: int, frac: float, eps: float) -> tuple[int, float, float]:
    """Resolve a zone profile's ``(hot_count, eps_hot, eps_cold)`` for a budget.

    The hot zone runs at ``min(0.45, 4 ε)`` (never below ε, and never
    above ``n ε / hot_count`` — a large zone cannot outspend the
    budget); the cold rate is solved so the *mean* per-node rate never
    exceeds the nominal ε budget — a ``zone:`` channel is a
    redistribution of the same budget, not extra noise.
    """
    hot_count = min(int(n), max(1, int(round(frac * n))))
    eps_hot = max(
        eps,
        min(_ZONE_HOT_CAP, _ZONE_HOT_FACTOR * eps, eps * n / hot_count),
    )
    if hot_count >= n:
        return int(n), eps, eps
    eps_cold = max(0.0, (eps * n - hot_count * eps_hot) / (n - hot_count))
    return hot_count, eps_hot, eps_cold


def make_noise_model(name: str, eps: float, seed: int, n: int) -> NoiseModel:
    """Build a grid point's channel from its ``noise_model`` axis value.

    ``seed`` is the point's *session* seed; the channel seed is
    ``derive_seed(seed, "channel")``, and ``"bernoulli"`` is the default
    channel of :class:`repro.core.BroadcastSession`.  ``eps == 0`` is the
    noiseless channel for every model name (all models are ε-budget
    shapes, and a zero budget buys zero flips).
    """
    parsed = parse_noise_model(name)
    if eps == 0.0:
        return NoiselessChannel()
    channel_seed = derive_seed(seed, "channel")
    if parsed[0] == "bernoulli":
        return BernoulliNoise(eps, channel_seed)
    if parsed[0] == "adversarial":
        return AdversarialNoise(eps, channel_seed)
    frac = parsed[1]
    _, eps_hot, eps_cold = zone_rates(n, frac, eps)
    return unreliable_zone(
        n, frac=frac, eps_hot=eps_hot, eps_cold=eps_cold, seed=channel_seed
    )
