"""Parameter engine for the simulation algorithm (Section 3).

The paper instantiates two codes per Broadcast CONGEST round:

* a ``(γ log n, 1/3)``-distance code ``D`` of length ``c_ε² γ log n``;
* a ``(c_ε γ log n, Δ+1, 1/c_ε)``-beep code ``C`` of length
  ``c_ε³ γ (Δ+1) log n``.

Writing ``B = γ log n`` for the per-round message size, every quantity is
determined by ``(B, Δ, ε, c_ε)``:

====================  =======================
random string bits    ``a = c_ε B``
beep-code length      ``b = c_ε² (Δ+1) a = c_ε³ (Δ+1) B``
beep codeword weight  ``c_ε a = c_ε² B``
distance-code length  ``c_ε² B``  (equals the weight)
rounds per phase      ``b``; two phases per simulated round
====================  =======================

:func:`paper_strict_c` reproduces the paper's exact constant constraints
(they are astronomically large — see docs/ARCHITECTURE.md, "Practical
constants"); :func:`practical_c`
gives presets at which the implementation actually achieves high success
rates, as measured by experiments E4–E6.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

from ..codes import BeepCode, CombinedCode, DistanceCode
from ..errors import ConfigurationError

__all__ = [
    "CandidatePolicy",
    "paper_strict_c",
    "practical_c",
    "SimulationParameters",
]

#: Relative minimum distance of the message code, fixed to 1/3 in Section 3.
DISTANCE_DELTA = 1.0 / 3.0


class CandidatePolicy(enum.Enum):
    """How decoders enumerate candidate codewords.

    See docs/ARCHITECTURE.md, "Candidate policies".

    The per-candidate accept/reject tests are the paper's regardless of
    policy; the policy only controls which candidates are scanned.
    """

    #: Scan all ``2^a`` inputs and all ``2^B`` messages, exactly as the
    #: paper's decoder — exponential, only usable with tiny codes (unit
    #: tests prove the default scan agrees with this one).
    EXHAUSTIVE = "exhaustive"

    #: Scan every codeword in flight anywhere in the network, plus uniform
    #: random decoys; accepting a decoy or a non-neighbour is a recorded
    #: decoding error.  Default for experiments; with no decoys it scans
    #: only the codewords in flight.
    ORACLE_WITH_DECOYS = "oracle-with-decoys"


def paper_strict_c(eps: float) -> int:
    """The smallest ``c_ε`` satisfying every constraint in Lemmas 9–10.

    The constraints (collected verbatim from the paper)::

        c >= 60 / (1 - 2ε)                                (Lemma 9)
        c >= 54 / ((1 - 2ε)² ε) + 5                       (Lemma 9)
        c >= (6/ε) (1/(4ε) - 1/2)^-2                      (Lemma 9)
        c >= 30 / (ε (1 - 2ε))                            (Lemma 10)
        c >= 6 ((1-ε)(1-2ε) / (ε(7-2ε)))^-2               (Lemma 10)
        c² >= 108                                         (distance code, Lemma 6)

    For ``ε = 0.1`` this returns 1055 — the reason practical presets exist.
    """
    if not 0.0 < eps < 0.5:
        raise ConfigurationError(f"paper constants need eps in (0, 1/2), got {eps}")
    one_minus = 1.0 - 2.0 * eps
    lemma9_a = 60.0 / one_minus
    lemma9_b = 54.0 / (one_minus**2 * eps) + 5.0
    lemma9_c = (6.0 / eps) * (1.0 / (4.0 * eps) - 0.5) ** -2
    lemma10_a = 30.0 / (eps * one_minus)
    lemma10_b = 6.0 * ((1.0 - eps) * one_minus / (eps * (7.0 - 2.0 * eps))) ** -2
    distance = math.sqrt(108.0)
    return math.ceil(
        max(lemma9_a, lemma9_b, lemma9_c, lemma10_a, lemma10_b, distance)
    )


def practical_c(eps: float) -> int:
    """A laptop-scale ``c_ε`` at which decoding succeeds w.h.p. empirically.

    Calibrated by experiments E4–E6: the threshold structure of Lemmas 9–10
    works at small constants because the Chernoff slack in the proofs is
    loose, not because the algorithm changes.  Noise-free needs the least
    redundancy; higher ``ε`` needs more separation between the two decoding
    thresholds.
    """
    if not 0.0 <= eps < 0.5:
        raise ConfigurationError(f"eps must be in [0, 1/2), got {eps}")
    if eps == 0.0:
        return 3
    if eps <= 0.05:
        return 4
    if eps <= 0.15:
        return 5
    if eps <= 0.25:
        return 6
    return 8


@dataclass(frozen=True)
class SimulationParameters:
    """All parameters of one Algorithm 1 instantiation.

    Attributes
    ----------
    message_bits:
        Per-round Broadcast CONGEST message size ``B = γ log n``.
    max_degree:
        The network's maximum degree ``Δ``; the beep code is built for
        superimpositions of size ``k = Δ + 1``.
    eps:
        Channel noise rate (0 selects the noiseless model).
    c:
        The redundancy constant ``c_ε``.
    """

    message_bits: int
    max_degree: int
    eps: float
    c: int

    def __post_init__(self) -> None:
        if self.message_bits < 1:
            raise ConfigurationError("message_bits must be >= 1")
        if self.max_degree < 0:
            raise ConfigurationError("max_degree must be >= 0")
        if not 0.0 <= self.eps < 0.5:
            raise ConfigurationError(f"eps must be in [0, 1/2), got {self.eps}")
        if self.c < 3:
            raise ConfigurationError("c must be >= 3 (beep codes need c >= 3)")

    @classmethod
    def for_network(
        cls,
        num_nodes: int,
        max_degree: int,
        eps: float,
        gamma: int = 1,
        c: int | None = None,
        strict: bool = False,
    ) -> "SimulationParameters":
        """Build parameters for an ``n``-node network.

        ``message_bits = γ ceil(log₂ n)``; ``c`` defaults to
        :func:`practical_c` (or :func:`paper_strict_c` with ``strict=True``
        — beware the resulting code lengths).
        """
        if num_nodes < 2:
            raise ConfigurationError("need at least 2 nodes")
        message_bits = gamma * max(1, math.ceil(math.log2(num_nodes)))
        if c is None:
            c = paper_strict_c(eps) if strict else practical_c(eps)
        return cls(
            message_bits=message_bits, max_degree=max_degree, eps=eps, c=c
        )

    @property
    def k(self) -> int:
        """Superimposition size ``Δ + 1`` the beep code tolerates."""
        return self.max_degree + 1

    @property
    def r_bits(self) -> int:
        """Bits in each node's random string ``r_v``: ``a = c B``."""
        return self.c * self.message_bits

    @property
    def beep_code_length(self) -> int:
        """Beep-code length ``b = c² k a = c³ (Δ+1) B`` — rounds per phase."""
        return self.c * self.c * self.k * self.r_bits

    @property
    def beep_codeword_weight(self) -> int:
        """Beep codeword weight ``c a = c² B``."""
        return self.c * self.r_bits

    @property
    def distance_code_length(self) -> int:
        """Distance-code length — equals the beep codeword weight."""
        return self.beep_codeword_weight

    @property
    def rounds_per_simulated_round(self) -> int:
        """Beeping rounds to simulate one Broadcast CONGEST round: two
        phases of ``b`` rounds each (Algorithm 1)."""
        return 2 * self.beep_code_length

    @property
    def distance_delta(self) -> float:
        """Relative distance of the message code (1/3, per Section 3)."""
        return DISTANCE_DELTA

    def beep_code(self, seed: int) -> BeepCode:
        """The shared ``(cB, Δ+1, 1/c)``-beep code ``C``."""
        return BeepCode(
            input_bits=self.r_bits, k=self.k, c=self.c, seed=seed
        )

    def distance_code(self, seed: int) -> DistanceCode:
        """The shared ``(B, 1/3)``-distance code ``D``."""
        return DistanceCode(
            input_bits=self.message_bits,
            delta=DISTANCE_DELTA,
            length=self.distance_code_length,
            seed=seed,
        )

    def combined_code(self, seed: int) -> CombinedCode:
        """The combined code ``CD`` of Notation 7."""
        return CombinedCode(
            beep_code=self.beep_code(seed),
            distance_code=self.distance_code(seed),
        )

    @cached_property
    def overhead(self) -> int:
        """Simulation overhead in beeping rounds per Broadcast CONGEST round
        — the quantity Theorem 11 bounds by ``O(Δ log n)``."""
        return self.rounds_per_simulated_round
