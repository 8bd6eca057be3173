"""Binary codes from Section 2 of the paper, plus classical baselines.

* :class:`BeepCode` — the novel ``(a, k, δ)``-beep codes of Definition 3 /
  Theorem 4: random constant-weight codes whose random size-``k``
  superimpositions are decodable with high probability.
* :class:`DistanceCode` — the ``(a, δ)``-distance codes of Definition 5 /
  Lemma 6 (random error-correcting codes).
* :class:`CombinedCode` — the combined code ``CD(r, m)`` of Notation 7 /
  Figure 1, writing a distance codeword into the one-positions of a beep
  codeword.
* :func:`encode_batch` — the codewords of several random codes and value
  lists from one batched pass over their exact ``(seed, input)`` streams.
* :class:`KautzSingletonCode` — the classical ``(a, k)``-superimposed codes
  of Definition 1 (Kautz–Singleton, via Reed–Solomon), the baseline whose
  ``O(k²a)`` length motivates the paper's weaker beep-code requirement.
"""

from .base import Code, encode_batch
from .distance import DistanceCode, minimum_pairwise_distance, paper_c_delta
from .beep import BeepCode
from .combined import CombinedCode
from .superimposed import KautzSingletonCode, is_k_superimposed
from .reed_solomon import ReedSolomonCode, is_prime, next_prime
from .analysis import (
    beep_code_length,
    dyachkov_rykov_lower_bound,
    kautz_singleton_length,
)

__all__ = [
    "Code",
    "encode_batch",
    "DistanceCode",
    "minimum_pairwise_distance",
    "paper_c_delta",
    "BeepCode",
    "CombinedCode",
    "KautzSingletonCode",
    "is_k_superimposed",
    "ReedSolomonCode",
    "is_prime",
    "next_prime",
    "beep_code_length",
    "dyachkov_rykov_lower_bound",
    "kautz_singleton_length",
]
