"""Theory calculators and measurement helpers for the experiments."""

from .theory import (
    lemma8_failure_bound,
    lemma9_failure_bound,
    lemma10_failure_bound,
    theorem11_failure_bound,
    strict_constraint_table,
)
from .measurement import measure_round_success, fit_linear_factor

__all__ = [
    "lemma8_failure_bound",
    "lemma9_failure_bound",
    "lemma10_failure_bound",
    "theorem11_failure_bound",
    "strict_constraint_table",
    "measure_round_success",
    "fit_linear_factor",
]
