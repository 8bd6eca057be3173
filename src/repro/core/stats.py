"""Round and failure accounting for simulated executions."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SimulationStats"]


@dataclass
class SimulationStats:
    """Accumulated statistics across a simulated execution.

    Attributes
    ----------
    simulated_rounds:
        Broadcast CONGEST rounds simulated.
    beep_rounds:
        Total beeping rounds consumed.
    failed_rounds:
        Simulated rounds in which at least one node decoded its neighbour
        message multiset incorrectly.
    phase1_node_errors:
        Node-rounds where the accepted set ``R̃_v`` differed from the true
        neighbour codeword set ``R_v``.
    phase2_node_errors:
        Node-rounds where some neighbour message decoded incorrectly
        (given a correct phase 1).
    r_collisions:
        Simulated rounds in which two transmitting nodes drew the same
        random string (the event Lemma 8 conditions away).
    """

    simulated_rounds: int = 0
    beep_rounds: int = 0
    failed_rounds: int = 0
    phase1_node_errors: int = 0
    phase2_node_errors: int = 0
    r_collisions: int = 0

    def record_round(
        self,
        beep_rounds: int,
        success: bool,
        phase1_errors: int,
        phase2_errors: int,
        r_collision: bool,
    ) -> None:
        """Fold one simulated round's outcome into the totals."""
        self.simulated_rounds += 1
        self.beep_rounds += beep_rounds
        self.failed_rounds += 0 if success else 1
        self.phase1_node_errors += phase1_errors
        self.phase2_node_errors += phase2_errors
        self.r_collisions += 1 if r_collision else 0

    @property
    def success_rate(self) -> float:
        """Fraction of simulated rounds decoded perfectly at every node."""
        if self.simulated_rounds == 0:
            return 1.0
        return 1.0 - self.failed_rounds / self.simulated_rounds

    @property
    def overhead(self) -> float:
        """Measured beeping rounds per simulated round."""
        if self.simulated_rounds == 0:
            return 0.0
        return self.beep_rounds / self.simulated_rounds
