"""Resource accounting shared by all algorithm families."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ResourceLedger:
    """Counters for the four cost categories tracked by the lab.

    ``classical_evals`` counts function-value oracle calls made classically,
    ``quantum_queries`` counts applications of a quantum oracle (one per
    amplification-operator application plus one per state preparation),
    ``random_bits`` counts coin-model bits only (coin-tossing node draws and
    the bits read off a register measurement), and ``gates`` counts one- and
    two-qubit unitaries, with wider convenience operators charged at their
    equivalent gate count.  Plain Monte Carlo draws of real random numbers
    are not bit-accounted.  Counters only ever increase during a run.
    """

    classical_evals: int = 0
    quantum_queries: int = 0
    random_bits: int = 0
    gates: int = 0

    def add(self, other: ResourceLedger) -> None:
        """Charge every counter of ``other`` to this ledger."""
        self.classical_evals += other.classical_evals
        self.quantum_queries += other.quantum_queries
        self.random_bits += other.random_bits
        self.gates += other.gates

    def as_dict(self) -> dict[str, int]:
        return {
            "classical_evals": self.classical_evals,
            "quantum_queries": self.quantum_queries,
            "random_bits": self.random_bits,
            "gates": self.gates,
        }
