"""Resource accounting shared by all algorithm families."""

from __future__ import annotations

from dataclasses import dataclass, fields


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
        for name in COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def as_dict(self) -> dict[str, int]:
        """The counters by name, in ``COUNTERS`` order."""
        return {name: getattr(self, name) for name in COUNTERS}


# The counter names in field order; reports and records are built from it.
COUNTERS = tuple(f.name for f in fields(ResourceLedger))
