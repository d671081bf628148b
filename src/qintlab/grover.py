"""Grover search over a bit-valued oracle, plus its closed-form success law.

The iterate is the product of the sign oracle, a Walsh-Hadamard sandwich
around the zero-state reflection, and a global sign.  The sign oracle is
simulated as one diagonal update and charged as a single oracle query (the
one-query ancilla construction) and one gate; each full iteration therefore
costs one query and 2m + 2 gates.
"""

from __future__ import annotations

import math

import numpy as np

from .ledger import ResourceLedger
from .qsim import QuantumState, basis_state, probability_vector, walsh_hadamard_all


class BitOracle:
    """A predicate on {0, ..., 2**m - 1} exposed as a sign-flip oracle.

    ``marked`` is an iterable of marked indices.  The query counter of an
    attached ledger increments by exactly one per quantum application.
    """

    def __init__(self, m: int, marked):
        if m < 1:
            raise ValueError(f"need at least one qubit, got m={m}")
        n = 2**m
        mask = np.zeros(n, dtype=bool)
        indices = np.asarray(list(marked), dtype=int)
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise ValueError(f"marked indices out of range for m={m}")
        mask[indices] = True
        self.m = m
        self.domain_size = n
        self.mask = mask
        self.marked_count = int(mask.sum())


def sign_oracle(
    oracle: BitOracle, state: QuantumState, ledger: ResourceLedger | None = None
) -> QuantumState:
    """Negate the amplitude of every marked basis state."""
    if state.m != oracle.m:
        raise ValueError(f"state has {state.m} qubits, oracle expects {oracle.m}")
    amps = state.amplitudes.copy()
    amps[oracle.mask] *= -1.0
    if ledger is not None:
        ledger.quantum_queries += 1
        ledger.gates += 1
    return QuantumState(state.m, amps)


def _sign_flip_zero(state: QuantumState, ledger: ResourceLedger | None) -> QuantumState:
    amps = state.amplitudes.copy()
    amps[0] *= -1.0
    if ledger is not None:
        ledger.gates += 1
    return QuantumState(state.m, amps)


def grover_iterate(
    oracle: BitOracle, state: QuantumState, ledger: ResourceLedger | None = None
) -> QuantumState:
    """One amplification step: global sign, W, zero reflection, W, sign oracle."""
    state = sign_oracle(oracle, state, ledger)
    state = walsh_hadamard_all(state, ledger)
    state = _sign_flip_zero(state, ledger)
    state = walsh_hadamard_all(state, ledger)
    return QuantumState(state.m, -state.amplitudes)


def default_iterations(m: int) -> int:
    """Iteration count for a single marked element, never below one."""
    return max(1, round(math.pi * 2 ** (m / 2 - 2)))


def grover_state(
    oracle: BitOracle, iterations: int, ledger: ResourceLedger | None = None
) -> QuantumState:
    """Pre-measurement state after the given number of iterations."""
    if iterations < 0:
        raise ValueError("iteration count must be non-negative")
    state = walsh_hadamard_all(basis_state(oracle.m, 0), ledger)
    for _ in range(iterations):
        state = grover_iterate(oracle, state, ledger)
    return state


def marked_probability(oracle: BitOracle, state: QuantumState) -> float:
    """Probability mass the state puts on the marked set."""
    return float(probability_vector(state)[oracle.mask].sum())


def success_probability_analytic(domain_size: int, marked_count: int, iterations: int) -> float:
    """Closed-form success probability sin((2k+1) * theta)**2, sin(theta)**2 = t/N.

    Serves as the independent check on the simulated iteration.
    """
    if not 1 <= marked_count <= domain_size:
        raise ValueError(f"marked count {marked_count} outside [1, {domain_size}]")
    if iterations < 0:
        raise ValueError("iteration count must be non-negative")
    theta = math.asin(math.sqrt(marked_count / domain_size))
    return math.sin((2 * iterations + 1) * theta) ** 2
