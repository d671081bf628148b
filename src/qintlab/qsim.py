"""Dense state-vector simulation of small qubit registers.

Registers are big-endian: qubit 1 is the most significant bit, so the
basis index of the bit string ``(i_1, ..., i_m)`` is
``l = sum_j i_j * 2**(m - j)``.  States are immutable values; every
operation returns a new state and leaves its input untouched.  Norm drift
is never silently repaired: a state whose norm is off by more than
``NORM_TOL`` fails construction, which surfaces algorithmic bugs instead
of masking them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ledger import ResourceLedger

NORM_TOL = 1e-10
UNITARY_TOL = 1e-10

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)


@dataclass(frozen=True)
class QuantumState:
    """Normalised complex amplitude vector over the 2**m basis states."""

    m: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"need at least one qubit, got m={self.m}")
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.shape != (2**self.m,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected ({2**self.m},)"
            )
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm} drifted beyond {NORM_TOL}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return 2**self.m


@dataclass(frozen=True)
class LocalUnitary:
    """A unitary on one qubit, identity elsewhere; ``target`` is 1-based."""

    matrix: np.ndarray
    target: int

    def __post_init__(self):
        target = int(self.target)
        object.__setattr__(self, "target", target)
        if target < 1:
            raise ValueError(f"qubit indices are 1-based, got {target}")
        mat = np.array(self.matrix, dtype=np.complex128)
        if mat.shape != (2, 2):
            raise ValueError(f"matrix shape {mat.shape} is not a one-qubit gate's (2, 2)")
        dev = float(np.max(np.abs(mat.conj().T @ mat - np.eye(2))))
        if dev > UNITARY_TOL:
            raise ValueError(f"matrix is not unitary (deviation {dev})")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)


def basis_state(m: int, index: int) -> QuantumState:
    """The classical state with all amplitude on one basis vector."""
    if not 0 <= index < 2**m:
        raise ValueError(f"basis index {index} out of range for m={m}")
    amps = np.zeros(2**m, dtype=np.complex128)
    amps[index] = 1.0
    return QuantumState(m, amps)


def _apply_matrix(amps: np.ndarray, m: int, matrix: np.ndarray, axis: int) -> np.ndarray:
    """The 2x2 ``matrix`` on the 0-based qubit ``axis`` of a flat amplitude vector."""
    psi = np.moveaxis(amps.reshape([2] * m), axis, 0)
    moved_shape = psi.shape
    flat = matrix @ psi.reshape(2, -1)
    return np.moveaxis(flat.reshape(moved_shape), 0, axis).reshape(-1)


def apply_local_unitary(
    state: QuantumState, u: LocalUnitary, ledger: ResourceLedger | None = None
) -> QuantumState:
    """Apply a one-qubit unitary, identity on the remaining qubits."""
    if u.target > state.m:
        raise ValueError(f"target {u.target} exceeds register size m={state.m}")
    amps = _apply_matrix(state.amplitudes, state.m, u.matrix, u.target - 1)
    if ledger is not None:
        ledger.gates += 1
    return QuantumState(state.m, amps)


# Validated once; every Walsh-Hadamard layer applies its matrix.
_HADAMARD_GATE = LocalUnitary(HADAMARD, 1)


def walsh_hadamard_all(state: QuantumState, ledger: ResourceLedger | None = None) -> QuantumState:
    """Hadamard on every qubit; charged as m single-qubit gates.

    Each qubit gets the same product as ``apply_local_unitary`` with the
    Hadamard gate, so the amplitudes match that chain bit for bit; the norm
    is checked once for the whole layer.
    """
    amps = state.amplitudes
    for axis in range(state.m):
        amps = _apply_matrix(amps, state.m, _HADAMARD_GATE.matrix, axis)
    if ledger is not None:
        ledger.gates += state.m
    return QuantumState(state.m, amps)


def probability_vector(state: QuantumState) -> np.ndarray:
    """Measurement distribution over basis indices, |amplitude|**2."""
    return np.abs(state.amplitudes) ** 2


def measure_shots(
    state: QuantumState,
    shots: int,
    rng: np.random.Generator,
    ledger: ResourceLedger | None = None,
) -> np.ndarray:
    """Measure ``shots`` independent copies of the state, one basis index each.

    The same generator state reproduces the same outcomes; each readout of
    the m-qubit register is charged as m random bits.
    """
    probs = probability_vector(state)
    outcomes = rng.choice(state.dim, size=shots, p=probs / probs.sum())
    if ledger is not None:
        ledger.random_bits += state.m * shots
    return outcomes
