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


def bits_of(index: int, m: int) -> tuple[int, ...]:
    """Bit string (i_1, ..., i_m) of a basis index, most significant first."""
    if not 0 <= index < 2**m:
        raise ValueError(f"basis index {index} out of range for m={m}")
    return tuple((index >> (m - j)) & 1 for j in range(1, m + 1))


def index_of(bits) -> int:
    """Basis index of a bit string, inverse of :func:`bits_of`."""
    index = 0
    for b in bits:
        index = (index << 1) | int(b)
    return index


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
    """A unitary acting on one or two qubits, identity elsewhere.

    ``targets`` are 1-based qubit indices; for a two-qubit gate the first
    target is the more significant factor of the 4-dimensional gate space.
    """

    matrix: np.ndarray
    targets: tuple[int, ...]

    def __post_init__(self):
        targets = tuple(int(t) for t in self.targets)
        object.__setattr__(self, "targets", targets)
        if len(targets) not in (1, 2):
            raise ValueError("local unitaries act on one or two qubits")
        if len(set(targets)) != len(targets):
            raise ValueError(f"targets must be distinct, got {targets}")
        if any(t < 1 for t in targets):
            raise ValueError(f"qubit indices are 1-based, got {targets}")
        mat = np.array(self.matrix, dtype=np.complex128)
        dim = 2 ** len(targets)
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} does not match arity {len(targets)}")
        dev = float(np.max(np.abs(mat.conj().T @ mat - np.eye(dim))))
        if dev > UNITARY_TOL:
            raise ValueError(f"matrix is not unitary (deviation {dev})")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @property
    def arity(self) -> int:
        return len(self.targets)


def basis_state(m: int, index: int) -> QuantumState:
    """The classical state with all amplitude on one basis vector."""
    if not 0 <= index < 2**m:
        raise ValueError(f"basis index {index} out of range for m={m}")
    amps = np.zeros(2**m, dtype=np.complex128)
    amps[index] = 1.0
    return QuantumState(m, amps)


def _apply_matrix(amps: np.ndarray, m: int, matrix: np.ndarray, axes: list[int]) -> np.ndarray:
    """``matrix`` on the given 0-based qubit axes of a flat amplitude vector."""
    psi = np.moveaxis(amps.reshape([2] * m), axes, range(len(axes)))
    moved_shape = psi.shape
    flat = matrix @ psi.reshape(2 ** len(axes), -1)
    return np.moveaxis(flat.reshape(moved_shape), range(len(axes)), axes).reshape(-1)


def apply_local_unitary(
    state: QuantumState, u: LocalUnitary, ledger: ResourceLedger | None = None
) -> QuantumState:
    """Apply a one- or two-qubit unitary, identity on the remaining qubits."""
    if any(t > state.m for t in u.targets):
        raise ValueError(f"targets {u.targets} exceed register size m={state.m}")
    amps = _apply_matrix(state.amplitudes, state.m, u.matrix, [t - 1 for t in u.targets])
    if ledger is not None:
        ledger.gates += 1
    return QuantumState(state.m, amps)


# Validated once; every Walsh-Hadamard layer applies its matrix.
_HADAMARD_GATE = LocalUnitary(HADAMARD, (1,))


def walsh_hadamard_all(state: QuantumState, ledger: ResourceLedger | None = None) -> QuantumState:
    """Hadamard on every qubit; charged as m single-qubit gates.

    Each qubit gets the same product as ``apply_local_unitary`` with the
    Hadamard gate, so the amplitudes match that chain bit for bit; the norm
    is checked once for the whole layer.
    """
    amps = state.amplitudes
    for axis in range(state.m):
        amps = _apply_matrix(amps, state.m, _HADAMARD_GATE.matrix, [axis])
    if ledger is not None:
        ledger.gates += state.m
    return QuantumState(state.m, amps)


def probability_vector(state: QuantumState) -> np.ndarray:
    """Measurement distribution over basis indices, |amplitude|**2."""
    return np.abs(state.amplitudes) ** 2


def measure(
    state: QuantumState, rng: np.random.Generator, ledger: ResourceLedger | None = None
) -> int:
    """Sample a basis index from the measurement distribution.

    One shot of ``measure_shots``: the same generator state reproduces the
    same outcome, and reading out the m-qubit register is charged as m
    random bits.
    """
    return int(measure_shots(state, 1, rng, ledger)[0])


def measure_shots(
    state: QuantumState,
    shots: int,
    rng: np.random.Generator,
    ledger: ResourceLedger | None = None,
) -> np.ndarray:
    """Repeated measurement of independent copies of the same state."""
    probs = probability_vector(state)
    outcomes = rng.choice(state.dim, size=shots, p=probs / probs.sum())
    if ledger is not None:
        ledger.random_bits += state.m * shots
    return outcomes
