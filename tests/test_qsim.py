"""State-vector simulator: basis encoding, gate application, measurement."""

import numpy as np
import pytest

from qintlab.ledger import ResourceLedger
from qintlab.qsim import (
    HADAMARD,
    LocalUnitary,
    QuantumState,
    apply_local_unitary,
    basis_state,
    bits_of,
    index_of,
    measure,
    measure_shots,
    probability_vector,
    walsh_hadamard_all,
)

SQ2 = 1 / np.sqrt(2)


def random_unitary(dim, rng):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(m, rng):
    amps = rng.normal(size=2**m) + 1j * rng.normal(size=2**m)
    return QuantumState(m, amps / np.linalg.norm(amps))


def test_basis_state_examples():
    assert np.allclose(basis_state(2, 3).amplitudes, [0, 0, 0, 1])
    assert np.allclose(basis_state(1, 0).amplitudes, [1, 0])


def test_index_identification():
    # 5 = 1*4 + 0*2 + 1*1 on three qubits, most significant first
    assert bits_of(5, 3) == (1, 0, 1)
    assert index_of((1, 0, 1)) == 5


@pytest.mark.parametrize("m", range(1, 13))
def test_index_roundtrip_all(m):
    for index in range(2**m):
        assert index_of(bits_of(index, m)) == index


def test_basis_state_out_of_range():
    with pytest.raises(ValueError):
        basis_state(2, 4)
    with pytest.raises(ValueError):
        basis_state(2, -1)


def test_state_requires_unit_norm():
    with pytest.raises(ValueError):
        QuantumState(1, np.array([1.0, 1.0]))


def test_state_is_immutable():
    state = basis_state(2, 0)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


def test_local_unitary_validation():
    with pytest.raises(ValueError):
        LocalUnitary(np.array([[1, 1], [0, 1]]), (1,))  # not unitary
    with pytest.raises(ValueError):
        LocalUnitary(np.eye(4), (1, 1))  # duplicate targets
    with pytest.raises(ValueError):
        LocalUnitary(np.eye(4), (1,))  # arity mismatch


def test_hadamard_on_basis_states():
    plus = apply_local_unitary(basis_state(1, 0), LocalUnitary(HADAMARD, (1,)))
    assert np.allclose(plus.amplitudes, [SQ2, SQ2])
    minus = apply_local_unitary(basis_state(1, 1), LocalUnitary(HADAMARD, (1,)))
    assert np.allclose(minus.amplitudes, [SQ2, -SQ2])


def test_identity_leaves_state_unchanged():
    rng = np.random.default_rng(0)
    state = random_state(3, rng)
    out = apply_local_unitary(state, LocalUnitary(np.eye(2), (2,)))
    assert np.allclose(out.amplitudes, state.amplitudes)


def test_target_out_of_range():
    with pytest.raises(ValueError):
        apply_local_unitary(basis_state(2, 0), LocalUnitary(np.eye(2), (3,)))


def test_two_qubit_gate_matches_dense_matrix():
    # On two qubits the (1, 2) target order matches the index convention
    # directly, so the gate is the plain matrix-vector product.
    rng = np.random.default_rng(1)
    u = random_unitary(4, rng)
    state = random_state(2, rng)
    out = apply_local_unitary(state, LocalUnitary(u, (1, 2)))
    assert np.allclose(out.amplitudes, u @ state.amplitudes, atol=1e-12)
    # Swapping the target order permutes the gate basis accordingly.
    perm = [0, 2, 1, 3]
    out_swapped = apply_local_unitary(state, LocalUnitary(u, (2, 1)))
    expected = (u[np.ix_(perm, perm)]) @ state.amplitudes
    assert np.allclose(out_swapped.amplitudes, expected, atol=1e-12)


@pytest.mark.parametrize("targets", [(1,), (3,), (1, 3), (4, 2)])
def test_norm_preserved_and_composition_restores(targets):
    rng = np.random.default_rng(sum(targets))
    u = random_unitary(2 ** len(targets), rng)
    gate = LocalUnitary(u, targets)
    inverse = LocalUnitary(u.conj().T, targets)
    state = random_state(4, rng)
    forward = apply_local_unitary(state, gate)
    assert abs(np.linalg.norm(forward.amplitudes) - 1.0) <= 1e-12
    back = apply_local_unitary(forward, inverse)
    assert np.allclose(back.amplitudes, state.amplitudes, atol=1e-10)


def test_probability_vector_examples():
    assert np.allclose(probability_vector(basis_state(2, 1)), [0, 1, 0, 0])
    uniform = walsh_hadamard_all(basis_state(2, 0))
    assert np.allclose(probability_vector(uniform), [0.25] * 4, atol=1e-12)
    state = QuantumState(1, np.array([3 / 5, 4j / 5]))
    assert np.allclose(probability_vector(state), [9 / 25, 16 / 25])


def test_probabilities_sum_to_one():
    state = random_state(5, np.random.default_rng(3))
    assert abs(probability_vector(state).sum() - 1.0) <= 1e-12


def test_measure_deterministic_cases():
    rng = np.random.default_rng(0)
    assert measure(basis_state(2, 3), rng) == 3
    state = QuantumState(2, np.array([0, 1, 0, 0], dtype=complex))
    for seed in range(5):
        assert measure(state, np.random.default_rng(seed)) == 1


def test_measure_reproducible_with_seed():
    state = random_state(3, np.random.default_rng(9))
    a = measure(state, np.random.default_rng(123))
    b = measure(state, np.random.default_rng(123))
    assert a == b


def test_measure_is_one_shot():
    state = random_state(4, np.random.default_rng(5))
    for seed in range(20):
        one, shots = ResourceLedger(), ResourceLedger()
        outcome = measure(state, np.random.default_rng(seed), one)
        assert outcome == measure_shots(state, 1, np.random.default_rng(seed), shots)[0]
        assert type(outcome) is int
        assert one == shots == ResourceLedger(random_bits=4)


def test_measure_uniform_frequencies():
    state = walsh_hadamard_all(basis_state(2, 0))
    outcomes = measure_shots(state, 100_000, np.random.default_rng(42))
    freqs = np.bincount(outcomes, minlength=4) / 100_000
    assert np.abs(freqs - 0.25).max() < 0.01


def test_measure_matches_probability_vector_at_3_sigma():
    state = random_state(3, np.random.default_rng(17))
    probs = probability_vector(state)
    shots = 200_000
    outcomes = measure_shots(state, shots, np.random.default_rng(8))
    freqs = np.bincount(outcomes, minlength=8) / shots
    sigma = np.sqrt(probs * (1 - probs) / shots)
    assert np.all(np.abs(freqs - probs) <= 3 * sigma + 1e-9)


def test_gate_and_measurement_accounting():
    ledger = ResourceLedger()
    state = walsh_hadamard_all(basis_state(3, 0), ledger)
    assert ledger.gates == 3
    measure(state, np.random.default_rng(0), ledger)
    assert ledger.random_bits == 3


@pytest.mark.parametrize("m", range(1, 9))
def test_walsh_hadamard_layer_matches_the_gate_chain(m):
    state = random_state(m, np.random.default_rng(m))
    chain = state
    for q in range(1, m + 1):
        chain = apply_local_unitary(chain, LocalUnitary(HADAMARD, (q,)))
    ledger = ResourceLedger()
    layer = walsh_hadamard_all(state, ledger)
    assert layer.amplitudes.tobytes() == chain.amplitudes.tobytes()
    assert ledger == ResourceLedger(gates=m)
