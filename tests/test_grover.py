"""Grover search against its closed-form success law."""

import math

import numpy as np
import pytest

from qintlab.grover import (
    BitOracle,
    default_iterations,
    grover_state,
    marked_probability,
    sign_oracle,
    success_probability_analytic,
)
from qintlab.ledger import ResourceLedger
from qintlab.qsim import basis_state, measure_shots, probability_vector, walsh_hadamard_all


def test_sign_oracle_flips_marked_amplitudes():
    oracle = BitOracle(2, [0])
    uniform = walsh_hadamard_all(basis_state(2, 0))
    flipped = sign_oracle(oracle, uniform)
    assert np.allclose(flipped.amplitudes, [-0.5, 0.5, 0.5, 0.5])


def test_sign_oracle_trivial_predicates():
    uniform = walsh_hadamard_all(basis_state(2, 0))
    nothing = sign_oracle(BitOracle(2, []), uniform)
    assert np.allclose(nothing.amplitudes, uniform.amplitudes)
    everything = sign_oracle(BitOracle(2, range(4)), uniform)
    assert np.allclose(everything.amplitudes, -uniform.amplitudes)
    # a global sign never shows up in the measurement law
    assert np.allclose(probability_vector(everything), probability_vector(uniform))


def test_sign_oracle_dimension_mismatch():
    with pytest.raises(ValueError):
        sign_oracle(BitOracle(3, [0]), basis_state(2, 0))


def test_single_marked_two_qubits_is_exact():
    oracle = BitOracle(2, [2])
    state = grover_state(oracle, 1)
    assert abs(marked_probability(oracle, state) - 1.0) <= 1e-12
    assert (measure_shots(state, 20, np.random.default_rng(0)) == 2).all()


def test_zero_iterations_leave_uniform_state():
    oracle = BitOracle(3, [5])
    state = grover_state(oracle, 0)
    assert np.allclose(probability_vector(state), np.full(8, 1 / 8), atol=1e-12)


def test_query_and_gate_accounting():
    m, k = 4, 3
    oracle = BitOracle(m, [7])
    ledger = ResourceLedger()
    measure_shots(grover_state(oracle, k, ledger), 1, np.random.default_rng(0), ledger)
    assert ledger.quantum_queries == k
    # initial Walsh-Hadamard plus (2m + 2) per iteration
    assert ledger.gates == m + k * (2 * m + 2)
    assert ledger.random_bits == m  # final measurement readout


def test_analytic_success_probability_values():
    assert success_probability_analytic(4, 1, 1) == pytest.approx(1.0, abs=1e-12)
    assert success_probability_analytic(37, 37, 0) == pytest.approx(1.0, abs=1e-12)
    # sin^2(7 * arcsin(1/4)), frozen from direct evaluation
    assert success_probability_analytic(16, 1, 3) == pytest.approx(0.9613189697265625, abs=1e-12)


def test_analytic_success_probability_domain():
    with pytest.raises(ValueError):
        success_probability_analytic(4, 5, 1)
    with pytest.raises(ValueError):
        success_probability_analytic(4, 0, 1)


@pytest.mark.parametrize("m", range(2, 7))
@pytest.mark.parametrize("t", [1, 2, 4])
def test_simulation_matches_analytic(m, t):
    oracle = BitOracle(m, range(t))
    for k in range(0, 7):
        simulated = marked_probability(oracle, grover_state(oracle, k))
        analytic = success_probability_analytic(2**m, t, k)
        assert abs(simulated - analytic) <= 1e-10


@pytest.mark.parametrize("t", [1, 2, 4])
def test_marked_mass_invariant_under_which_elements(t):
    rng = np.random.default_rng(t)
    m = 6
    reference = None
    for _ in range(4):
        marked = rng.choice(2**m, size=t, replace=False)
        oracle = BitOracle(m, marked)
        mass = marked_probability(oracle, grover_state(oracle, 5))
        if reference is None:
            reference = mass
        assert abs(mass - reference) <= 1e-12


def test_default_iterations():
    assert default_iterations(4) == round(math.pi)
    assert default_iterations(1) == 1  # floor at one iteration
    assert default_iterations(8) == round(math.pi * 4)


def test_unmarked_instance_returns_some_index():
    # With nothing marked the iterate fixes the uniform state, so any index may come out.
    oracle = BitOracle(3, [])
    state = grover_state(oracle, default_iterations(3))
    assert np.allclose(probability_vector(state), np.full(8, 1 / 8), atol=1e-12)
    assert 0 <= measure_shots(state, 1, np.random.default_rng(5))[0] < 8
