"""Property tests: outcome laws, coin accounting, interpolation, ledgers.

Examples are derandomized so the suite stays deterministic.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qintlab.amp_est import (
    RealOracle,
    amplitude_law,
    exact_estimate_distribution,
    outcome_law,
    phase_estimation_distribution,
)
from qintlab.holder import HolderFunction, make_spec
from qintlab.integrators import CoinStream, integrate_coin, integrate_mc, integrate_quantum
from qintlab.ledger import ResourceLedger
from qintlab.quadrature import interpolate

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=40)

unit_values = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16)
powers = st.sampled_from([2, 4, 8, 16, 32, 64])


@PROPERTY
@given(values=unit_values, M=powers)
def test_outcome_laws_sum_to_one_and_agree(values, M):
    oracle = RealOracle(values)
    grid_exact, exact = exact_estimate_distribution(oracle, M)
    grid_analytic, analytic = phase_estimation_distribution(oracle.padded_mean(), M)
    np.testing.assert_array_equal(grid_exact, grid_analytic)
    assert abs(exact.sum() - 1.0) <= 1e-12
    assert abs(analytic.sum() - 1.0) <= 1e-12
    assert np.max(np.abs(exact - analytic)) <= 1e-12
    laws = (
        outcome_law(oracle, M, "exact"),
        amplitude_law(oracle.padded_mean(), oracle.n, oracle.n_padded, M),
    )
    for law in laws:
        assert abs(law.probs.sum() - 1.0) <= 1e-12 and law.probs.min() >= 0.0


@PROPERTY
@given(n_outcomes=st.integers(1, 1000), count=st.integers(0, 400), seed=st.integers(0, 2**32 - 1))
def test_coin_stream_charges_bits_times_attempts(n_outcomes, count, seed):
    ledger = ResourceLedger()
    coin = CoinStream(np.random.default_rng(seed), ledger)
    indices, attempts = coin.draw_indices(n_outcomes, count)
    bits = (n_outcomes - 1).bit_length()
    assert ledger.random_bits == coin.bits_drawn == bits * attempts
    assert attempts >= count and len(indices) == count
    assert count == 0 or (indices.min() >= 0 and indices.max() < n_outcomes)
    if n_outcomes == 1 << bits:
        assert attempts == count


@PROPERTY
@given(
    d=st.integers(1, 2),
    k=st.integers(0, 3),
    ell=st.integers(1, 4),
    coeffs=st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16),
    seed=st.integers(0, 2**32 - 1),
)
def test_interpolant_reproduces_polynomials_up_to_degree_k(d, k, ell, coeffs, seed):
    # A tensor polynomial of degree <= k in each variable, with its integral.
    exponents = list(np.ndindex(*([k + 1] * d)))
    terms = list(zip(coeffs, exponents))

    def poly(points):
        return sum(c * np.prod(points ** np.array(e), axis=1) for c, e in terms)

    integral = sum(c * math.prod(1.0 / (j + 1) for j in e) for c, e in terms)
    f = HolderFunction(poly, make_spec(d, k, 1.0))
    proj = interpolate(f, ((k + 1) * ell) ** d)
    points = np.random.default_rng(seed).random((50, d))
    assert np.max(np.abs(proj.evaluate(points) - poly(points))) <= 1e-9
    assert abs(proj.exact_integral - integral) <= 1e-12


@settings(derandomize=True, deadline=None, database=None, max_examples=15)
@given(steps=st.lists(st.sampled_from(["mc", "mcvr", "coin", "quantum"]), min_size=1, max_size=6))
def test_ledgers_never_decrease(steps):
    f = HolderFunction(lambda p: 0.5 * np.sin(6.0 * p[:, 0]), make_spec(1, 0, 1.0))
    ledger = ResourceLedger()
    runs = {
        "mc": lambda rng: integrate_mc(f, 64, rng, ledger=ledger),
        "mcvr": lambda rng: integrate_mc(f, 64, rng, variance_reduced=True, ledger=ledger),
        "coin": lambda rng: integrate_coin(f, 0.2, rng, ledger=ledger),
        "quantum": lambda rng: integrate_quantum(f, 2**-4, rng, ledger=ledger),
    }
    before = ledger.as_dict()
    for i, step in enumerate(steps):
        runs[step](np.random.default_rng(i))
        after = ledger.as_dict()
        assert all(after[key] >= before[key] for key in after)
        assert after != before
        before = after
