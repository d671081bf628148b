"""Mean estimation: oracle loading, phase-measurement law, boosting."""

import math

import numpy as np
import pytest

from qintlab import amp_est
from qintlab.amp_est import (
    MeanEstimate,
    OutcomeLaw,
    RealOracle,
    amplitude_law,
    error_bound,
    estimate_mean,
    estimate_mean_from_amplitude,
    exact_estimate_distribution,
    exact_outcome_distribution,
    median_boost,
    outcome_law,
    phase_estimation_distribution,
    prepared_state,
    smallest_power_for_error,
)
from qintlab.ledger import ResourceLedger

CONFIDENCE = 8 / math.pi**2


def bound(a, M):
    return 2 * math.pi * math.sqrt(a * (1 - a)) / M + math.pi**2 / M**2


def test_oracle_validation():
    with pytest.raises(ValueError):
        RealOracle([])
    with pytest.raises(ValueError):
        RealOracle([0.5, 1.2])
    with pytest.raises(ValueError):
        RealOracle([[0.1, 0.2]])


def test_oracle_padding():
    oracle = RealOracle([1.0, 1.0, 1.0])
    assert oracle.n == 3 and oracle.n_padded == 4
    assert oracle.padded_mean() == pytest.approx(0.75)


def test_prepared_state_loads_the_mean():
    rng = np.random.default_rng(0)
    oracle = RealOracle(rng.random(1000))
    probs = np.abs(prepared_state(oracle).amplitudes) ** 2
    assert abs(probs[0::2].sum() - oracle.padded_mean()) <= 1e-12


def test_all_zeros_estimates_zero():
    oracle = RealOracle(np.zeros(8))
    for mode in ("exact", "analytic"):
        est = estimate_mean(oracle, 16, np.random.default_rng(1), mode=mode)
        assert est.value == 0.0


def test_all_ones_estimates_one():
    oracle = RealOracle(np.ones(8))
    for M in (4, 16, 64):
        for mode in ("exact", "analytic"):
            est = estimate_mean(oracle, M, np.random.default_rng(2), mode=mode)
            assert est.value == pytest.approx(1.0, abs=1e-12)


def test_alternating_half_is_exact_on_two_ancillas():
    # a = 1/2 has phase 1/4, exactly representable with M = 4
    oracle = RealOracle([0.0, 1.0, 0.0, 1.0])
    for seed in range(10):
        for mode in ("exact", "analytic"):
            est = estimate_mean(oracle, 4, np.random.default_rng(seed), mode=mode)
            assert est.value == pytest.approx(0.5, abs=1e-12)


def test_power_of_two_budget_required():
    oracle = RealOracle([0.5])
    for bad in (0, 1, 3, 12):
        with pytest.raises(ValueError):
            estimate_mean(oracle, bad, np.random.default_rng(0))


def test_distribution_certain_cases():
    est, probs = phase_estimation_distribution(0.0, 16)
    assert probs[0] == pytest.approx(1.0, abs=1e-12) and est[0] == 0.0
    est, probs = phase_estimation_distribution(0.5, 4)
    assert probs[np.isclose(est, 0.5)].sum() == pytest.approx(1.0, abs=1e-12)
    est, probs = phase_estimation_distribution(1.0, 8)
    assert probs[-1] == pytest.approx(1.0, abs=1e-12) and est[-1] == pytest.approx(1.0)


@pytest.mark.parametrize("a", [0.0, 0.07, 0.3, 0.5, 0.95, 1.0])
@pytest.mark.parametrize("M", [2, 4, 32, 256])
def test_distribution_sums_to_one(a, M):
    _, probs = phase_estimation_distribution(a, M)
    assert abs(probs.sum() - 1.0) <= 1e-12
    assert probs.min() >= -1e-15


def test_distribution_concentrates_within_contract_bound():
    est, probs = phase_estimation_distribution(0.3, 64)
    mass = probs[np.abs(est - 0.3) <= bound(0.3, 64)].sum()
    assert mass >= CONFIDENCE


def test_exact_simulation_matches_analytic_law():
    rng = np.random.default_rng(7)
    for n in (3, 8, 16):
        oracle = RealOracle(rng.random(n))
        for M in (4, 16, 64):
            _, exact = exact_estimate_distribution(oracle, M)
            _, analytic = phase_estimation_distribution(oracle.padded_mean(), M)
            assert 0.5 * np.abs(exact - analytic).sum() <= 1e-10


def register_reference(oracle, M):
    """Readout law with the phase register stored: all M iterates Q^y psi in
    an (M, 2n) array, Fourier transformed along the register axis."""
    psi = np.empty(2 * oracle.n_padded, dtype=np.complex128)
    psi[0::2] = np.sqrt(oracle.padded_values / oracle.n_padded)
    psi[1::2] = np.sqrt((1.0 - oracle.padded_values) / oracle.n_padded)
    register = np.empty((M, psi.size), dtype=np.complex128)
    vec = psi / math.sqrt(M)
    for y in range(M):
        register[y] = vec
        flipped = vec.copy()
        flipped[0::2] *= -1.0
        vec = 2.0 * (psi.conj() @ flipped) * psi - flipped
    return (np.abs(np.fft.fft(register, axis=0) / math.sqrt(M)) ** 2).sum(axis=1)


@pytest.mark.parametrize("n", [1, 3, 8, 64, 300])
def test_exact_law_matches_the_stored_register(n):
    oracle = RealOracle(np.random.default_rng(n).random(n))
    for M in (2, 4, 8, 16, 32, 64, 128, 256):
        law = exact_outcome_distribution(oracle, M)
        assert np.max(np.abs(law - register_reference(oracle, M))) <= 1e-13, M


def test_exact_mode_empirical_frequencies_match_analytic():
    rng = np.random.default_rng(21)
    oracle = RealOracle(rng.random(64))
    M = 64
    raw = exact_outcome_distribution(oracle, M)
    outcomes = np.random.default_rng(5).choice(M, size=10_000, p=raw / raw.sum())
    estimates = np.sin(np.pi * np.minimum(outcomes, M - outcomes) / M) ** 2
    grid, probs = phase_estimation_distribution(oracle.padded_mean(), M)
    empirical = np.array([(np.abs(estimates - g) < 1e-12).mean() for g in grid])
    assert 0.5 * np.abs(empirical - probs).sum() <= 0.02


def test_estimates_stay_in_unit_interval():
    rng = np.random.default_rng(11)
    for n in (5, 9, 300):
        oracle = RealOracle(rng.random(n) ** 0.2)  # means close to 1
        for _ in range(20):
            est = estimate_mean(oracle, 16, rng)
            assert 0.0 <= est.value <= 1.0


def test_query_accounting():
    oracle = RealOracle(np.full(8, 0.37))
    ledger = ResourceLedger()
    estimate_mean(oracle, 32, np.random.default_rng(0), ledger=ledger)
    assert ledger.quantum_queries == 32
    assert ledger.random_bits == 5  # reading out five ancilla qubits
    assert ledger.gates > 0


def test_amplitude_entry_point_matches_analytic_mode():
    oracle = RealOracle(np.linspace(0.1, 0.9, 10))
    direct = estimate_mean(oracle, 64, np.random.default_rng(3), mode="analytic")
    via_amp = estimate_mean_from_amplitude(oracle.padded_values.sum(), oracle.n, 64, np.random.default_rng(3))
    assert direct.value == via_amp.value
    assert direct.queries_used == via_amp.queries_used


def test_smallest_power_for_error():
    for eps in (0.2, 0.05, 2**-5, 2**-9):
        M = smallest_power_for_error(eps)
        assert math.pi / M + math.pi**2 / M**2 <= eps * (1 + 1e-12)
        half = M // 2
        assert math.pi / half + math.pi**2 / half**2 > eps


def test_error_bound_is_the_power_rule_inverse():
    for t in range(4, 15):
        B = 2**t
        assert error_bound(B) == math.pi / B + math.pi**2 / B**2
        assert smallest_power_for_error(error_bound(B)) == B


def test_median_boost_validation_and_identity():
    runs = iter([MeanEstimate(0.4, 8, "analytic")])
    with pytest.raises(ValueError):
        median_boost(lambda r: next(runs), 2, np.random.default_rng(0))
    single = median_boost(lambda r: MeanEstimate(0.4, 8, "analytic"), 1, np.random.default_rng(0))
    assert single.value == 0.4 and single.queries_used == 8


def test_median_boost_constant_runs():
    boosted = median_boost(lambda r: MeanEstimate(0.7, 16, "exact"), 5, np.random.default_rng(0))
    assert boosted.value == 0.7
    assert boosted.queries_used == 80
    assert boosted.mode == "exact"


def test_boost_failure_probability_binomial_tail():
    # failure of a median of 15 runs each failing with probability 1/4
    tail = sum(math.comb(15, j) * 0.25**j * 0.75 ** (15 - j) for j in range(8, 16))
    assert round(tail, 4) == 0.0173


def test_median_boost_suppresses_failures_empirically():
    rng = np.random.default_rng(99)

    def flaky(r):
        # fails (returns a far-off value) with probability 1/4
        value = 0.9 if r.random() < 0.25 else 0.5
        return MeanEstimate(value, 4, "analytic")

    failures = sum(
        median_boost(flaky, 15, np.random.default_rng(seed)).value != 0.5
        for seed in range(400)
    )
    # expected rate 0.0173; allow generous statistical slack
    assert failures / 400 <= 0.05


def test_query_scaling_linear_in_inverse_error():
    # smallest sufficient power of two budget grows linearly in 1/eps
    a_grid = np.linspace(0.1, 0.9, 9)
    products = []
    for j in range(3, 9):
        eps = 2.0**-j
        M = 2
        while True:
            achieved = all(
                phase_estimation_distribution(a, M)[1][
                    np.abs(phase_estimation_distribution(a, M)[0] - a) <= eps
                ].sum()
                >= 0.75
                for a in a_grid
            )
            if achieved:
                break
            M *= 2
        products.append(M * eps)
    assert max(products) / min(products) <= 4.0


def test_sampling_helper_respects_distribution():
    rng = np.random.default_rng(123)
    draws = [amplitude_law(0.5, 1, 4).draw(rng).value for _ in range(50)]
    assert all(d == pytest.approx(0.5, abs=1e-12) for d in draws)


@pytest.mark.parametrize("mode", ["exact", "analytic"])
def test_one_law_serves_every_run(mode):
    oracle = RealOracle(np.linspace(0.05, 0.8, 12))
    law = outcome_law(oracle, 32, mode)
    rng_runs, rng_law = np.random.default_rng(4), np.random.default_rng(4)
    for _ in range(20):
        led_run, led_law = ResourceLedger(), ResourceLedger()
        run = estimate_mean(oracle, 32, rng_runs, mode=mode, ledger=led_run)
        drawn = law.draw(rng_law, led_law)
        assert run == drawn
        assert led_run.as_dict() == led_law.as_dict()


def test_law_estimates_and_probabilities():
    oracle = RealOracle(np.linspace(0.1, 0.9, 10))
    exact = outcome_law(oracle, 16, "exact")
    assert [float(e) for e in exact.estimates] == [math.sin(math.pi * y / 16) ** 2 for y in range(16)]
    analytic = amplitude_law(oracle.padded_values.sum(), oracle.n, 16)
    assert analytic.estimates.size == 16 // 2 + 1
    for law in (exact, analytic):
        assert law.probs.min() >= 0.0
        assert law.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert (law.n, law.n_padded, law.M) == (10, 16, 16)
    with pytest.raises(ValueError, match="power of two"):
        amplitude_law(0.5, 10, 12)


def _exact_law_former_loop(oracle, M):
    # The simulated law as it was computed before its two preallocated
    # buffers and its sign-alternating frame: each amplification step
    # applied the sign flip and allocated fresh arrays.
    psi = prepared_state(oracle).amplitudes.real.copy()

    def apply(vec):
        w = vec.copy()
        w[0::2] *= -1.0
        return 2.0 * (psi @ w) * psi - w

    overlaps = np.empty(M)
    vec = psi
    for j in range(M):
        overlaps[j] = psi @ vec
        if j + 1 < M:
            vec = apply(vec)
    lag = np.arange(M)
    weights = (M - lag) * overlaps
    weights[1:] += lag[1:] * overlaps[:0:-1]
    return np.fft.fft(weights).real / M**2


_FORMER_LOOP_VALUES = {
    "random": lambda n, M: np.random.default_rng(n + M).random(n),
    # Values of exactly 0 and 1, and the zero padding, give prepared
    # amplitudes of exactly zero, where the two loops could differ in the
    # sign of a zero.
    "zeros": lambda n, M: np.zeros(n),
    "ones": lambda n, M: np.ones(n),
    "alternating": lambda n, M: np.arange(n) % 2.0,
}


@pytest.mark.parametrize(
    "kind, n, M",
    [("random", n, M) for n, M in [(3, 4), (256, 256), (1024, 1024), (100, 64), (5, 2048)]]
    # M = 2 makes no odd step and M = 4 one; n = 1 and 2 are the smallest registers.
    + [("random", n, M) for n in (1, 2) for M in (2, 4, 16)]
    + [(kind, n, M) for kind in ("zeros", "ones", "alternating") for n in (1, 2, 3, 5, 8) for M in (2, 4, 64)],
)
def test_exact_law_matches_the_former_loop_bytewise(kind, n, M):
    oracle = RealOracle(_FORMER_LOOP_VALUES[kind](n, M))
    assert exact_outcome_distribution(oracle, M).tobytes() == _exact_law_former_loop(oracle, M).tobytes()


@pytest.mark.parametrize("M", [2**t for t in range(1, 17)])
def test_exact_estimate_table_matches_the_former_comprehension_bytewise(M, monkeypatch):
    # Any law will do: only the estimate table is compared.
    monkeypatch.setattr(amp_est, "exact_outcome_distribution", lambda oracle, M: np.full(M, 1.0 / M))
    former = np.array([math.sin(math.pi * y / M) ** 2 for y in range(M)])
    assert outcome_law(RealOracle([0.5]), M, "exact").estimates.tobytes() == former.tobytes()


def _choice_law(a, M):
    if a is None:
        # A simulated law with zero-probability outcomes: its mass sits at
        # y = 4 and y = 12 only.
        return outcome_law(RealOracle([1.0, 1.0, 1.0, 1.0, 0.0]), M, "exact")
    return amplitude_law(a, 1, M)


@pytest.mark.parametrize(
    "a, M", [(None, 16)] + [(a, M) for a in (0.0, 0.3, 1.0) for M in (2, 64, 2048)]
)
def test_draws_match_generator_choice_index_for_index(a, M):
    law = _choice_law(a, M)
    size = law.probs.size
    assert law.cdf[-1] == 1.0
    # Same probabilities, each outcome labelled by its index.
    labelled = OutcomeLaw(np.arange(size) / size, law.probs, law.M, 1, law.mode)
    for seed in range(10):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = [round(labelled.draw(rng).value * size) for _ in range(5000)]
        # choice(size=k) searches k uniforms drawn in the order of k scalar
        # calls, and checks p once instead of k times.
        expected = ref.choice(size, size=5000, p=law.probs).tolist()
        assert drawn == expected
        # One uniform per draw: both streams stopped at the same place.
        assert rng.bit_generator.state == ref.bit_generator.state


class _Uniforms:
    """A stand-in stream whose uniforms are given in advance."""

    def __init__(self, *values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def test_a_uniform_on_a_table_entry_draws_the_next_outcome_with_mass():
    # cdf = [0.25, 0.25, 0.5, 1.0]: choice's side="right" search never
    # returns the zero-mass outcome 1 and sends u = 0.25 on to outcome 2.
    law = OutcomeLaw(np.array([0.0, 0.25, 0.5, 0.75]), np.array([0.25, 0.0, 0.25, 0.5]), 4, 1, "exact")
    rng = _Uniforms(0.0, 0.2499, 0.25, 0.4999, 0.5, 0.75)
    assert [law.draw(rng).value for _ in range(6)] == [0.0, 0.0, 0.5, 0.5, 0.75, 0.75]


def test_the_table_is_normalised_so_the_largest_uniform_stays_in_range():
    # The probabilities sum to 1 - 1e-9, inside choice's tolerance; without
    # the normalisation the top uniform would fall past the last outcome.
    law = OutcomeLaw(np.array([0.25, 0.75]), np.array([0.5, 0.5 - 1e-9]), 2, 1, "analytic")
    assert law.cdf[-1] == 1.0
    assert law.draw(_Uniforms(1.0 - 2.0**-53)).value == 0.75
    np.random.default_rng(0).choice(2, p=law.probs)  # choice accepts them too


@pytest.mark.parametrize(
    "probs, message",
    [
        ([0.5, np.nan, 0.5], "finite"),
        ([0.5, np.inf, 0.5], "finite"),
        ([0.6, -0.1, 0.5], "non-negative"),
        ([0.5, 0.25, 0.5], "sum to 1"),
        ([0.5, 0.25, 0.2], "sum to 1"),
    ],
)
def test_a_law_with_invalid_probabilities_is_refused_when_built(probs, message):
    with pytest.raises(ValueError, match=message):
        OutcomeLaw(np.array([0.0, 0.5, 1.0]), np.array(probs), 4, 1, "analytic")
