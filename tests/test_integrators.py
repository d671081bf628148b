"""The four integrator families and the bounded-expectation pipeline."""

import math

import numpy as np
import pytest

from qintlab.amp_est import RealOracle, exact_estimate_distribution, phase_estimation_distribution
from qintlab.holder import HolderFunction, adversarial_signs, fooling_family, make_spec, suite_member
from qintlab.integrators import (
    CoinStream,
    expectation_randomized_quantum,
    integrate_coin,
    integrate_deterministic,
    integrate_mc,
    integrate_quantum,
)
from qintlab.ledger import ResourceLedger
from qintlab.quadrature import cell_midpoints, interpolate, residual

SPEC1 = make_spec(1, 0, 1)


def fn(evaluator, spec=SPEC1, integral=None, name="f"):
    return HolderFunction(evaluator, spec, exact_integral=integral, name=name)


# ---------------------------------------------------------------------------
# deterministic
# ---------------------------------------------------------------------------


def test_deterministic_constant_and_square():
    const = fn(lambda p: np.full(len(p), 0.45))
    for ell in (1, 6):
        assert integrate_deterministic(const, ell).estimate == pytest.approx(0.45, abs=1e-15)
    square = fn(lambda p: p[:, 0] ** 2)
    assert integrate_deterministic(square, 2).estimate == pytest.approx(0.3125, abs=1e-15)


def test_deterministic_ledger_is_clean():
    result = integrate_deterministic(fn(lambda p: p[:, 0]), 8)
    assert result.ledger.random_bits == 0
    assert result.ledger.quantum_queries == 0
    assert result.ledger.classical_evals == 8


def test_deterministic_misses_unsampled_bumps():
    spec = make_spec(1, 0, 1)
    ell_b, ell_q = 16, 5
    lambdas, unsampled = adversarial_signs(1, ell_b, ell_q)
    instance = fooling_family(spec, ell_b, lambdas)
    result = integrate_deterministic(instance.as_function(), ell_q)
    error = abs(result.estimate - instance.exact_integral)
    assert error >= 0.5 * (ell_b - ell_q) * instance.single_bump_integral
    # the rule reads the instance as identically zero
    assert result.estimate == 0.0


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def test_mc_constant_exact_in_both_modes():
    const = fn(lambda p: np.full(len(p), 0.21))
    rng = np.random.default_rng(0)
    assert integrate_mc(const, 50, rng).estimate == pytest.approx(0.21, abs=1e-15)
    assert integrate_mc(const, 50, rng, variance_reduced=True).estimate == pytest.approx(
        0.21, abs=1e-12
    )


def test_mc_plain_is_unbiased_for_identity():
    linear = fn(lambda p: p[:, 0], integral=0.5)
    errors = []
    for seed in range(10000):
        rng = np.random.default_rng(seed)
        errors.append(integrate_mc(linear, 50, rng).estimate - 0.5)
    errors = np.array(errors)
    stderr = errors.std(ddof=1) / math.sqrt(len(errors))
    assert abs(errors.mean()) <= 3 * stderr


def test_mc_variance_reduced_linear_reproduced():
    linear = fn(lambda p: 0.4 * p[:, 0], make_spec(1, 1, 1), integral=0.2)
    result = integrate_mc(linear, 64, np.random.default_rng(1), variance_reduced=True)
    assert result.estimate == pytest.approx(0.2, abs=1e-12)


def test_mc_scaling_equivariance_under_matched_seeds():
    base = fn(lambda p: p[:, 0] ** 2)
    scaled = fn(lambda p: 0.5 * p[:, 0] ** 2)
    a = integrate_mc(base, 200, np.random.default_rng(7)).estimate
    b = integrate_mc(scaled, 200, np.random.default_rng(7)).estimate
    assert b == pytest.approx(0.5 * a, abs=1e-14)


def test_mc_eval_accounting():
    f = suite_member(SPEC1, "quadratic")
    plain = integrate_mc(f, 100, np.random.default_rng(0))
    assert plain.ledger.classical_evals == 100
    vr = integrate_mc(f, 100, np.random.default_rng(0), variance_reduced=True)
    assert vr.ledger.classical_evals == vr.parameters["n_points"] + 100


# ---------------------------------------------------------------------------
# coin tossing
# ---------------------------------------------------------------------------


def test_coin_stream_power_of_two_is_rejection_free():
    ledger = ResourceLedger()
    coin = CoinStream(np.random.default_rng(0), ledger)
    indices, attempts = coin.draw_indices(8, 1000)
    assert attempts == 1000
    assert ledger.random_bits == 3000
    assert indices.min() >= 0 and indices.max() < 8


def test_coin_stream_rejection_bit_cost():
    # drawing below 6 uses 3-bit attempts accepted with probability 6/8
    ledger = ResourceLedger()
    coin = CoinStream(np.random.default_rng(1), ledger)
    indices, attempts = coin.draw_indices(6, 20000)
    assert ledger.random_bits == 3 * attempts
    mean_bits = ledger.random_bits / 20000
    assert 3.8 <= mean_bits <= 4.2  # expectation 3 * 8/6 = 4
    assert indices.max() < 6
    counts = np.bincount(indices, minlength=6)
    assert counts.min() > 20000 / 6 * 0.85


def test_coin_stream_draws_are_uniform_chunk_boundary():
    coin = CoinStream(np.random.default_rng(3))
    indices, _ = coin.draw_indices(5, 17)
    assert len(indices) == 17 and indices.max() < 5


def test_coin_constant_function():
    const = fn(lambda p: np.full(len(p), 0.3))
    ledger = ResourceLedger()
    result = integrate_coin(const, 0.1, np.random.default_rng(2), ledger=ledger)
    assert result.estimate == pytest.approx(0.3, abs=1e-12)
    assert ledger.random_bits > 0
    assert ledger.quantum_queries == 0


def test_coin_accounting_relations():
    f = suite_member(SPEC1, "multiscale")
    ledger = ResourceLedger()
    result = integrate_coin(f, 2**-4, np.random.default_rng(5), ledger=ledger)
    p = result.parameters
    assert ledger.random_bits == p["draw_attempts"] * p["bits_per_attempt"]
    assert ledger.classical_evals == p["n_points"] + p["draws"]
    assert p["N"] >= 4 * p["n_points"]
    assert abs(result.estimate - f.exact_integral) < 1e-3


def test_coin_eps_domain():
    f = suite_member(SPEC1, "quadratic")
    for bad in (0.0, 0.5, 0.9):
        with pytest.raises(ValueError):
            integrate_coin(f, bad, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# quantum
# ---------------------------------------------------------------------------


def test_quantum_constant_short_circuits():
    const = fn(lambda p: np.full(len(p), 0.25), integral=0.25)
    result = integrate_quantum(const, 0.1, np.random.default_rng(0))
    assert result.estimate == pytest.approx(0.25, abs=1e-15)
    assert result.ledger.quantum_queries == 0
    assert result.parameters["degenerate"]


def test_quantum_reproduced_linear_short_circuits():
    linear = fn(lambda p: 0.5 * p[:, 0], make_spec(1, 1, 1), integral=0.25)
    result = integrate_quantum(linear, 0.1, np.random.default_rng(0))
    assert result.estimate == pytest.approx(0.25, abs=1e-12)
    assert result.ledger.quantum_queries == 0


def test_quantum_parameter_couplings_and_ledger():
    f = fn(lambda p: p[:, 0] ** 2, integral=1 / 3)
    eps1 = 2**-5
    ledger = ResourceLedger()
    result = integrate_quantum(f, eps1, np.random.default_rng(0), ledger=ledger)
    p = result.parameters
    assert p["n_points"] == 32  # ceil(1/eps1) for k=0, d=1
    assert p["N"] >= 4 * p["n_points"]
    assert p["beta"] == 0.9
    assert p["M"] == 128  # smallest power of two with pi/M + pi^2/M^2 <= 1/32
    assert ledger.quantum_queries == p["M"]
    assert ledger.classical_evals == p["n_points"]  # probing is uncounted
    assert ledger.random_bits == int(math.log2(p["M"]))


def test_quantum_bit_mode_uses_log_factor():
    f = fn(lambda p: p[:, 0] ** 2, integral=1 / 3)
    eps1 = 2**-5
    result = integrate_quantum(f, eps1, np.random.default_rng(0), mode="bit")
    assert result.parameters["n_points"] == math.ceil(32 * 5)


def test_quantum_error_decomposition():
    f = suite_member(SPEC1, "multiscale")
    result = integrate_quantum(f, 2**-6, np.random.default_rng(3))
    p = result.parameters
    estimated_tail = result.estimate - p["interpolant_integral"]
    est_err = abs(p["residual_midpoint_true"] - estimated_tail)
    disc_err = abs(
        (f.exact_integral - p["interpolant_integral"]) - p["residual_midpoint_true"]
    )
    total = abs(result.estimate - f.exact_integral)
    assert total <= disc_err + est_err + 1e-10


def test_quantum_example_square_function():
    # exact-simulation mode: n_padded * M stays under the auto threshold
    f = fn(lambda p: p[:, 0] ** 2, integral=1 / 3)
    eps1 = 2**-5
    hits = 0
    for seed in range(200):
        result = integrate_quantum(f, eps1, np.random.default_rng(seed))
        assert result.parameters["sim"] == "exact"
        hits += abs(result.estimate - 1 / 3) <= 10 * eps1**2
    assert hits >= 150  # at least 3/4 of the trials


def test_quantum_exact_and_analytic_modes_agree_in_law():
    f = suite_member(SPEC1, "quadratic")
    eps1 = 2**-4
    result = integrate_quantum(f, eps1, np.random.default_rng(0), sim="exact")
    p = result.parameters
    # Rebuild the scaled residual oracle the integrator loaded into the register.
    g = residual(f, interpolate(f, p["n_points"]))
    vals = g.evaluator(cell_midpoints(np.arange(p["N"]), p["ell_N"], 1))
    assert vals.mean() == pytest.approx(p["residual_midpoint_true"], abs=1e-15)
    oracle = RealOracle(np.clip((vals + p["B"]) / (2.0 * p["B"]), 0.0, 1.0))
    values_exact, law_exact = exact_estimate_distribution(oracle, p["M"])
    values_analytic, law_analytic = phase_estimation_distribution(oracle.padded_mean(), p["M"])
    np.testing.assert_array_equal(values_exact, values_analytic)
    assert np.max(np.abs(law_exact - law_analytic)) <= 1e-12

    exact_vals = [
        integrate_quantum(f, eps1, np.random.default_rng(s), sim="exact").estimate
        for s in range(60)
    ]
    analytic_vals = [
        integrate_quantum(f, eps1, np.random.default_rng(1000 + s), sim="analytic").estimate
        for s in range(60)
    ]
    assert abs(np.median(exact_vals) - np.median(analytic_vals)) <= 2e-3


def test_quantum_rejects_nan_function():
    f = fn(lambda p: np.full(len(p), np.nan), integral=0.0)
    with pytest.raises(ValueError, match="not finite"):
        integrate_quantum(f, 2**-4, np.random.default_rng(0))


def test_quantum_eps_domain():
    f = suite_member(SPEC1, "quadratic")
    with pytest.raises(ValueError):
        integrate_quantum(f, 0.6, np.random.default_rng(0))
    with pytest.raises(ValueError):
        integrate_quantum(f, 0.1, np.random.default_rng(0), mode="neither")


# ---------------------------------------------------------------------------
# randomized quantum expectation
# ---------------------------------------------------------------------------


def test_expectation_validates_eps():
    with pytest.raises(ValueError):
        expectation_randomized_quantum(
            lambda r, n: np.zeros(n), lambda p: p, 0.6, np.random.default_rng(0)
        )


def test_expectation_draws_72_over_eps_squared_points():
    seen = {}

    def sampler(rng, n):
        seen["n"] = n
        return np.zeros(n)

    expectation_randomized_quantum(sampler, lambda p: p, 0.1, np.random.default_rng(0))
    assert seen["n"] == 7200


def test_expectation_constant_variable():
    c = 0.42
    for seed in range(20):
        est = expectation_randomized_quantum(
            lambda r, n: np.full(n, c), lambda p: p, 0.3, np.random.default_rng(seed)
        )
        assert abs(est - c) <= 0.1  # eps/3 of estimation error only


def test_expectation_chebyshev_substep():
    # |mean of n draws - mean| <= eps/3 with probability >= 7/8 at n = 72/eps^2
    eps = 0.2
    n = math.ceil(72 / eps**2)
    rng = np.random.default_rng(0)
    hits = 0
    for _ in range(400):
        draws = rng.choice([-1.0, 1.0], size=n)
        hits += abs(draws.mean()) <= eps / 3
    assert hits / 400 >= 0.85


def test_expectation_bernoulli_pipeline():
    eps = 0.1
    ledger = ResourceLedger()
    hits = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        est = expectation_randomized_quantum(
            lambda r, n: (r.random(n) < 0.3).astype(float),
            lambda pts: pts,
            eps,
            rng,
            ledger=ledger,
        )
        hits += abs(est - 0.3) <= eps
    assert hits >= 40
    assert ledger.quantum_queries > 0
    assert ledger.classical_evals == 0  # the model charges only oracle queries
