"""The four integrator families and the bounded-expectation pipeline."""

import math

import numpy as np
import pytest

from qintlab import amp_est, integrators, quadrature
from qintlab.amp_est import (
    RealOracle,
    amplitude_law,
    exact_estimate_distribution,
    outcome_law,
    phase_estimation_distribution,
)
from qintlab.holder import HolderFunction, adversarial_signs, fooling_family, make_spec, suite_member
from qintlab.integrators import (
    draw_indices,
    expectation_randomized_quantum,
    integrate_coin,
    integrate_deterministic,
    integrate_mc,
    integrate_quantum,
    plan_coin,
    plan_mc,
    plan_quantum,
)
from qintlab.ledger import ResourceLedger
from qintlab.grid import Grid
from qintlab.quadrature import CHUNK, interpolate, residual

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


@pytest.mark.parametrize("run, message", [
    (lambda f: integrate_deterministic(f, 9), "det cell count 81 "),
    (lambda f: plan_mc(f, 82), "mc sample count 82 "),
    (lambda f: plan_mc(f, 82, variance_reduced=True), "mcvr sample count 82 "),
])
def test_det_and_mc_refuse_counts_above_the_stream_limit_before_evaluating(monkeypatch, run, message):
    def unreachable(points):
        raise AssertionError("evaluated before the size check")

    monkeypatch.setattr(integrators, "MAX_STREAM", 80)
    with pytest.raises(OverflowError, match=f"{message}is more than the 80 a run evaluates"):
        run(fn(unreachable, make_spec(2, 0, 1)))


@pytest.mark.parametrize("samples", [0, -3])
@pytest.mark.parametrize("variance_reduced", [False, True])
def test_mc_plan_refuses_fewer_than_one_sample(samples, variance_reduced):
    with pytest.raises(ValueError, match=f"need at least one sample, got {samples}"):
        plan_mc(fn(lambda p: p[:, 0]), samples, variance_reduced)


def test_quantum_refuses_its_interpolation_target_before_interpolating(monkeypatch):
    calls = []
    monkeypatch.setattr(integrators, "interpolate", lambda *args: calls.append(args))
    monkeypatch.setattr(integrators, "MAX_STREAM", 1000)
    with pytest.raises(OverflowError, match="the quantum interpolation target 5000 is more than the 1000 "):
        plan_quantum(suite_member(SPEC1, "multiscale"), 1 / 5000)
    assert calls == []


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
    indices, attempts = draw_indices(np.random.default_rng(0), 8, 1000, ledger)
    assert attempts == 1000
    assert ledger.random_bits == 3000
    assert indices.min() >= 0 and indices.max() < 8


def test_coin_stream_rejection_bit_cost():
    # drawing below 6 uses 3-bit attempts accepted with probability 6/8
    ledger = ResourceLedger()
    indices, attempts = draw_indices(np.random.default_rng(1), 6, 20000, ledger)
    assert ledger.random_bits == 3 * attempts
    mean_bits = ledger.random_bits / 20000
    assert 3.8 <= mean_bits <= 4.2  # expectation 3 * 8/6 = 4
    assert indices.max() < 6
    counts = np.bincount(indices, minlength=6)
    assert counts.min() > 20000 / 6 * 0.85


def test_coin_stream_draws_are_uniform_chunk_boundary():
    indices, _ = draw_indices(np.random.default_rng(3), 5, 17)
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
    assert type(p["clipped_nodes"]) is int


def test_quantum_clip_counts_nodes_beyond_both_ends_of_the_bound(monkeypatch):
    # A quarter of the probe makes B half the residual's sup, so nodes fall
    # outside [-B, B] on both sides and both ends of the clip are counted.
    f = suite_member(SPEC1, "multiscale")
    real = integrators.probe_sup
    monkeypatch.setattr(integrators, "probe_sup", lambda g, resolution: real(g, resolution) / 4)
    p = plan_quantum(f, 2**-5).parameters
    g = residual(f, interpolate(f, p["n_points"]))
    vals = g(Grid(p["ell_N"], 1).points(np.arange(p["N"])))
    below, above = np.count_nonzero(vals < -p["B"]), np.count_nonzero(vals > p["B"])
    assert below > 0 and above > 0
    assert p["clipped_nodes"] == below + above


def test_residual_stream_clips_every_chunk_that_leaves_the_unit_interval(monkeypatch):
    # With B = 1, chunk 0 passes the bound only above, chunk 1 only below
    # and chunk 2 nowhere; each is scaled, counted and clipped on its own.
    monkeypatch.setattr(quadrature, "CHUNK", 1000)
    grid = Grid(3000, 1)
    table = np.concatenate([np.linspace(-0.5, 1.5, 1000), np.linspace(-1.5, 0.5, 1000),
                            np.linspace(-1.0, 1.0, 1000)])
    g = fn(lambda p: table[grid.cell_of(p[:, 0])])
    scaled_sum, midpoint, clipped, values = integrators._scaled_residual_amplitude(g, 1.0, grid, True)
    chunks = [np.clip((table[i : i + 1000] + 1.0) / 2.0, 0.0, 1.0) for i in (0, 1000, 2000)]
    assert values.tobytes() == np.concatenate(chunks).tobytes()
    assert clipped == np.count_nonzero(np.abs(table) > 1.0) > 0
    assert scaled_sum == sum(float(c.sum()) for c in chunks)
    assert midpoint == sum(float(table[i : i + 1000].sum()) for i in (0, 1000, 2000)) / 3000


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
    plan = plan_quantum(f, eps1)
    hits = 0
    for seed in range(200):
        result = integrate_quantum(f, eps1, np.random.default_rng(seed), plan=plan)
        assert result.parameters["sim"] == "exact"
        hits += abs(result.estimate - 1 / 3) <= 10 * eps1**2
    assert hits >= 150  # at least 3/4 of the trials


def test_quantum_exact_and_analytic_modes_agree_in_law():
    f = suite_member(SPEC1, "quadratic")
    eps1 = 2**-4
    result = integrate_quantum(f, eps1, np.random.default_rng(0))
    p = result.parameters
    assert p["sim"] == "exact"
    # Rebuild the scaled residual oracle the integrator loaded into the register.
    g = residual(f, interpolate(f, p["n_points"]))
    vals = g.evaluator(Grid(p["ell_N"], 1).points(np.arange(p["N"])))
    assert vals.mean() == pytest.approx(p["residual_midpoint_true"], abs=1e-15)
    oracle = RealOracle(np.clip((vals + p["B"]) / (2.0 * p["B"]), 0.0, 1.0))
    values_exact, law_exact = exact_estimate_distribution(oracle, p["M"])
    values_analytic, law_analytic = phase_estimation_distribution(oracle.padded_mean(), p["M"])
    np.testing.assert_array_equal(values_exact, values_analytic)
    assert np.max(np.abs(law_exact - law_analytic)) <= 1e-12

    exact_vals = [integrate_quantum(f, eps1, np.random.default_rng(s)).estimate for s in range(60)]
    law = amplitude_law(oracle.padded_values.sum(), oracle.n, p["M"])
    B = p["B"]
    analytic_vals = [
        p["interpolant_integral"] + 2.0 * B * law.draw(np.random.default_rng(1000 + s)).value - B
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
# plans and samples
# ---------------------------------------------------------------------------


def _square():
    return fn(lambda p: p[:, 0] ** 2, integral=1 / 3, name="square")


# name -> (integrator, plan builder, function factory, budget argument, keywords)
PLANNED = {
    "quantum-exact": (integrate_quantum, plan_quantum, _square, 2**-5, {}),
    "quantum-auto-analytic": (
        integrate_quantum, plan_quantum, lambda: suite_member(SPEC1, "multiscale"), 2**-8, {}
    ),
    "quantum-degenerate": (
        integrate_quantum, plan_quantum, lambda: fn(lambda p: np.full(len(p), 0.25)), 0.1, {}
    ),
    "quantum-bit": (integrate_quantum, plan_quantum, _square, 2**-5, {"mode": "bit"}),
    "quantum-d2": (
        integrate_quantum, plan_quantum, lambda: suite_member(make_spec(2, 0, 1), "multiscale"), 0.06, {}
    ),
    "coin": (integrate_coin, plan_coin, lambda: suite_member(SPEC1, "multiscale"), 2**-4, {}),
    "mcvr": (
        integrate_mc, plan_mc, lambda: suite_member(SPEC1, "multiscale"), 300, {"variance_reduced": True}
    ),
    "mc": (integrate_mc, plan_mc, lambda: suite_member(SPEC1, "multiscale"), 300, {}),
}


@pytest.mark.parametrize("case", list(PLANNED))
def test_planned_trials_match_planless_calls(case):
    integrate, build, make_f, arg, kwargs = PLANNED[case]
    f = make_f()
    plan = build(f, arg, **kwargs)
    for seed in range(4):
        planless = integrate(f, arg, np.random.default_rng(seed), **kwargs)
        planned = integrate(f, arg, np.random.default_rng(seed), plan=plan, **kwargs)
        assert planned.estimate == planless.estimate
        assert planned.ledger.as_dict() == planless.ledger.as_dict()
        assert planned.parameters == planless.parameters
        assert planned.ledger.classical_evals >= planned.parameters.get("n_points", 0)
    if case.startswith("quantum"):
        expected_sim = {"quantum-exact": "exact", "quantum-d2": "exact", "quantum-degenerate": None}
        assert planned.parameters.get("sim") == expected_sim.get(case, "analytic")


def test_seeded_estimates_are_pinned():
    # Values of the unsplit integrators; the plan/sample split keeps them bit-identical.
    square, multiscale = _square(), suite_member(SPEC1, "multiscale")
    rng = np.random.default_rng
    assert integrate_quantum(square, 2**-5, rng(7)).estimate == 0.3321040757203434
    assert integrate_quantum(multiscale, 2**-8, rng(7)).estimate == 0.05696125288643417
    assert integrate_quantum(square, 2**-5, rng(7), mode="bit").estimate == 0.33329841146869893
    assert integrate_coin(multiscale, 2**-4, rng(7)).estimate == 0.05696278729296716
    assert integrate_mc(multiscale, 300, rng(7), variance_reduced=True).estimate == 0.05691374839810475


@pytest.mark.parametrize(
    "params, name, eps1, sim",
    [
        ((1, 0, 1.0), "multiscale", 2**-8, "analytic"),
        ((2, 1, 0.5), "quadratic", 2**-4, "exact"),
        ((1, 1, 0.5), "quadratic", 2**-7, "analytic"),
        ((2, 0, 1.0), "multiscale", 2**-6.5, "analytic"),
    ],
)
def test_blocked_residual_stream_matches_whole_chunk_evaluation(monkeypatch, params, name, eps1, sim):
    # The last two coupled grids are larger than one chunk.
    f = suite_member(make_spec(*params), name)
    blocked = plan_quantum(f, eps1)
    assert blocked.parameters["N"] > quadrature.BLOCK
    assert blocked.parameters["sim"] == sim
    for block in (CHUNK, 777):
        monkeypatch.setattr(quadrature, "BLOCK", block)
        other = plan_quantum(f, eps1)
        assert blocked.parameters == other.parameters
        assert blocked.law.probs.tobytes() == other.law.probs.tobytes()


def test_plan_must_match_the_call():
    f, other = _square(), _square()
    plan = plan_quantum(f, 2**-5)
    rng = np.random.default_rng(0)
    calls = [
        lambda: integrate_quantum(f, 2**-4, rng, plan=plan),
        lambda: integrate_quantum(other, 2**-5, rng, plan=plan),
        lambda: integrate_quantum(f, 2**-5, rng, mode="bit", plan=plan),
        lambda: integrate_coin(f, 2**-5, rng, plan=plan),
        lambda: integrate_mc(f, 32, rng, plan=plan_mc(f, 32, variance_reduced=True)),
        lambda: integrate_mc(f, 64, rng, variance_reduced=True, plan=plan_mc(f, 32, variance_reduced=True)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="plan built for"):
            call()


def test_one_size_rule_picks_the_law_for_the_register_and_the_integrator(monkeypatch):
    # The square function at 2**-5 is simulated (n_padded * M = 2**19); a
    # limit just below that product flips both callers of amp_est.simulates.
    f = _square()
    plan = plan_quantum(f, 2**-5)
    n_padded = 1 << (plan.parameters["N"] - 1).bit_length()
    oracle = RealOracle(np.linspace(0.0, 1.0, n_padded))
    M = plan.parameters["M"]
    assert plan.parameters["sim"] == outcome_law(oracle, M, "auto").mode == "exact"
    monkeypatch.setattr(amp_est, "AUTO_EXACT_LIMIT", n_padded * M - 1)
    assert plan_quantum(f, 2**-5).parameters["sim"] == outcome_law(oracle, M, "auto").mode == "analytic"


def test_shared_ledger_is_charged_the_plan_on_every_trial():
    f = suite_member(SPEC1, "multiscale")
    plan = plan_coin(f, 2**-4)
    ledger = ResourceLedger()
    runs = [integrate_coin(f, 2**-4, np.random.default_rng(s), ledger=ledger, plan=plan) for s in range(3)]
    p = runs[0].parameters
    assert ledger.classical_evals == 3 * (p["n_points"] + p["draws"])
    assert ledger.random_bits == p["bits_per_attempt"] * sum(r.parameters["draw_attempts"] for r in runs)
    assert plan.charges.as_dict() == {"classical_evals": p["n_points"], "quantum_queries": 0,
                                      "random_bits": 0, "gates": 0}


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize(
    "run",
    [
        lambda f: integrate_mc(f, 100, np.random.default_rng(0)),
        lambda f: integrate_mc(f, 100, np.random.default_rng(0), variance_reduced=True),
        lambda f: integrate_coin(f, 0.1, np.random.default_rng(0)),
        lambda f: integrate_deterministic(f, 8),
    ],
    ids=["mc", "mcvr", "coin", "det"],
)
def test_classical_methods_reject_non_finite_functions(run, value):
    f = fn(lambda p: np.full(len(p), value), integral=0.0, name="broken")
    with pytest.raises(ValueError, match="broken gave a non-finite estimate"):
        run(f)


# ---------------------------------------------------------------------------
# randomized quantum expectation
# ---------------------------------------------------------------------------


def test_expectation_validates_eps():
    with pytest.raises(ValueError):
        expectation_randomized_quantum(
            lambda r, n: np.zeros(n), 0.6, np.random.default_rng(0)
        )


def test_expectation_draws_72_over_eps_squared_points():
    seen = {}

    def sampler(rng, n):
        seen["n"] = n
        return np.zeros(n)

    expectation_randomized_quantum(sampler, 0.1, np.random.default_rng(0))
    assert seen["n"] == 7200


def test_expectation_constant_variable():
    c = 0.42
    for seed in range(20):
        est = expectation_randomized_quantum(
            lambda r, n: np.full(n, c), 0.3, np.random.default_rng(seed)
        )
        assert abs(est - c) <= 0.1  # eps/3 of estimation error only


def test_expectation_builds_one_law_for_its_three_runs(monkeypatch):
    built = []

    def counting_law(*args):
        built.append(args)
        return amplitude_law(*args)

    monkeypatch.setattr(amp_est, "amplitude_law", counting_law)
    ledger = ResourceLedger()
    expectation_randomized_quantum(
        lambda r, n: np.zeros(n), 0.3, np.random.default_rng(0), ledger=ledger
    )
    assert len(built) == 1
    assert ledger.quantum_queries == 3 * built[0][2]


def test_expectation_estimates_are_pinned():
    # Values from the per-run law construction; one shared law draws the same.
    pinned = {0: 0.2862890545749599, 1: 0.31488193263374065, 2: 0.2862890545749599}
    for seed, value in pinned.items():
        ledger = ResourceLedger()
        est = expectation_randomized_quantum(
            lambda r, n: (r.random(n) < 0.3).astype(float), 0.1, np.random.default_rng(seed), ledger=ledger
        )
        assert est == value
        assert ledger == ResourceLedger(quantum_queries=768, random_bits=24, gates=24654)


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
            eps,
            rng,
            ledger=ledger,
        )
        hits += abs(est - 0.3) <= eps
    assert hits >= 40
    assert ledger.quantum_queries > 0
    assert ledger.classical_evals == 0  # the model charges only oracle queries


@pytest.mark.parametrize("variance_reduced", [False, True])
def test_mc_blocked_samples_match_one_call_per_chunk_bitwise(variance_reduced):
    # Each chunk's draw evaluated by one call, as before the blocking; the
    # sample count crosses a chunk edge and ends on a partial block.
    samples = CHUNK + quadrature.BLOCK + 3
    f = suite_member(make_spec(2, 0, 1.0), "multiscale")
    plan = plan_mc(f, samples, variance_reduced)
    rng = np.random.default_rng(9)
    ledger = ResourceLedger()
    ledger.add(plan.charges)
    total = 0.0
    for start in range(0, samples, CHUNK):
        batch = min(CHUNK, samples - start)
        total += float(plan.target(rng.random((batch, 2)), ledger).sum())
    former = plan.base + total / samples

    result = integrate_mc(f, samples, np.random.default_rng(9), variance_reduced, plan=plan)
    assert result.estimate.hex() == former.hex()
    assert result.ledger == ledger
