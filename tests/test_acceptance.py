"""Acceptance suite: the eleven exit criteria, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines.  Tolerances are stated inline and pinned; the rate criteria
reproduce the complexity exponents at desk scale, the small-instance
criteria are exact.
"""

import math

import numpy as np

from qintlab.amp_est import RealOracle, exact_outcome_distribution, phase_estimation_distribution
from qintlab.grover import (
    BitOracle,
    grover_state,
    marked_probability,
    success_probability_analytic,
)
from qintlab.holder import adversarial_signs, fooling_family, make_spec, suite_member
from qintlab.integrators import (
    draw_indices,
    expectation_randomized_quantum,
    integrate_coin,
    integrate_deterministic,
    integrate_mc,
    integrate_quantum,
)
from qintlab.ledger import ResourceLedger
from qintlab.qsim import measure_shots
from qintlab.ratelab import fit_rate, run_convergence

CONFIDENCE = 8 / math.pi**2


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_c01_grover_exactness():
    """Simulated marked-set mass equals the closed form to 1e-10."""
    worst = 0.0
    for m in range(2, 9):
        for t in (1, 2, 4):
            oracle = BitOracle(m, range(t))
            for k in range(13):
                simulated = marked_probability(oracle, grover_state(oracle, k))
                analytic = success_probability_analytic(2**m, t, k)
                worst = max(worst, abs(simulated - analytic))
    report(1, worst <= 1e-10, f"grover sim-vs-analytic worst deviation {worst:.2e} <= 1e-10")


def test_c02_two_qubit_search_is_certain():
    """m=2, one marked element, one iteration: success probability one."""
    oracle = BitOracle(2, [2])
    state = grover_state(oracle, 1)
    prob = marked_probability(oracle, state)
    outcomes = measure_shots(state, 10_000, np.random.default_rng(202))
    all_hit = bool(np.all(outcomes == 2))
    ok = abs(prob - 1.0) <= 1e-12 and all_hit
    report(2, ok, f"marked probability {prob!r}, 10^4 seeded shots all return 2: {all_hit}")


def test_c03_amplitude_estimation_contract():
    """Single-run error bound holds with probability >= 8/pi^2; the exact
    simulation's empirical law matches the analytic one within 0.02 TV."""
    worst_mass = 1.0
    worst_tv = 0.0
    rng = np.random.default_rng(303)
    for a in (0.1, 0.3, 0.5, 0.7):
        for M in (16, 64, 256):
            grid, probs = phase_estimation_distribution(a, M)
            bound = 2 * math.pi * math.sqrt(a * (1 - a)) / M + math.pi**2 / M**2
            mass = probs[np.abs(grid - a) <= bound].sum()
            worst_mass = min(worst_mass, mass)
            raw = exact_outcome_distribution(RealOracle(np.full(4, a)), M)
            shots = rng.choice(M, size=10_000, p=np.clip(raw, 0, None) / raw.sum())
            folded = np.sin(np.pi * np.minimum(shots, M - shots) / M) ** 2
            empirical = np.array([(np.abs(folded - g) < 1e-12).mean() for g in grid])
            worst_tv = max(worst_tv, 0.5 * np.abs(empirical - probs).sum())
    ok = worst_mass >= CONFIDENCE - 1e-9 and worst_tv <= 0.02
    report(3, ok, f"min in-bound mass {worst_mass:.4f} >= 8/pi^2, worst shot TV {worst_tv:.4f} <= 0.02")


def test_c04_query_scaling_of_the_mean():
    """Smallest sufficient Grover power grows linearly in 1/eps (factor 4)."""
    a_grid = np.linspace(0.1, 0.9, 9)
    products = []
    for j in range(3, 9):
        eps = 2.0**-j
        M = 2
        while True:
            sufficient = True
            for a in a_grid:
                grid, probs = phase_estimation_distribution(a, M)
                if probs[np.abs(grid - a) <= eps].sum() < 0.75:
                    sufficient = False
                    break
            if sufficient:
                break
            M *= 2
        products.append(M * eps)
    ratio = max(products) / min(products)
    report(4, ratio <= 4.0, f"M_min * eps spans factor {ratio:.2f} <= 4 over eps = 2^-3..2^-8")


def c05_fits(seed):
    """C05's fit on each member at one seed: (member, slope, CI, failed clauses).

    ``tools/seed_audit.py`` runs this over many seeds.
    """
    spec = make_spec(1, 0, 1)
    budgets = [2**j for j in range(5, 13)]
    for name in ("multiscale", "multiscale3"):
        fn = suite_member(spec, name)
        rep = run_convergence("quantum", spec, budgets, trials=20, seed=seed, fn=fn)
        slope, ci = fit_rate(rep)
        clauses = (("slope within 0.3 of -2", abs(slope + 2.0) <= 0.3), ("CI contains -2", ci[0] <= -2.0 <= ci[1]))
        yield name, slope, ci, [clause for clause, held in clauses if not held]


def test_c05_quantum_query_exponent():
    """Error-vs-cost slope -(1+gamma) = -2 for (1,0,1) on two functions.

    The cost is every read of f: the oracle queries plus the projection's
    classical evaluations, as ``METHODS["quantum"].cost`` counts them.
    """
    fits = list(c05_fits(seed=11))
    details = [f"{name}: slope {slope:.3f}, CI [{ci[0]:.3f}, {ci[1]:.3f}]" for name, slope, ci, _ in fits]
    ok = not any(failed for *_, failed in fits)
    report(5, ok, "; ".join(details) + " (target -2 +/- 0.3, CI overlapping -2)")


def test_c06_deterministic_exponent():
    """Midpoint slope -gamma within 0.15 for (1,0,1) and (2,0,1)."""
    cases = [
        ((1, 0, 1.0), [4**i for i in range(2, 7)]),
        ((2, 0, 1.0), [(4**i) ** 2 for i in range(2, 6)]),
    ]
    details = []
    ok = True
    for params, budgets in cases:
        spec = make_spec(*params)
        fn = suite_member(spec, "multiscale")
        rep = run_convergence("det", spec, budgets, trials=1, seed=0, fn=fn)
        slope, _ = fit_rate(rep)
        good = abs(slope + spec.gamma) <= 0.15
        ok = ok and good
        details.append(f"d={spec.d}: slope {slope:.3f} (target {-spec.gamma})")
    report(6, ok, "; ".join(details) + " within 0.15")


def test_c07_randomized_exponent():
    """Variance-reduced MC slope -(gamma + 1/2) = -1.5 within 0.3."""
    spec = make_spec(1, 0, 1)
    fn = suite_member(spec, "multiscale")
    rep = run_convergence("mcvr", spec, [2**j for j in range(6, 14)], trials=50, seed=3, fn=fn)
    slope, ci = fit_rate(rep)
    ok = abs(slope + 1.5) <= 0.3
    report(7, ok, f"mcvr slope {slope:.3f}, CI [{ci[0]:.3f}, {ci[1]:.3f}] (target -1.5 +/- 0.3)")


def test_c08_coin_parity_and_bit_cost():
    """Coin-restricted MC matches variance-reduced MC within a factor 4 at
    equal classical-eval budgets; power-of-two node draws cost exactly
    ceil(log2 N) bits each."""
    spec = make_spec(1, 0, 1)
    fn = suite_member(spec, "multiscale")
    ratios = []
    for eps1 in (2**-3, 2**-4, 2**-5):
        coin_errs, evals = [], []
        for t in range(30):
            res = integrate_coin(fn, eps1, np.random.default_rng(500 + t))
            coin_errs.append(abs(res.estimate - fn.exact_integral))
            evals.append(res.ledger.classical_evals)
        budget = int(np.mean(evals))
        mc_errs = [
            abs(
                integrate_mc(
                    fn, max(1, budget // 2), np.random.default_rng(900 + t), variance_reduced=True
                ).estimate
                - fn.exact_integral
            )
            for t in range(30)
        ]
        ratios.append(float(np.median(coin_errs) / np.median(mc_errs)))
    parity = all(0.25 <= r <= 4.0 for r in ratios)

    ledger = ResourceLedger()
    _, attempts = draw_indices(np.random.default_rng(0), 8, 1000, ledger)
    bits_exact = attempts == 1000 and ledger.random_bits == 3 * 1000
    ok = parity and bits_exact
    report(
        8,
        ok,
        f"coin/mcvr error ratios {['%.2f' % r for r in ratios]} within [1/4, 4]; "
        f"1000 draws from 8 nodes cost exactly 3000 bits: {bits_exact}",
    )


def test_c09_randomized_quantum_pipeline():
    """Bernoulli(0.3) expectation at eps = 0.1: 3/4 success over 200 trials,
    and the n = 7200 Chebyshev sub-step alone lands within eps/3 in >= 85%."""
    eps = 0.1
    seen = {}

    def sampler(rng, n):
        seen["n"] = n
        return (rng.random(n) < 0.3).astype(float)

    hits = 0
    for trial in range(200):
        rng = np.random.default_rng(42 + trial)
        estimate = expectation_randomized_quantum(sampler, eps, rng)
        hits += abs(estimate - 0.3) <= eps
    n = seen["n"]

    cheb_rng = np.random.default_rng(777)
    cheb_hits = sum(
        abs(cheb_rng.binomial(n, 0.3) / n - 0.3) <= eps / 3 for _ in range(200)
    )
    ok = n == 7200 and hits >= 150 and cheb_hits >= 0.85 * 200
    report(
        9,
        ok,
        f"n={n} (=7200), {hits}/200 trials within 0.1 (need 150), "
        f"Chebyshev sub-step {cheb_hits}/200 within eps/3 (need 170)",
    )


def test_c10_fooling_family_hardness():
    """A midpoint rule with fewer nodes than bumps misses the unsampled mass."""
    details = []
    ok = True
    for d, ell_b, ell_q in ((1, 16, 5), (2, 4, 3)):
        spec = make_spec(d, 0, 1.0)
        lambdas, unsampled = adversarial_signs(d, ell_b, ell_q)
        n_bumps = ell_b**d
        instance = fooling_family(spec, n_bumps, lambdas)
        result = integrate_deterministic(instance.as_function(), ell_q)
        error = abs(result.estimate - instance.exact_integral)
        floor = 0.5 * (n_bumps - ell_q**d) * instance.single_bump_integral
        exact = abs(error - unsampled * instance.single_bump_integral) <= 1e-15
        good = error >= floor and exact
        ok = ok and good
        details.append(f"d={d}: error {error:.3e} >= {floor:.3e}, exact by construction: {exact}")
    report(10, ok, "; ".join(details))


def test_c11_ledger_zero_checks():
    """Deterministic runs use no randomness or queries; coin runs no queries."""
    ok = True
    checked = 0
    for params in ((1, 0, 1.0), (2, 0, 1.0), (1, 1, 1.0)):
        spec = make_spec(*params)
        fn = suite_member(spec, "multiscale" if spec.k == 0 else "quadratic")
        det = integrate_deterministic(fn, 8)
        ok = ok and det.ledger.random_bits == 0 and det.ledger.quantum_queries == 0
        coin = integrate_coin(fn, 2**-3, np.random.default_rng(1))
        ok = ok and coin.ledger.quantum_queries == 0 and coin.ledger.random_bits > 0
        quantum = integrate_quantum(fn, 2**-3, np.random.default_rng(1))
        measurement_bits = int(math.log2(quantum.parameters["M"])) if quantum.parameters["M"] else 0
        ok = ok and quantum.ledger.random_bits == measurement_bits
        checked += 3
    report(11, ok, f"{checked} runs across 3 classes: det bits/queries 0, coin queries 0")
