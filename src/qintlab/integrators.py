"""The four integration algorithm families, each with full cost accounting.

Every routine returns an estimate together with the ledger of the run and
the parameters actually used, so experiments are reproducible from the
result alone.  The variance-reduced methods all share one skeleton: project
onto a cheap interpolant, integrate the projection exactly, and spend the
stochastic or quantum budget only on the small residual

    estimate = I(Pf) + (approximate midpoint rule of f - Pf).

Each randomized method is split into a plan and a sample.  ``plan_mc``,
``plan_coin`` and ``plan_quantum`` do the work that does not depend on the
random stream: the projection, and for the quantum method the sup probe,
the residual stream over the coupled grid and the outcome law of the
estimation register.  That law is the simulated circuit's or the closed
form, as ``amp_est.simulates`` decides from the register size; no argument
overrides it.  ``integrate_mc``, ``integrate_coin`` and
``integrate_quantum`` sample one trial from a plan: the random draws, the
residual values they select, and the ledger charges.  Every trial's ledger
is charged the plan's classical evaluations, because each trial stands for
a full run.  Called without a plan, an ``integrate_*`` routine builds one
first, so a planned and a planless call on the same random stream return
the same estimate, ledger and parameters.  A non-finite estimate raises
ValueError.

Parameter couplings fix every proportionality constant to one, with the
documented exceptions: the discretisation grid N is kept at least four
times the interpolation budget, grids round up to perfect d-th powers, and
the Grover-power budget is the smallest power of two whose worst-case
single-run error bound stays below the requested precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import amp_est
# estimate_mean and estimate_mean_from_amplitude are not called here, but
# bench/tracing.py instruments them, like the quadrature names below, in this
# module by name.
from .amp_est import RealOracle, estimate_mean, estimate_mean_from_amplitude, median_boost  # noqa: F401
from .holder import HolderClassSpec, HolderFunction
from .ledger import ResourceLedger
from .quadrature import CHUNK, cell_midpoints, interpolate, midpoint_rule, probe_sup, residual

_BETA_CAP = 0.9
# Points per residual evaluation inside a streamed chunk.  An evaluator
# makes many temporaries per call; at this size they stay in cache and in
# reused heap memory instead of being mapped and page-faulted afresh for
# every chunk.  Sums still run over whole chunks, so results do not depend
# on it.
_BLOCK = 1 << 12
_MIN_N_OVER = 4


@dataclass
class IntegrationResult:
    """Estimate plus the ledger and the exact parameters of the run."""

    estimate: float
    ledger: ResourceLedger
    parameters: dict = field(default_factory=dict)


class CoinStream:
    """Fair-coin randomness source; every flip costs one random bit.

    Uniform node selection over N outcomes draws ceil(log2 N) bits per
    attempt and rejects values >= N, so power-of-two ranges never reject.
    """

    def __init__(self, rng: np.random.Generator, ledger: ResourceLedger | None = None):
        self.rng = rng
        self.ledger = ledger
        self.bits_drawn = 0

    def _count(self, bits: int) -> None:
        self.bits_drawn += bits
        if self.ledger is not None:
            self.ledger.random_bits += bits

    def draw_indices(self, n_outcomes: int, count: int) -> tuple[np.ndarray, int]:
        """count uniform indices below n_outcomes; returns (indices, attempts).

        Batched internally for speed, but bits are charged exactly as a
        sequential drawer would spend them: every attempt up to and
        including the one producing the last needed index.
        """
        if n_outcomes < 1:
            raise ValueError("need at least one outcome")
        if n_outcomes == 1:
            return np.zeros(count, dtype=int), count
        bits = (n_outcomes - 1).bit_length()
        accepted = [np.empty(0, dtype=np.int64)]
        have = 0
        attempts = 0
        while have < count:
            need = count - have
            batch = max(16, int(need * 2**bits / n_outcomes * 1.2))
            draws = self.rng.integers(0, 2**bits, size=batch)
            good_pos = np.flatnonzero(draws < n_outcomes)
            if len(good_pos) >= need:
                used = int(good_pos[need - 1]) + 1
                accepted.append(draws[good_pos[:need]])
                have = count
            else:
                used = batch
                accepted.append(draws[good_pos])
                have += len(good_pos)
            attempts += used
            self._count(bits * used)
        return np.concatenate(accepted), attempts


def _beta(spec: HolderClassSpec) -> float:
    raw = spec.alpha / spec.d if spec.k == 0 else 1.0 / spec.d
    return min(_BETA_CAP, raw)


def _coupled_grid(spec: HolderClassSpec, n_points: int, eps1: float) -> tuple[int, int, float]:
    """Discretisation grid from N**-beta ~ n**-gamma * eps1, with N >= 4n."""
    beta = _beta(spec)
    n_raw = (n_points**spec.gamma / eps1) ** (1.0 / beta)
    n_raw = max(n_raw, _MIN_N_OVER * n_points)
    ell = max(1, math.ceil(n_raw ** (1.0 / spec.d) - 1e-9))
    return ell**spec.d, ell, beta


@dataclass(frozen=True, eq=False)
class Plan:
    """The trial-invariant part of a randomized run, built by a ``plan_*`` function.

    ``key`` names the call the plan serves; the sampler refuses any other.
    ``charges`` holds the classical evaluations the projection spent.
    ``base`` is the projection's exact integral, ``target`` the function
    the trials sample (the residual, or f itself for plain Monte Carlo) and
    ``law`` the quantum register's outcome law (None for classical methods
    and degenerate quantum runs).  ``parameters`` is copied into every
    trial's result.
    """

    key: tuple
    parameters: dict
    charges: ResourceLedger
    base: float
    target: HolderFunction | None = None
    law: amp_est.OutcomeLaw | None = None


def _checked(plan: Plan | None, key: tuple) -> Plan | None:
    if plan is not None and plan.key != key:
        raise ValueError(
            f"plan built for {plan.key[0]}{plan.key[2:]} on {plan.key[1]!r} "
            f"cannot serve {key[0]}{key[2:]} on {key[1]!r}"
        )
    return plan


def _charged(ledger: ResourceLedger | None, plan: Plan) -> ResourceLedger:
    ledger = ledger if ledger is not None else ResourceLedger()
    ledger.add(plan.charges)
    return ledger


def _finished(
    f: HolderFunction, estimate: float, ledger: ResourceLedger, parameters: dict
) -> IntegrationResult:
    if not math.isfinite(estimate):
        raise ValueError(f"{f.name or 'function'} gave a non-finite estimate {estimate!r}")
    return IntegrationResult(estimate, ledger, parameters)


def integrate_deterministic(
    f: HolderFunction, ell: int, ledger: ResourceLedger | None = None
) -> IntegrationResult:
    """Tensor midpoint rule on an ell-per-axis partition; ell**d evaluations."""
    ledger = ledger if ledger is not None else ResourceLedger()
    estimate = midpoint_rule(f, ell, ledger)
    return _finished(f, estimate, ledger, {"method": "det", "ell": ell, "n": ell**f.spec.d})


def plan_mc(f: HolderFunction, samples: int, variance_reduced: bool = False) -> Plan:
    """Monte Carlo plan: the projection on roughly ``samples`` nodes, if variance-reduced."""
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    key = ("mc", f, samples, variance_reduced)
    params: dict = {"method": "mcvr" if variance_reduced else "mc", "samples": samples}
    charges = ResourceLedger()
    if not variance_reduced:
        return Plan(key, params, charges, 0.0, f)
    proj = interpolate(f, max(samples, (f.spec.k + 1) ** f.spec.d), charges)
    params["n_points"] = proj.n_points
    return Plan(key, params, charges, proj.exact_integral, residual(f, proj))


def integrate_mc(
    f: HolderFunction,
    samples: int,
    rng: np.random.Generator,
    variance_reduced: bool = False,
    ledger: ResourceLedger | None = None,
    plan: Plan | None = None,
) -> IntegrationResult:
    """Monte Carlo integration, plain or around the interpolation projection.

    Plain mode averages f at uniform points (unbiased).  Variance-reduced
    mode interpolates on roughly as many nodes as there are samples and
    averages only the residual, so it converges at the optimal randomized
    order on class members.  A ``plan`` from ``plan_mc`` with the same
    arguments skips the projection.
    """
    plan = _checked(plan, ("mc", f, samples, variance_reduced)) or plan_mc(f, samples, variance_reduced)
    ledger = _charged(ledger, plan)
    total = 0.0
    for start in range(0, samples, CHUNK):
        batch = min(CHUNK, samples - start)
        total += float(plan.target(rng.random((batch, f.spec.d)), ledger).sum())
    return _finished(f, plan.base + total / samples, ledger, dict(plan.parameters))


def plan_coin(f: HolderFunction, eps1: float) -> Plan:
    """Coin plan: the projection and the coupled grid the draws select from."""
    if not 0.0 < eps1 < 0.5:
        raise ValueError(f"eps1 must lie in (0, 1/2), got {eps1}")
    spec = f.spec
    charges = ResourceLedger()
    log_term = math.log2(1.0 / eps1)
    n_target = max(math.ceil(log_term / eps1**2), (spec.k + 1) ** spec.d)
    proj = interpolate(f, n_target, charges)
    n_nodes, ell_n, beta = _coupled_grid(spec, proj.n_points, eps1)
    params = {
        "method": "coin",
        "eps1": eps1,
        "n_points": proj.n_points,
        "N": n_nodes,
        "ell_N": ell_n,
        "beta": beta,
        "draws": math.ceil(1.0 / eps1**2),
        "bits_per_attempt": (n_nodes - 1).bit_length() if n_nodes > 1 else 0,
    }
    return Plan(("coin", f, eps1), params, charges, proj.exact_integral, residual(f, proj))


def integrate_coin(
    f: HolderFunction,
    eps1: float,
    rng: np.random.Generator,
    ledger: ResourceLedger | None = None,
    plan: Plan | None = None,
) -> IntegrationResult:
    """Variance reduction with coin-tossing randomness only.

    The residual's midpoint rule over N nodes is estimated by averaging at
    uniformly coin-selected nodes: ceil(eps1**-2) draws, each costing
    ceil(log2 N) bits per rejection attempt.  No quantum queries.  A
    ``plan`` from ``plan_coin`` with the same arguments skips the projection.
    """
    plan = _checked(plan, ("coin", f, eps1)) or plan_coin(f, eps1)
    ledger = _charged(ledger, plan)
    params = dict(plan.parameters)
    draws, ell_n = params["draws"], params["ell_N"]
    indices, params["draw_attempts"] = CoinStream(rng, ledger).draw_indices(params["N"], draws)
    total = 0.0
    for start in range(0, draws, CHUNK):
        chunk = indices[start : start + CHUNK]
        total += float(plan.target(cell_midpoints(chunk, ell_n, f.spec.d), ledger).sum())
    return _finished(f, plan.base + total / draws, ledger, params)


def _scaled_residual_amplitude(g, bound, n_nodes, n_padded, ell_n, d, keep):
    """Stream the residual over all nodes: padded mean of (g + B) / 2B.

    Returns the padded amplitude, the true midpoint value of the residual,
    how many node values the bound failed to cover (clipped), and, if
    ``keep`` is set, the clipped scaled values themselves (else None).
    The evaluator sees blocks of ``_BLOCK`` points; it is pointwise, so a
    chunk's values are the same as from one call on the whole chunk.
    """
    scaled_sum = 0.0
    raw_sum = 0.0
    clipped = 0
    kept = []
    for start in range(0, n_nodes, CHUNK):
        stop = min(start + CHUNK, n_nodes)
        vals = np.empty(stop - start)
        for lo in range(start, stop, _BLOCK):
            hi = min(lo + _BLOCK, stop)
            vals[lo - start : hi - start] = g.evaluator(cell_midpoints(np.arange(lo, hi), ell_n, d))
        raw_sum += float(vals.sum())
        scaled = (vals + bound) / (2.0 * bound)
        clipped += int(((scaled < 0.0) | (scaled > 1.0)).sum())
        scaled = np.clip(scaled, 0.0, 1.0)
        scaled_sum += float(scaled.sum())
        if keep:
            kept.append(scaled)
    values = np.concatenate(kept) if keep else None
    return scaled_sum / n_padded, raw_sum / n_nodes, clipped, values


def plan_quantum(f: HolderFunction, eps1: float, mode: str = "query") -> Plan:
    """Quantum plan: projection, sup probe, residual stream and outcome law.

    While ``amp_est.simulates(n_padded, M)``, the streamed values are loaded
    into a register oracle and the law comes from the simulated circuit;
    otherwise it is the closed-form law of the streamed amplitude.
    ``parameters["sim"]`` names the path taken.  A residual that probes to
    zero gives a degenerate plan, no law.
    """
    if not 0.0 < eps1 < 0.5:
        raise ValueError(f"eps1 must lie in (0, 1/2), got {eps1}")
    if mode not in ("query", "bit"):
        raise ValueError(f"mode must be 'query' or 'bit', got {mode!r}")
    key = ("quantum", f, eps1, mode)
    spec = f.spec
    charges = ResourceLedger()
    inv = 1.0 / eps1
    n_target = math.ceil(inv) if mode == "query" else math.ceil(inv * math.log2(inv))
    n_target = max(n_target, (spec.k + 1) ** spec.d)
    proj = interpolate(f, n_target, charges)
    g = residual(f, proj)
    params: dict = {
        "method": "quantum",
        "mode": mode,
        "eps1": eps1,
        "n_points": proj.n_points,
        "ell": proj.ell,
    }
    half_bound = probe_sup(g, proj.ell * (spec.k + 1))
    # Residuals at the evaluation noise floor (constants, reproduced
    # polynomials) short-circuit: the projection integral is already exact.
    noise_floor = 64.0 * np.finfo(float).eps * max(1.0, abs(proj.exact_integral))
    if half_bound <= noise_floor:
        params.update({"M": 0, "B": 0.0, "degenerate": True})
        return Plan(key, params, charges, proj.exact_integral)
    bound = max(2.0 * half_bound, np.finfo(float).eps)
    n_nodes, ell_n, beta = _coupled_grid(spec, proj.n_points, eps1)
    power = amp_est.smallest_power_for_error(eps1)
    n_padded = 1 << max(0, (n_nodes - 1).bit_length())
    exact = amp_est.simulates(n_padded, power)
    a_padded, residual_midpoint, clipped, values = _scaled_residual_amplitude(
        g, bound, n_nodes, n_padded, ell_n, spec.d, keep=exact
    )
    if exact:
        law = amp_est.outcome_law(RealOracle(values), power, "exact")
    else:
        law = amp_est.amplitude_law(a_padded, n_nodes, n_padded, power)
    params.update(
        {
            "N": n_nodes,
            "ell_N": ell_n,
            "beta": beta,
            "M": power,
            "B": bound,
            "sim": law.mode,
            "clipped_nodes": clipped,
            "residual_midpoint_true": residual_midpoint,
            "interpolant_integral": proj.exact_integral,
        }
    )
    return Plan(key, params, charges, proj.exact_integral, law=law)


def integrate_quantum(
    f: HolderFunction,
    eps1: float,
    rng: np.random.Generator,
    mode: str = "query",
    ledger: ResourceLedger | None = None,
    plan: Plan | None = None,
) -> IntegrationResult:
    """Variance reduction with the quantum mean estimator on the residual.

    Query mode spends ceil(1/eps1) interpolation nodes, bit mode
    ceil(log2(1/eps1)/eps1).  The residual is shifted into [0, 1] by the
    bound B = 2 * (probed sup) and its midpoint rule over the coupled grid
    is estimated to precision eps1 by a single amplitude-estimation run.
    A residual that probes to zero short-circuits with zero queries.  With a
    ``plan`` from ``plan_quantum`` with the same f, eps1 and mode, only the
    outcome draw runs.
    """
    plan = _checked(plan, ("quantum", f, eps1, mode)) or plan_quantum(f, eps1, mode)
    ledger = _charged(ledger, plan)
    estimate = plan.base
    if plan.law is not None:
        bound = plan.parameters["B"]
        estimate += 2.0 * bound * plan.law.draw(rng, ledger).value - bound
    return _finished(f, estimate, ledger, dict(plan.parameters))


def expectation_randomized_quantum(
    sampler,
    f_oracle,
    eps: float,
    rng: np.random.Generator,
    ledger: ResourceLedger | None = None,
) -> float:
    """Expectation of a bounded random variable with a free random generator.

    Draws n = ceil(72 / eps**2) sample points, reads them through an
    approximate value oracle accurate to eps/3, and quantum-estimates their
    discrete mean to eps/3 with failure probability at most 1/8 (a 3-run
    median boost of the single-run estimator).  Together with the Chebyshev
    bound on the empirical mean this gives total error at most eps with
    probability at least 3/4.  The three runs draw from one closed-form
    outcome law.

    ``sampler(rng, n)`` must return the sample points; ``f_oracle(points)``
    their approximate values with absolute error at most eps/3.  The draws
    themselves are cost-free in this model; only quantum queries and the
    measurement bits are charged to the ledger.
    """
    if not 0.0 < eps <= 0.5:
        raise ValueError(f"eps must lie in (0, 1/2], got {eps}")
    n = math.ceil(72.0 / eps**2)
    points = sampler(rng, n)
    values = np.asarray(f_oracle(points), dtype=float)
    if values.shape != (n,):
        raise ValueError(f"oracle returned shape {values.shape}, expected ({n},)")
    shift = 1.0 + eps / 3.0
    scaled = (np.clip(values, -shift, shift) + shift) / (2.0 * shift)
    power = amp_est.smallest_power_for_error(eps / (3.0 * 2.0 * shift))
    law = amp_est.outcome_law(RealOracle(scaled), power, "analytic")
    boosted = median_boost(lambda r: law.draw(r, ledger), 3, rng)
    return 2.0 * shift * boosted.value - shift
