"""The four integration algorithm families, each with full cost accounting.

Every routine returns an estimate with the ledger of the run and the
parameters actually used.  The variance-reduced methods share one skeleton:
project onto a cheap interpolant, integrate the projection exactly, and
spend the stochastic or quantum budget only on the small residual

    estimate = I(Pf) + (approximate midpoint rule of f - Pf).

``_project`` sizes the projection's node target before any node is
evaluated, and ``_coupled_grid`` turns n and eps1 into the grid on which
the coin and quantum methods run the residual's midpoint rule.

Each randomized method is a ``Plan`` of the work that does not depend on
the random stream (``plan_mc``, ``plan_coin``, ``plan_quantum``) and one
sample per trial (``integrate_*``).  A sample makes the random draws and
charges its ledger, the plan's classical evaluations included, so every
trial's ledger reads as a full run.  ``integrate_*`` gets its plan from
``_planned``: the ``plan=`` passed if the same call built it, else a new
one, so a planned and a planless call on one stream agree bit for bit.
Coin draws come from ``draw_indices``, which charges every fair-coin bit a
sequential rejection sampler would spend.

Every size bound is checked here before the work it bounds: ``check_count``
refuses counts past ``MAX_STREAM`` or a float and ``eps_count`` a
precision's power past a float, both with an OverflowError naming the
count.  Proportionality constants are one, except that the coupled grid N
is at least four times the interpolation budget, grids round up to perfect
d-th powers, and the Grover power is the smallest power of two whose
single-run error bound meets the precision.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import amp_est
# estimate_mean and estimate_mean_from_amplitude are not called here, but
# bench/tracing.py instruments them, like the quadrature names below, in this
# module by name.
from .amp_est import RealOracle, estimate_mean, estimate_mean_from_amplitude, median_boost  # noqa: F401
from .grid import Grid
from .holder import HolderClassSpec, HolderFunction
from .ledger import ResourceLedger
from .quadrature import CHUNK, interpolate, midpoint_rule, probe_sup, residual, walk

_BETA_CAP = 0.9
_MIN_N_OVER = 4
# Most points one run evaluates, for every method; ``check_count`` in this
# module is the only reader.  At a few million points a second on one core,
# this many take about a minute.
MAX_STREAM = 1 << 28
# Evaluation roundoff: a quantity at or below it (relative to the values
# involved) is no signal.
NOISE_FLOOR = 64.0 * np.finfo(float).eps


def count_text(count: int) -> str:
    """``count`` in digits below 10^15, else as 10^x, which needs no decimal conversion of a huge int."""
    return str(count) if count < 10**15 else f"10^{math.log10(count):.1f}"


def check_count(count: float, what: str) -> int:
    """ceil(count), the ``what`` a run asks for; OverflowError naming it past a float or ``MAX_STREAM``."""
    if count == math.inf:
        raise OverflowError(f"the {what} overflows a float")
    count = math.ceil(count)
    if count > MAX_STREAM:
        raise OverflowError(f"the {what} {count_text(count)} is more than the {MAX_STREAM} a run evaluates")
    return count


def eps_count(eps1: float, power: float, what: str) -> int:
    """ceil(eps1 ** power), the ``what`` a precision asks for, named if it overflows."""
    try:
        return math.ceil(eps1**power)
    except OverflowError:
        raise OverflowError(
            f"the {what} eps1^{power:.4g} = 10^{power * math.log10(eps1):.1f} overflows a float"
        ) from None


@dataclass
class IntegrationResult:
    """Estimate plus the ledger and the exact parameters of the run."""

    estimate: float
    ledger: ResourceLedger
    parameters: dict = field(default_factory=dict)


def draw_indices(
    rng: np.random.Generator, n_outcomes: int, count: int, ledger: ResourceLedger | None = None
) -> tuple[np.ndarray, int]:
    """count uniform indices below n_outcomes from fair coin flips; returns (indices, attempts).

    Each attempt flips ceil(log2 n_outcomes) coins and rejects values >=
    n_outcomes, so power-of-two ranges never reject.  Attempts are batched
    for speed, but ``ledger`` is charged one random bit per flip a
    sequential drawer would spend: every attempt up to and including the
    one producing the last needed index.
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
        draws = rng.integers(0, 2**bits, size=batch)
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
        if ledger is not None:
            ledger.random_bits += bits * used
    return np.concatenate(accepted), attempts


def _beta(spec: HolderClassSpec) -> float:
    raw = spec.alpha / spec.d if spec.k == 0 else 1.0 / spec.d
    return min(_BETA_CAP, raw)


def _project(f: HolderFunction, target: float, params: dict, charges: ResourceLedger):
    """The projection on ceil(target) nodes, at least one cell, and its residual f - Pf.

    The target is sized before any node is evaluated; ``params`` records ``n_points``.
    """
    n_target = check_count(max(target, (f.spec.k + 1) ** f.spec.d), f"{params['method']} interpolation target")
    proj = interpolate(f, n_target, charges)
    params["n_points"] = proj.n_points
    return proj, residual(f, proj)


def _coupled_grid(spec: HolderClassSpec, params: dict) -> Grid:
    """Discretisation grid from N**-beta ~ n**-gamma * eps1, with N >= 4n.

    Reads n and eps1 from ``params`` and records N, ell_N and beta there.
    """
    beta = _beta(spec)
    n_points, eps1 = params["n_points"], params["eps1"]
    try:
        n_raw = (n_points**spec.gamma / eps1) ** (1.0 / beta)
    except OverflowError:
        n_raw = math.inf
    # N > 2**(1/beta) at every eps1 below 1/2, past the largest array once
    # beta < 1/63: a size the class asks for, not eps1.
    if beta < 1 / 63 or n_raw == math.inf:
        exponent = (spec.gamma * math.log10(n_points) - math.log10(eps1)) / beta
        past = "overflows a float" if n_raw == math.inf else "exceeds the largest array"
        raise ValueError(
            f"the coupled grid size (n^gamma/eps1)^(1/beta) = 10^{exponent:.1f} {past}: "
            f"the class's beta = {beta:.4g} is too small"
        )
    n_raw = max(n_raw, _MIN_N_OVER * n_points)
    grid = Grid(max(1, math.ceil(n_raw ** (1.0 / spec.d) - 1e-9)), spec.d)
    params.update({"N": grid.size, "ell_N": grid.ell, "beta": beta})
    return grid


@dataclass(frozen=True, eq=False)
class Plan:
    """The trial-invariant part of a randomized run, built by a ``plan_*`` function.

    ``key`` is that call, ``(plan_x, *args)``; ``_planned`` serves the plan
    to no other.
    ``charges`` holds the classical evaluations the projection spent.
    ``base`` is the projection's exact integral, ``target`` the function
    Monte Carlo trials sample (the residual, or f itself for plain Monte
    Carlo), ``grid_values`` the residual on coin's coupled grid, as
    ``HolderFunction.on_grid`` returns it, so all coin trials share its
    one profile table, and ``law`` the quantum register's outcome law (None
    for classical methods and degenerate quantum runs).  ``parameters`` is
    copied into every trial's result.
    """

    key: tuple
    parameters: dict
    charges: ResourceLedger
    base: float
    target: HolderFunction | None = None
    grid_values: Callable | None = None
    law: amp_est.OutcomeLaw | None = None


def _planned(plan: Plan | None, build: Callable[..., Plan], *args) -> Plan:
    """``plan`` if the call ``build(*args)`` built it; a new ``build(*args)`` if ``plan`` is None."""
    if plan is None:
        return build(*args)
    if plan.key != (build, *args):
        raise ValueError(
            f"plan built for {plan.key[0].__name__}{plan.key[2:]} on {plan.key[1]!r} "
            f"cannot serve {build.__name__}{args[1:]} on {args[0]!r}"
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
    check_count(ell**f.spec.d, "det cell count")
    ledger = ledger if ledger is not None else ResourceLedger()
    estimate = midpoint_rule(f, ell, ledger)
    return _finished(f, estimate, ledger, {"method": "det", "ell": ell, "n": ell**f.spec.d})


def plan_mc(f: HolderFunction, samples: int, variance_reduced: bool = False) -> Plan:
    """Monte Carlo plan: the projection on roughly ``samples`` nodes, if variance-reduced."""
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    check_count(samples, "mcvr sample count" if variance_reduced else "mc sample count")
    key = (plan_mc, f, samples, variance_reduced)
    params: dict = {"method": "mcvr" if variance_reduced else "mc", "samples": samples}
    charges = ResourceLedger()
    if not variance_reduced:
        return Plan(key, params, charges, 0.0, f)
    proj, g = _project(f, samples, params, charges)
    return Plan(key, params, charges, proj.exact_integral, g)


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
    plan = _planned(plan, plan_mc, f, samples, variance_reduced)
    ledger = _charged(ledger, plan)
    # The generator fills its draws from one stream, so drawing the points
    # block by block gives the same points as one draw per chunk.
    d = f.spec.d
    total = 0.0
    for vals in walk(lambda idx: plan.target(rng.random((idx.size, d)), ledger), samples, d):
        total += float(vals.sum())
    return _finished(f, plan.base + total / samples, ledger, dict(plan.parameters))


def plan_coin(f: HolderFunction, eps1: float) -> Plan:
    """Coin plan: the projection and the coupled grid the draws select from."""
    if not 0.0 < eps1 < 0.5:
        raise ValueError(f"eps1 must lie in (0, 1/2), got {eps1}")
    # Named here, before eps1**2 underflows to zero in the divisions below.
    eps_count(eps1, -2.0, "coin draw count")
    draws = check_count(1.0 / eps1**2, "coin draw count")
    charges = ResourceLedger()
    params: dict = {"method": "coin", "eps1": eps1}
    proj, g = _project(f, math.log2(1.0 / eps1) / eps1**2, params, charges)
    grid = _coupled_grid(f.spec, params)
    params["draws"] = draws
    params["bits_per_attempt"] = (grid.size - 1).bit_length() if grid.size > 1 else 0
    return Plan((plan_coin, f, eps1), params, charges, proj.exact_integral, grid_values=g.on_grid(grid))


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
    plan = _planned(plan, plan_coin, f, eps1)
    ledger = _charged(ledger, plan)
    params = dict(plan.parameters)
    draws = params["draws"]
    indices, params["draw_attempts"] = draw_indices(rng, params["N"], draws, ledger)
    total = 0.0
    for start in range(0, draws, CHUNK):
        total += float(plan.grid_values(indices[start : start + CHUNK], ledger).sum())
    return _finished(f, plan.base + total / draws, ledger, params)


def _scaled_residual_amplitude(g, bound, grid, keep):
    """Stream the residual over the grid's nodes: the sum of (g + B) / 2B.

    Returns that sum, the true midpoint value of the residual, how many node
    values the bound failed to cover (clipped), and, if ``keep`` is set, the
    clipped scaled values themselves (else None).
    """
    scaled_sum = 0.0
    raw_sum = 0.0
    clipped = 0
    kept = []
    for vals in walk(g.on_grid(grid), grid.size, grid.d):
        raw_sum += float(vals.sum())
        # Scaled in place: walk yields a fresh array per chunk, so kept
        # chunks stay distinct.
        np.add(vals, bound, out=vals)
        np.divide(vals, 2.0 * bound, out=vals)
        # B = 2 sup covers the usual chunk whole; only one that leaves [0, 1]
        # is counted and clipped.
        if vals.min() < 0.0 or vals.max() > 1.0:
            clipped += int(np.count_nonzero(vals < 0.0) + np.count_nonzero(vals > 1.0))
            np.clip(vals, 0.0, 1.0, out=vals)
        scaled_sum += float(vals.sum())
        if keep:
            kept.append(vals)
    values = np.concatenate(kept) if keep else None
    return scaled_sum, raw_sum / grid.size, clipped, values


def plan_quantum(f: HolderFunction, eps1: float, mode: str = "query") -> Plan:
    """Quantum plan: projection, sup probe, residual stream and outcome law.

    While ``amp_est.simulates(N, M)``, the streamed values are loaded into a
    register oracle and the law comes from the simulated circuit; otherwise
    it is the closed-form law of the N nodes' streamed sum.
    ``parameters["sim"]`` names the path taken.  A residual that probes to
    zero gives a degenerate plan, no law.
    """
    if not 0.0 < eps1 < 0.5:
        raise ValueError(f"eps1 must lie in (0, 1/2), got {eps1}")
    if mode not in ("query", "bit"):
        raise ValueError(f"mode must be 'query' or 'bit', got {mode!r}")
    key = (plan_quantum, f, eps1, mode)
    charges = ResourceLedger()
    inv = 1.0 / eps1
    params: dict = {"method": "quantum", "mode": mode, "eps1": eps1}
    proj, g = _project(f, inv if mode == "query" else inv * math.log2(inv), params, charges)
    params["ell"] = proj.ell
    half_bound = probe_sup(g, proj.ell * (f.spec.k + 1))
    # Residuals at the evaluation noise floor (constants, reproduced
    # polynomials) short-circuit: the projection integral is already exact.
    noise_floor = NOISE_FLOOR * max(1.0, abs(proj.exact_integral))
    if half_bound <= noise_floor:
        params.update({"M": 0, "B": 0.0, "degenerate": True})
        return Plan(key, params, charges, proj.exact_integral)
    bound = 2.0 * half_bound
    grid = _coupled_grid(f.spec, params)
    n_nodes = grid.size
    check_count(n_nodes, "coupled grid node count")
    power = amp_est.smallest_power_for_error(eps1)
    exact = amp_est.simulates(n_nodes, power)
    scaled_sum, residual_midpoint, clipped, values = _scaled_residual_amplitude(g, bound, grid, keep=exact)
    if exact:
        law = amp_est.outcome_law(RealOracle(values), power, "exact")
    else:
        law = amp_est.amplitude_law(scaled_sum, n_nodes, power)
    params.update(
        {
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
    plan = _planned(plan, plan_quantum, f, eps1, mode)
    ledger = _charged(ledger, plan)
    estimate = plan.base
    if plan.law is not None:
        bound = plan.parameters["B"]
        estimate += 2.0 * bound * plan.law.draw(rng, ledger).value - bound
    return _finished(f, estimate, ledger, dict(plan.parameters))


def expectation_randomized_quantum(
    sampler,
    eps: float,
    rng: np.random.Generator,
    ledger: ResourceLedger | None = None,
) -> float:
    """Expectation of a bounded random variable with a free random generator.

    ``sampler(rng, n)`` returns the values of n = ceil(72 / eps**2) draws,
    each within eps/3 of the variable's value at its draw.  Their discrete
    mean is quantum-estimated to eps/3 with failure probability at most 1/8
    (a 3-run median boost of the single-run estimator, all three runs drawn
    from one closed-form outcome law).  With the Chebyshev bound on the
    empirical mean, the total error is at most eps with probability at
    least 3/4.  The draws are cost-free in this model; only quantum queries
    and the measurement bits are charged to the ledger.
    """
    if not 0.0 < eps <= 0.5:
        raise ValueError(f"eps must lie in (0, 1/2], got {eps}")
    # Named here, before eps**2 underflows to zero in the division below.
    eps_count(eps, -2.0, "rand-quantum sample count")
    n = check_count(72.0 / eps**2, "rand-quantum sample count")
    values = np.asarray(sampler(rng, n), dtype=float)
    if values.shape != (n,):
        raise ValueError(f"sampler returned shape {values.shape}, expected ({n},)")
    shift = 1.0 + eps / 3.0
    scaled = (np.clip(values, -shift, shift) + shift) / (2.0 * shift)
    power = amp_est.smallest_power_for_error(eps / (3.0 * 2.0 * shift))
    law = amp_est.outcome_law(RealOracle(scaled), power, "analytic")
    boosted = median_boost(lambda r: law.draw(r, ledger), 3, rng)
    return 2.0 * shift * boosted.value - shift
