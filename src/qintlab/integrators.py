"""The four integration algorithm families, each with full cost accounting.

Every routine returns an estimate together with the ledger of the run and
the parameters actually used, so experiments are reproducible from the
result alone.  The variance-reduced methods all share one skeleton: project
onto a cheap interpolant, integrate the projection exactly, and spend the
stochastic or quantum budget only on the small residual

    estimate = I(Pf) + (approximate midpoint rule of f - Pf).

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
from .amp_est import RealOracle, estimate_mean, estimate_mean_from_amplitude, median_boost
from .holder import HolderClassSpec, HolderFunction
from .ledger import ResourceLedger
from .quadrature import cell_midpoints, interpolate, midpoint_rule, probe_sup, residual

_CHUNK = 1 << 18
_BETA_CAP = 0.9
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

    def draw_bits(self, n_bits: int) -> int:
        """One integer assembled from n_bits coin flips."""
        value = int(self.rng.integers(0, 2**n_bits))
        self._count(n_bits)
        return value

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
        accepted: list[np.ndarray] = []
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


def integrate_deterministic(
    f: HolderFunction, ell: int, ledger: ResourceLedger | None = None
) -> IntegrationResult:
    """Tensor midpoint rule on an ell-per-axis partition; ell**d evaluations."""
    ledger = ledger if ledger is not None else ResourceLedger()
    estimate = midpoint_rule(f, ell, ledger)
    return IntegrationResult(estimate, ledger, {"method": "det", "ell": ell, "n": ell**f.spec.d})


def integrate_mc(
    f: HolderFunction,
    samples: int,
    rng: np.random.Generator,
    variance_reduced: bool = False,
    ledger: ResourceLedger | None = None,
) -> IntegrationResult:
    """Monte Carlo integration, plain or around the interpolation projection.

    Plain mode averages f at uniform points (unbiased).  Variance-reduced
    mode interpolates on roughly as many nodes as there are samples and
    averages only the residual, so it converges at the optimal randomized
    order on class members.
    """
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    ledger = ledger if ledger is not None else ResourceLedger()
    d = f.spec.d
    params: dict = {"method": "mcvr" if variance_reduced else "mc", "samples": samples}
    if variance_reduced:
        proj = interpolate(f, max(samples, (f.spec.k + 1) ** d), ledger)
        g = residual(f, proj)
        base = proj.exact_integral
        params["n_points"] = proj.n_points
    else:
        g = f
        base = 0.0
    total = 0.0
    for start in range(0, samples, _CHUNK):
        batch = min(_CHUNK, samples - start)
        total += float(g(rng.random((batch, d)), ledger).sum())
    return IntegrationResult(base + total / samples, ledger, params)


def integrate_coin(
    f: HolderFunction,
    eps1: float,
    rng: np.random.Generator,
    ledger: ResourceLedger | None = None,
) -> IntegrationResult:
    """Variance reduction with coin-tossing randomness only.

    The residual's midpoint rule over N nodes is estimated by averaging at
    uniformly coin-selected nodes: ceil(eps1**-2) draws, each costing
    ceil(log2 N) bits per rejection attempt.  No quantum queries.
    """
    if not 0.0 < eps1 < 0.5:
        raise ValueError(f"eps1 must lie in (0, 1/2), got {eps1}")
    ledger = ledger if ledger is not None else ResourceLedger()
    spec = f.spec
    log_term = math.log2(1.0 / eps1)
    n_target = max(math.ceil(log_term / eps1**2), (spec.k + 1) ** spec.d)
    proj = interpolate(f, n_target, ledger)
    g = residual(f, proj)
    n_nodes, ell_n, beta = _coupled_grid(spec, proj.n_points, eps1)
    draws = math.ceil(1.0 / eps1**2)
    coin = CoinStream(rng, ledger)
    indices, attempts = coin.draw_indices(n_nodes, draws)
    total = 0.0
    for start in range(0, draws, _CHUNK):
        chunk = indices[start : start + _CHUNK]
        total += float(g(cell_midpoints(chunk, ell_n, spec.d), ledger).sum())
    estimate = proj.exact_integral + total / draws
    return IntegrationResult(
        estimate,
        ledger,
        {
            "method": "coin",
            "eps1": eps1,
            "n_points": proj.n_points,
            "N": n_nodes,
            "ell_N": ell_n,
            "beta": beta,
            "draws": draws,
            "draw_attempts": attempts,
            "bits_per_attempt": (n_nodes - 1).bit_length() if n_nodes > 1 else 0,
        },
    )


def _scaled_residual_amplitude(g, bound, n_nodes, ell_n, d):
    """Stream the residual over all nodes: padded mean of (g + B) / 2B.

    Returns the padded amplitude, the true midpoint value of the residual,
    and how many node values the bound failed to cover (clipped).
    """
    n_padded = 1 << max(0, (n_nodes - 1).bit_length())
    scaled_sum = 0.0
    raw_sum = 0.0
    clipped = 0
    for start in range(0, n_nodes, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, n_nodes))
        vals = np.asarray(g.evaluator(cell_midpoints(idx, ell_n, d)), dtype=float)
        raw_sum += float(vals.sum())
        scaled = (vals + bound) / (2.0 * bound)
        clipped += int(((scaled < 0.0) | (scaled > 1.0)).sum())
        scaled_sum += float(np.clip(scaled, 0.0, 1.0).sum())
    return scaled_sum / n_padded, raw_sum / n_nodes, n_padded, clipped


def integrate_quantum(
    f: HolderFunction,
    eps1: float,
    rng: np.random.Generator,
    mode: str = "query",
    sim: str = "auto",
    ledger: ResourceLedger | None = None,
) -> IntegrationResult:
    """Variance reduction with the quantum mean estimator on the residual.

    Query mode spends ceil(1/eps1) interpolation nodes, bit mode
    ceil(log2(1/eps1)/eps1).  The residual is shifted into [0, 1] by the
    bound B = 2 * (probed sup) and its midpoint rule over the coupled grid
    is estimated to precision eps1 by a single amplitude-estimation run.
    A residual that probes to zero short-circuits with zero queries.
    """
    if not 0.0 < eps1 < 0.5:
        raise ValueError(f"eps1 must lie in (0, 1/2), got {eps1}")
    if mode not in ("query", "bit"):
        raise ValueError(f"mode must be 'query' or 'bit', got {mode!r}")
    if sim not in ("auto", "exact", "analytic"):
        raise ValueError(f"sim must be 'auto', 'exact' or 'analytic', got {sim!r}")
    ledger = ledger if ledger is not None else ResourceLedger()
    spec = f.spec
    inv = 1.0 / eps1
    n_target = math.ceil(inv) if mode == "query" else math.ceil(inv * math.log2(inv))
    n_target = max(n_target, (spec.k + 1) ** spec.d)
    proj = interpolate(f, n_target, ledger)
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
        return IntegrationResult(proj.exact_integral, ledger, params)
    bound = max(2.0 * half_bound, np.finfo(float).eps)
    n_nodes, ell_n, beta = _coupled_grid(spec, proj.n_points, eps1)
    power = amp_est.smallest_power_for_error(eps1)
    a_padded, residual_midpoint, n_padded, clipped = _scaled_residual_amplitude(
        g, bound, n_nodes, ell_n, spec.d
    )
    if sim == "auto":
        sim = "exact" if n_padded * power <= amp_est.AUTO_EXACT_LIMIT else "analytic"
    if sim == "exact":
        # Materialise the scaled residual as a value oracle and run the
        # full register simulation.
        idx = np.arange(n_nodes)
        vals = np.asarray(g.evaluator(cell_midpoints(idx, ell_n, spec.d)), dtype=float)
        oracle = RealOracle(np.clip((vals + bound) / (2.0 * bound), 0.0, 1.0))
        est = estimate_mean(oracle, power, rng, mode="exact", ledger=ledger)
    else:
        est = estimate_mean_from_amplitude(a_padded, n_nodes, n_padded, power, rng, ledger)
    estimate = proj.exact_integral + (2.0 * bound * est.value - bound)
    params.update(
        {
            "N": n_nodes,
            "ell_N": ell_n,
            "beta": beta,
            "M": power,
            "B": bound,
            "sim": sim,
            "clipped_nodes": clipped,
            "residual_midpoint_true": residual_midpoint,
            "interpolant_integral": proj.exact_integral,
        }
    )
    return IntegrationResult(estimate, ledger, params)


def expectation_randomized_quantum(
    sampler,
    f_oracle,
    eps: float,
    rng: np.random.Generator,
    mode: str = "analytic",
    ledger: ResourceLedger | None = None,
) -> float:
    """Expectation of a bounded random variable with a free random generator.

    Draws n = ceil(72 / eps**2) sample points, reads them through an
    approximate value oracle accurate to eps/3, and quantum-estimates their
    discrete mean to eps/3 with failure probability at most 1/8 (a 3-run
    median boost of the single-run estimator).  Together with the Chebyshev
    bound on the empirical mean this gives total error at most eps with
    probability at least 3/4.

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
    oracle = RealOracle(scaled)

    def single_run(r: np.random.Generator):
        return estimate_mean(oracle, power, r, mode=mode, ledger=ledger)

    boosted = median_boost(single_run, 3, rng)
    return 2.0 * shift * boosted.value - shift
