"""Experiment harness: budget sweeps, rate fits, and report serialisation.

A convergence report holds, per requested budget, the measured budget (the
trials' median of the ledger category that matches the method's cost
notion) and the absolute error of every trial.  The fitted rate is the
least-squares slope of log median error against log measured budget; its
confidence interval comes from a nonparametric bootstrap over trials,
because rows are deterministic given the budget and the trials carry all
the randomness.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
import sys
import warnings
import weakref
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .amp_est import error_bound
from .holder import HolderClassSpec, HolderFunction
from .integrators import (
    IntegrationResult,
    integrate_coin,
    integrate_deterministic,
    integrate_mc,
    integrate_quantum,
    plan_coin,
    plan_mc,
    plan_quantum,
)
from .ledger import COUNTERS, ResourceLedger

_BOOTSTRAP_RESAMPLES = 1000
_BOOTSTRAP_KEY = 10007


class ConfigurationError(Exception):
    """Raised for invalid experiment configurations; maps to exit code 2."""


@dataclass
class TrialRecord:
    """One trial's absolute error, then its ledger counters in ``COUNTERS`` order."""

    error: float
    classical_evals: int
    quantum_queries: int
    random_bits: int
    gates: int


@dataclass
class BudgetRow:
    requested: int
    budget: int
    trials: list[TrialRecord]

    def errors(self) -> np.ndarray:
        return np.array([t.error for t in self.trials])


@dataclass
class ConvergenceReport:
    method: str
    d: int
    k: int
    alpha: float
    mode: str
    rows: list[BudgetRow] = field(default_factory=list)
    fitted_slope: float | None = None
    slope_ci: tuple[float, float] | None = None
    metadata: dict = field(default_factory=dict)

    @property
    def gamma(self) -> float:
        return (self.k + self.alpha) / self.d


def _trial_rng(seed: int, budget_index: int, trial_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(budget_index, trial_index))
    return np.random.Generator(np.random.PCG64(ss))


def _det(fn, ell):
    return lambda rng: integrate_deterministic(fn, max(1, ell))


def _det_by_eps(fn, eps1, mode):
    n = math.ceil(eps1 ** (-1.0 / fn.spec.gamma))
    return _det(fn, math.ceil(n ** (1.0 / fn.spec.d)))


# Each sampler holds the only strong reference to its plan and hands every
# trial a weak proxy, so whatever records a trial's call arguments (a
# tracer, a benchmark's operation log) does not keep a row's interpolant
# alive once the row's sampler is gone.


def _mc(fn, samples, variance_reduced=False):
    plan = plan_mc(fn, samples, variance_reduced)
    return lambda rng: integrate_mc(
        fn, samples, rng, variance_reduced=variance_reduced, plan=weakref.proxy(plan)
    )


def _coin(fn, eps1):
    plan = plan_coin(fn, eps1)
    return lambda rng: integrate_coin(fn, eps1, rng, plan=weakref.proxy(plan))


def _quantum(fn, eps1, mode):
    plan = plan_quantum(fn, eps1, mode)
    return lambda rng: integrate_quantum(fn, eps1, rng, mode=mode, plan=weakref.proxy(plan))


def _quantum_by_budget(fn, budget, mode):
    if budget < 16 or budget & (budget - 1):
        raise ConfigurationError(f"quantum budgets must be powers of two >= 16, got {budget}")
    return _quantum(fn, error_bound(budget), mode)


@dataclass(frozen=True)
class Method:
    """One method family, the single place its parameters are chosen.

    ``by_budget`` serves ``qintlab rates`` and ``by_eps`` serves ``qintlab
    integrate``; both take ``(fn, budget or eps1, mode)``, build the
    method's trial-invariant plan once, and return the per-trial sampler
    ``rng -> IntegrationResult``.  The two maps differ on purpose.
    ``cost`` reads the ledger category the rate is fitted on.  A method
    that is not randomized runs once per budget row.  Samplers look the
    ``integrate_*`` functions up in this module at call time, once per
    trial, so rebinding them here reaches every trial.
    """

    by_budget: Callable
    by_eps: Callable
    cost: Callable[[ResourceLedger], int]
    randomized: bool = True


METHODS = {
    "det": Method(
        lambda fn, budget, mode: _det(fn, round(budget ** (1.0 / fn.spec.d))),
        _det_by_eps,
        lambda led: led.classical_evals,
        randomized=False,
    ),
    "mc": Method(
        lambda fn, budget, mode: _mc(fn, budget),
        lambda fn, eps1, mode: _mc(fn, math.ceil(eps1**-2)),
        lambda led: led.classical_evals,
    ),
    "mcvr": Method(
        lambda fn, budget, mode: _mc(fn, max(1, budget // 2), variance_reduced=True),
        lambda fn, eps1, mode: _mc(
            fn, math.ceil(eps1 ** (-2.0 / (1.0 + 2.0 * fn.spec.gamma))), variance_reduced=True
        ),
        lambda led: led.classical_evals,
    ),
    "coin": Method(
        lambda fn, budget, mode: _coin(fn, min(0.49, budget**-0.5)),
        lambda fn, eps1, mode: _coin(fn, eps1),
        lambda led: led.classical_evals + led.random_bits,
    ),
    "quantum": Method(
        _quantum_by_budget,
        _quantum,
        lambda led: led.quantum_queries,
    ),
}


def run_convergence(
    method: str,
    spec: HolderClassSpec,
    budgets,
    trials: int,
    seed: int,
    fn: HolderFunction,
    mode: str = "query",
) -> ConvergenceReport:
    """Sweep the budgets, recording per-trial errors against the exact integral.

    Deterministic given the seed: trial streams are split from
    (seed, budget index, trial index), so trial counts do not perturb each
    other.  Each row builds its method's plan once and samples every trial
    from it.  Methods that are not randomized run once per budget and
    replicate the row.  A row's budget is the lower median of its trials'
    costs, so it stays one trial's measured integer cost when the costs
    vary (coin rejection draws a varying number of bits).
    """
    if method not in METHODS:
        raise ConfigurationError(f"method must be one of {tuple(METHODS)}, got {method!r}")
    budgets = [int(b) for b in budgets]
    if any(b2 <= b1 for b1, b2 in zip(budgets, budgets[1:])):
        raise ConfigurationError("budgets must be strictly increasing")
    if trials < 1:
        raise ConfigurationError("need at least one trial")
    if fn.exact_integral is None:
        raise ConfigurationError(f"function {fn.name!r} has no exact integral to score against")
    if fn.spec != spec:
        raise ConfigurationError("function was built for a different class spec")
    exact = fn.exact_integral
    entry = METHODS[method]

    def record(result: IntegrationResult) -> TrialRecord:
        return TrialRecord(error=abs(result.estimate - exact), **result.ledger.as_dict())

    runs = trials if entry.randomized else 1

    def row(bi: int, budget: int) -> BudgetRow:
        # One plan per row, released before the next row's plan is built.
        sample = entry.by_budget(fn, budget, mode)
        results = [sample(_trial_rng(seed, bi, ti)) for ti in range(runs)]
        records = [record(r) for r in results] * (trials // runs)
        budget_used = statistics.median_low(entry.cost(r.ledger) for r in results)
        return BudgetRow(budget, budget_used, records)

    rows = [row(bi, budget) for bi, budget in enumerate(budgets)]
    return ConvergenceReport(
        method=method,
        d=spec.d,
        k=spec.k,
        alpha=spec.alpha,
        mode=mode,
        rows=rows,
        metadata={"seed": seed, "trials": trials, "fn": fn.name},
    )


def fit_rate(report: ConvergenceReport) -> tuple[float, tuple[float, float]]:
    """Least-squares slope of log median error vs log budget, with 95% CI.

    Rows whose median error is exactly zero (exact-integration fast paths)
    are excluded with a warning.  The CI is a percentile bootstrap over
    trials, seeded from the report seed so refits are bit-identical.  All
    resamples are drawn at once and their slopes come from one batched
    least-squares solve, which can round differently from one solve per
    resample: CI endpoints may differ in the last bit from reports fitted
    before the batching (``rates --method det --d 2 --budgets 4^4..4^10
    --seed 3`` moves from ...123 to ...122), never the point slope.
    """
    if len(report.rows) < 4:
        raise ConfigurationError(f"need at least 4 budget rows, got {len(report.rows)}")
    kept = []
    for row in report.rows:
        if float(np.median(row.errors())) == 0.0:
            warnings.warn(f"budget row {row.budget} has zero median error; excluded from fit")
        else:
            kept.append(row)
    if len(kept) < 2:
        raise ConfigurationError("fewer than 2 nonzero rows left to fit")
    logb = np.log([row.budget for row in kept])
    errs = np.stack([row.errors() for row in kept])
    slope = float(np.polyfit(logb, np.log(np.median(errs, axis=1)), 1)[0])

    seed = report.metadata.get("seed", 0)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(_BOOTSTRAP_KEY,))))
    n_trials = errs.shape[1]
    picks = rng.integers(0, n_trials, size=(_BOOTSTRAP_RESAMPLES, len(kept), n_trials))
    medians = np.median(np.take_along_axis(errs[None], picks, axis=2), axis=2)
    medians = np.maximum(medians, 1e-300)
    slopes = np.polyfit(logb, np.log(medians).T, 1)[0]
    ci = (float(np.percentile(slopes, 2.5)), float(np.percentile(slopes, 97.5)))
    report.fitted_slope = slope
    report.slope_ci = ci
    return slope, ci


# ---------------------------------------------------------------------------
# Serialisation
# ---------------------------------------------------------------------------

CSV_COLUMNS = (
    "method", "d", "k", "alpha", "gamma", "mode", "budget", "trial", "error", *COUNTERS,
    "seed", "requested", "fn",
)


def csv_text(columns, records) -> str:
    """CSV with a header of ``columns``: floats through ``repr``, the rest ``str``."""
    lines = [",".join(columns)]
    lines += [",".join(repr(r[c]) if isinstance(r[c], float) else str(r[c]) for c in columns)
              for r in records]
    return "\n".join(lines) + "\n"


def json_text(payload) -> str:
    """JSON with one-space indents and a trailing newline."""
    return json.dumps(payload, indent=1) + "\n"


def write_text(text: str, path: str | None) -> None:
    """Write ``text`` to ``path``, or to stdout when there is no path."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", newline="") as out:
            out.write(text)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


def export(report: ConvergenceReport, fmt: str, path: str) -> None:
    """Write the report as CSV (one row per budget and trial) or JSON."""
    head = {"method": report.method, "d": report.d, "k": report.k, "alpha": report.alpha,
            "gamma": report.gamma, "mode": report.mode}
    if fmt == "csv":
        tail = {"seed": report.metadata.get("seed", 0), "fn": report.metadata.get("fn", "")}
        text = csv_text(CSV_COLUMNS, [
            {**head, "budget": row.budget, "trial": ti, **vars(trial), "requested": row.requested, **tail}
            for row in report.rows
            for ti, trial in enumerate(row.trials)
        ])
    elif fmt == "json":
        text = json_text({
            **head,
            "fitted_slope": report.fitted_slope,
            "slope_ci": list(report.slope_ci) if report.slope_ci else None,
            "metadata": report.metadata,
            "rows": [
                {"requested": row.requested, "budget": row.budget, "trials": [vars(t) for t in row.trials]}
                for row in report.rows
            ],
        })
    else:
        raise ConfigurationError(f"format must be 'csv' or 'json', got {fmt!r}")
    write_text(text, path)


def load_report(path: str, fmt: str) -> ConvergenceReport:
    """Re-import an exported report; refitting reproduces the slope exactly.

    CSVs written before the ``requested`` and ``fn`` columns still load.
    """
    if fmt == "json":
        with open(path) as handle:
            payload = json.load(handle)
        ci = payload["slope_ci"]
        return ConvergenceReport(
            **{key: payload[key] for key in ("method", "d", "k", "alpha", "mode", "fitted_slope", "metadata")},
            rows=[
                BudgetRow(row["requested"], row["budget"], [TrialRecord(**t) for t in row["trials"]])
                for row in payload["rows"]
            ],
            slope_ci=tuple(ci) if ci else None,
        )
    if fmt != "csv":
        raise ConfigurationError(f"format must be 'csv' or 'json', got {fmt!r}")
    with open(path, newline="") as handle:
        records = list(csv.DictReader(handle))
    if not records:
        raise ConfigurationError(f"no data rows in {path}")
    rows: list[BudgetRow] = []
    for record in records:
        requested = int(record.get("requested") or record["budget"])
        if not rows or rows[-1].requested != requested:
            rows.append(BudgetRow(requested, int(record["budget"]), trials=[]))
        counts = (int(record[name]) for name in COUNTERS)
        rows[-1].trials.append(TrialRecord(float(record["error"]), *counts))
    first = records[0]
    return ConvergenceReport(
        method=first["method"],
        d=int(first["d"]),
        k=int(first["k"]),
        alpha=float(first["alpha"]),
        mode=first["mode"],
        rows=rows,
        metadata={"seed": int(first["seed"]), "fn": first.get("fn")},
    )
