"""Experiment harness: sweeps, fits, serialisation, reproducibility."""

import gc
import statistics

import numpy as np
import pytest

from qintlab import integrators, ratelab
from qintlab.amp_est import error_bound
from qintlab.holder import HolderFunction, make_spec, suite_member
from qintlab.ledger import COUNTERS, ResourceLedger
from qintlab.ratelab import (
    BudgetRow,
    ConfigurationError,
    ConvergenceReport,
    METHODS,
    TrialRecord,
    export,
    fit_rate,
    load_report,
    run_convergence,
)

SPEC1 = make_spec(1, 0, 1)


def synthetic_report(budgets, error_fn, trials=1, seed=0):
    rows = []
    for budget in budgets:
        errors = error_fn(budget)
        errors = [errors] * trials if np.isscalar(errors) else list(errors)
        rows.append(
            BudgetRow(budget, budget, [TrialRecord(e, budget, 0, 0, 0) for e in errors])
        )
    return ConvergenceReport(
        method="det", d=1, k=0, alpha=1.0, mode="query", rows=rows, metadata={"seed": seed}
    )


def test_fit_exact_power_laws():
    report = synthetic_report([2, 4, 8, 16, 32], lambda b: b**-2.0)
    slope, _ = fit_rate(report)
    assert slope == pytest.approx(-2.0, abs=1e-9)
    report = synthetic_report([2, 4, 8, 16], lambda b: 3.0 * b**-1.0)
    slope, _ = fit_rate(report)
    assert slope == pytest.approx(-1.0, abs=1e-9)


def test_fit_with_multiplicative_noise():
    rng = np.random.default_rng(42)
    report = synthetic_report(
        [2**j for j in range(4, 12)],
        lambda b: b**-1.5 * rng.uniform(0.5, 2.0, size=30),
        trials=30,
    )
    slope, ci = fit_rate(report)
    assert -1.7 <= slope <= -1.3
    assert ci[0] <= -1.5 <= ci[1]


def test_fit_excludes_zero_median_rows():
    report = synthetic_report([2, 4, 8, 16, 32], lambda b: 0.0 if b == 8 else b**-1.0)
    with pytest.warns(UserWarning, match="zero median"):
        slope, _ = fit_rate(report)
    assert slope == pytest.approx(-1.0, abs=1e-9)


def _bootstrap_slopes_one_fit_per_resample(report, resamples):
    # The bootstrap as it was before it was batched: one draw, one median
    # and one 1-D polyfit per resample.
    logb = np.log([row.budget for row in report.rows])
    errs = np.stack([row.errors() for row in report.rows])
    seed = report.metadata["seed"]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(10007,))))
    slopes = np.empty(resamples)
    for b in range(resamples):
        pick = rng.integers(0, errs.shape[1], size=errs.shape)
        medians = np.maximum(np.median(np.take_along_axis(errs, pick, axis=1), axis=1), 1e-300)
        slopes[b] = np.polyfit(logb, np.log(medians), 1)[0]
    point = float(np.polyfit(logb, np.log(np.median(errs, axis=1)), 1)[0])
    return point, slopes


def test_one_shot_bootstrap_draws_the_same_picks_as_sequential_draws():
    def draw():
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(3, spawn_key=(10007,))))

    one_shot = draw().integers(0, 20, size=(1000, 7, 20))
    rng = draw()
    sequential = np.stack([rng.integers(0, 20, size=(7, 20)) for _ in range(1000)])
    assert np.array_equal(one_shot, sequential)


@pytest.mark.parametrize("trials, seed", [(20, 3), (7, 11), (2, 0)])
def test_batched_bootstrap_matches_one_fit_per_resample(trials, seed):
    rng = np.random.default_rng(seed)
    report = synthetic_report(
        [4**j for j in range(4, 11)],
        lambda b: b**-1.0 * rng.lognormal(0.0, 1.0, size=trials),
        trials=trials,
        seed=seed,
    )
    point, slopes = _bootstrap_slopes_one_fit_per_resample(report, 1000)
    slope, ci = fit_rate(report)
    assert slope == point
    expected = (np.percentile(slopes, 2.5), np.percentile(slopes, 97.5))
    np.testing.assert_allclose(ci, expected, rtol=1e-14, atol=0)


def test_fit_needs_four_rows():
    report = synthetic_report([2, 4, 8], lambda b: b**-1.0)
    with pytest.raises(ConfigurationError):
        fit_rate(report)


def test_run_convergence_deterministic_rows_replicate():
    f = suite_member(SPEC1, "quadratic")
    report = run_convergence("det", SPEC1, [16, 64, 256, 1024], trials=5, seed=0, fn=f)
    for row in report.rows:
        assert len(row.trials) == 5
        assert len({t.error for t in row.trials}) == 1
        assert row.budget == row.trials[0].classical_evals


def test_run_convergence_seeded_trials_are_stable_across_trial_counts():
    f = suite_member(SPEC1, "quadratic")
    one = run_convergence("mc", SPEC1, [32, 64, 128, 256], trials=1, seed=9, fn=f)
    many = run_convergence("mc", SPEC1, [32, 64, 128, 256], trials=50, seed=9, fn=f)
    for row1, row50 in zip(one.rows, many.rows):
        assert row1.trials[0].error == row50.trials[0].error


def test_run_convergence_validation():
    f = suite_member(SPEC1, "quadratic")
    with pytest.raises(ConfigurationError):
        run_convergence("det", SPEC1, [16, 16], trials=1, seed=0, fn=f)
    with pytest.raises(ConfigurationError):
        run_convergence("sobol", SPEC1, [4, 8], trials=1, seed=0, fn=f)
    no_integral = HolderFunction(lambda p: p[:, 0], SPEC1)
    with pytest.raises(ConfigurationError):
        run_convergence("det", SPEC1, [4, 8, 16, 32], trials=1, seed=0, fn=no_integral)
    with pytest.raises(ConfigurationError):
        run_convergence("quantum", SPEC1, [4, 8, 12, 16], trials=1, seed=0, fn=f)


def test_method_table_fits_each_method_on_its_cost():
    cost = {
        "det": lambda t: t.classical_evals,
        "mc": lambda t: t.classical_evals,
        "mcvr": lambda t: t.classical_evals,
        "coin": lambda t: t.classical_evals + t.random_bits,
        "quantum": lambda t: t.quantum_queries,
    }
    assert list(METHODS) == list(cost)
    assert [m for m, entry in METHODS.items() if not entry.randomized] == ["det"]
    f = suite_member(SPEC1, "quadratic")
    for method in METHODS:
        report = run_convergence(method, SPEC1, [64, 128], trials=2, seed=3, fn=f)
        assert [row.budget for row in report.rows] == [
            statistics.median_low(cost[method](t) for t in row.trials) for row in report.rows
        ]


def test_coin_row_budget_is_the_median_trial_cost():
    # Rejection makes coin trials draw different bit counts, so a row's
    # budget must not depend on which trial happens to come first.
    f = suite_member(make_spec(2, 0, 1), "multiscale")
    report = run_convergence("coin", f.spec, [64, 128], trials=9, seed=3, fn=f)
    for row in report.rows:
        costs = sorted(t.classical_evals + t.random_bits for t in row.trials)
        assert costs[0] < costs[-1]
        assert row.budget == costs[4]


def test_quantum_budget_axis_is_query_count():
    f = suite_member(SPEC1, "quadratic")
    report = run_convergence("quantum", SPEC1, [32, 64, 128, 256], trials=2, seed=1, fn=f)
    for row in report.rows:
        assert row.budget == row.requested
        assert row.trials[0].quantum_queries == row.requested


def test_quantum_budget_map_asks_for_the_single_run_error_bound():
    f = suite_member(SPEC1, "quadratic")
    for budget in (16, 64, 1024):
        result = METHODS["quantum"].by_budget(f, budget, "query")(np.random.default_rng(0))
        assert result.parameters["eps1"] == error_bound(budget)
        assert result.parameters["M"] == budget


def test_trial_records_carry_the_ledger_counters():
    assert tuple(TrialRecord.__dataclass_fields__) == ("error", *COUNTERS)
    ledger = ResourceLedger(classical_evals=1, quantum_queries=2, random_bits=3, gates=4)
    assert list(ledger.as_dict()) == list(COUNTERS)
    ledger.add(ledger)
    assert ledger.as_dict() == {"classical_evals": 2, "quantum_queries": 4, "random_bits": 6, "gates": 8}


def test_monotone_budget_sanity_for_deterministic_runs():
    f = suite_member(SPEC1, "quadratic")
    report = run_convergence("det", SPEC1, [4, 16, 64, 256, 1024], trials=1, seed=0, fn=f)
    errors = [row.trials[0].error for row in report.rows]
    inversions = sum(b > a for a, b in zip(errors, errors[1:]))
    assert inversions <= 1


def test_export_csv_row_count_and_empty_report(tmp_path):
    f = suite_member(SPEC1, "quadratic")
    report = run_convergence("mc", SPEC1, [8, 16], trials=3, seed=0, fn=f)
    path = tmp_path / "r.csv"
    export(report, "csv", str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + 2 * 3
    assert lines[0].startswith("method,d,k,alpha,gamma,mode,budget,trial,error")

    empty = ConvergenceReport(method="mc", d=1, k=0, alpha=1.0, mode="query")
    export(empty, "csv", str(tmp_path / "empty.csv"))
    assert (tmp_path / "empty.csv").read_text().splitlines() == [lines[0]]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_export_roundtrip_reproduces_fit(tmp_path, fmt):
    f = suite_member(SPEC1, "multiscale")
    report = run_convergence("mc", SPEC1, [16, 32, 64, 128, 256], trials=8, seed=4, fn=f)
    slope, ci = fit_rate(report)
    path = tmp_path / f"report.{fmt}"
    export(report, fmt, str(path))
    loaded = load_report(str(path), fmt)
    slope2, ci2 = fit_rate(loaded)
    assert slope2 == slope
    assert ci2 == ci
    assert [row.requested for row in loaded.rows] == [row.requested for row in report.rows]
    assert [row.budget for row in loaded.rows] == [row.budget for row in report.rows]
    assert loaded.metadata["fn"] == "multiscale"


def test_csv_roundtrip_keeps_rows_that_share_a_budget(tmp_path):
    # 16 and 20 both round to a 4x4 grid, so the two rows share a measured budget.
    spec = make_spec(2, 0, 1)
    report = run_convergence("det", spec, [16, 20, 64, 256], trials=2, seed=0,
                             fn=suite_member(spec, "multiscale"))
    assert report.rows[0].budget == report.rows[1].budget
    path = tmp_path / "report.csv"
    export(report, "csv", str(path))
    loaded = load_report(str(path), "csv")
    assert [(row.requested, row.budget, len(row.trials)) for row in loaded.rows] == [
        (row.requested, row.budget, len(row.trials)) for row in report.rows
    ]


def test_csv_without_requested_and_fn_columns_still_loads(tmp_path):
    f = suite_member(SPEC1, "multiscale")
    report = run_convergence("mc", SPEC1, [16, 32, 64, 128], trials=3, seed=4, fn=f)
    path = tmp_path / "report.csv"
    export(report, "csv", str(path))
    lines = path.read_text().splitlines()
    path.write_text("".join(line.rsplit(",", 2)[0] + "\n" for line in lines))
    loaded = load_report(str(path), "csv")
    assert [row.requested for row in loaded.rows] == [row.budget for row in report.rows]
    assert fit_rate(loaded) == fit_rate(report)


def test_export_identical_bytes_for_identical_config(tmp_path):
    f = suite_member(SPEC1, "quadratic")
    paths = []
    for run in range(2):
        report = run_convergence("coin", SPEC1, [64, 128, 256], trials=4, seed=7, fn=f)
        path = tmp_path / f"run{run}.csv"
        export(report, "csv", str(path))
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_export_unwritable_path_mentions_path():
    f = suite_member(SPEC1, "quadratic")
    report = run_convergence("det", SPEC1, [4, 8], trials=1, seed=0, fn=f)
    with pytest.raises(OSError, match="/nonexistent/dir/out.csv"):
        export(report, "csv", "/nonexistent/dir/out.csv")


def test_export_and_load_reject_an_unknown_format(tmp_path):
    report = synthetic_report([4, 8, 16, 32], lambda b: 1.0 / b)
    path = tmp_path / "report.xml"
    with pytest.raises(ConfigurationError, match="format must be"):
        export(report, "xml", str(path))
    assert not path.exists()
    export(report, "csv", str(path))
    with pytest.raises(ConfigurationError, match="format must be"):
        load_report(str(path), "xml")


def test_load_report_rejects_a_header_only_csv(tmp_path):
    path = tmp_path / "empty.csv"
    export(ConvergenceReport(method="mc", d=1, k=0, alpha=1.0, mode="query"), "csv", str(path))
    with pytest.raises(ConfigurationError, match="no data rows"):
        load_report(str(path), "csv")


def test_run_convergence_plans_once_per_row(monkeypatch):
    calls = []
    original = integrators.interpolate

    def counting(f, n_target, ledger=None):
        calls.append(n_target)
        return original(f, n_target, ledger)

    monkeypatch.setattr(integrators, "interpolate", counting)
    f = suite_member(SPEC1, "multiscale")
    for method in ("mcvr", "coin", "quantum"):
        calls.clear()
        report = run_convergence(method, SPEC1, [64, 128, 256], trials=4, seed=2, fn=f)
        assert [len(row.trials) for row in report.rows] == [4, 4, 4]
        assert len(calls) == 3, method


@pytest.mark.parametrize("method", ["mcvr", "coin", "quantum"])
def test_every_trial_is_charged_the_projection(method):
    f = suite_member(SPEC1, "multiscale")
    sample = METHODS[method].by_budget(f, 256, "query")
    results = [sample(np.random.default_rng(seed)) for seed in range(4)]
    assert len({id(r.ledger) for r in results}) == len(results)
    for r in results:
        per_trial = {"mcvr": "samples", "coin": "draws"}.get(method)
        sampled = r.parameters[per_trial] if per_trial else 0
        assert r.ledger.classical_evals == r.parameters["n_points"] + sampled > sampled


@pytest.mark.parametrize("method", ["mc", "mcvr", "coin", "quantum"])
def test_trial_parameters_do_not_leak_between_trials(method):
    f = suite_member(SPEC1, "multiscale")
    sample = METHODS[method].by_eps(f, 2**-5, "query")
    first = sample(np.random.default_rng(0))
    kept = dict(first.parameters)
    first.parameters.clear()
    first.parameters["method"] = "tampered"
    second = sample(np.random.default_rng(0))
    assert second.parameters == kept
    assert second.estimate == first.estimate


@pytest.mark.parametrize("method", ["mcvr", "coin", "quantum"])
def test_recorded_trial_arguments_do_not_keep_the_plan_alive(monkeypatch, method):
    name = {"mcvr": "integrate_mc", "coin": "integrate_coin", "quantum": "integrate_quantum"}[method]
    original = getattr(ratelab, name)
    recorded = []

    def recording(*args, **kwargs):
        recorded.append(kwargs["plan"])
        return original(*args, **kwargs)

    monkeypatch.setattr(ratelab, name, recording)
    f = suite_member(SPEC1, "multiscale")
    sample = METHODS[method].by_budget(f, 256, "query")
    first, second = sample(np.random.default_rng(0)), sample(np.random.default_rng(0))
    assert first.estimate == second.estimate
    assert recorded[0].parameters.items() <= first.parameters.items()
    del sample
    gc.collect()
    with pytest.raises(ReferenceError):
        recorded[0].parameters
