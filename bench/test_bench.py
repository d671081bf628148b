"""Determinism and seed checks of the benchmark itself.

Run from the repository root (about a minute on two cores):

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import run

run.use_checkout_source()

import workloads  # noqa: E402  (needs the source path set above)
from qintlab import holder, integrators, ratelab  # noqa: E402
from qintlab.ledger import ResourceLedger  # noqa: E402

SEED = 7


@pytest.fixture(scope="module", params=run.WORKLOADS)
def first_pass(request, tmp_path_factory):
    workload = workloads.make(request.param, SEED, str(tmp_path_factory.mktemp("reports")))
    return workload, workload.run_pass(0)


def test_first_pass_passes_every_check(first_pass):
    _workload, result = first_pass
    assert result.errors == []
    assert result.operations and result.failed == 0 and result.top_ms
    for row in result.extra.get("ceiling_check", []):
        assert (row["N_computed"], row["n_points_computed"]) == (row["N_run"], row["n_points_run"])


def test_same_seed_gives_bit_identical_results(first_pass):
    workload, result = first_pass
    again = workload.run_pass(0)
    # Slopes, ledger totals and every estimate, compared exactly.
    assert again.digest == result.digest
    assert again.slope_dev == result.slope_dev


def test_traced_pass_gives_the_same_results(first_pass):
    workload, result = first_pass
    traced = workload.run_pass(0, traced=True)
    assert traced.digest == result.digest
    assert traced.errors == []
    assert traced.extra["spans"]
    assert traced.layers["trace.unattributed_s"] < traced.seconds


def test_second_seed_passes_every_check(first_pass, tmp_path):
    workload, result = first_pass
    other = workloads.make(workload.name, SEED + 1, str(tmp_path)).run_pass(0)
    assert other.errors == [] and other.failed == 0
    assert other.digest != result.digest


def test_ledger_check_catches_a_wrong_charge():
    fn = holder.suite_member(holder.make_spec(1, 0, 1.0), "multiscale")
    budget = 64
    res = integrators.integrate_quantum(fn, math.pi / budget + math.pi**2 / budget**2,
                                        workloads.pass_rng(SEED, 0), ledger=ResourceLedger())
    record = ratelab.TrialRecord(error=0.0, **res.ledger.as_dict())
    assert workloads._check_integration("quantum", budget, 1, res, record) is None
    res.ledger.random_bits += 1
    record.random_bits += 1
    assert "random_bits" in workloads._check_integration("quantum", budget, 1, res, record)


def test_benchmark_json_lists_what_run_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(run.ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "register-sim", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
