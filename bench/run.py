"""qintlab benchmark: three workloads, end-to-end metrics and per-layer traces.

Run from the repository root; the package is imported from ``src/``:

    python3 bench/run.py --workload quantum-sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --trace 1

``--seconds`` is how long one run measures; it defaults to ``run_seconds`` in
``BENCHMARK.json``, the one place the run length is set.

``--trace 0`` measures with one timer per operation boundary and prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes and
prints the per-layer metrics.  Each workload repeats whole passes until
``--seconds`` have gone by (at least one pass) and every operation's output
is checked.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a result file
with the environment, the computed quantum ceiling and, for traced runs,
every span goes to ``bench/results/``.  ``--workload all`` runs each
workload in its own process, one after the other.

QINTLAB_THREADS is pinned to 1: every workload is a serial closed loop.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "bench", "results")
WORKLOADS = ("quantum-sweep", "classical-sweep", "register-sim")
SETUP_SAMPLES = 7
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    RUN_SECONDS = json.load(_handle)["run_seconds"]
PROBE_TIMEOUT_S = 120

END_TO_END = {"setup_s": "s", "run_s": "s", "top_trial_ms": "ms", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit.

    Span times are reported as shares of the traced pass's wall time
    (``<name>.share`` for the span seconds ``<name>.s``), so a module that
    does no work on a workload reads 0 as a ratio, not as a constant time;
    the seconds themselves go to the result file and the printed lines.
    """
    import tracing

    units = {}
    for module in tracing.MODULES:
        units.update({f"{module}.calls": "count", f"{module}.total_share": "ratio",
                      f"{module}.self_share": "ratio"})
    units.update({f"{name}.share": "ratio" for name in tracing.TIMED})
    units.update({f"{name}.calls": "count" for name in tracing.CALLED})
    units.update({key: "count" for key in tracing.COUNTED})
    units.update(
        {
            "holder.charged_frac": "ratio",
            "integrators.nodes_streamed": "count", "integrators.pad_ratio": "ratio",
            "integrators.sim_exact_frac": "ratio", "integrators.degenerate": "count",
            "integrators.coin_accept": "ratio", "grover.gates": "count",
            "ratelab.run_convergence.self_share": "ratio", "ratelab.slope_dev": "slope",
            "trace.run_s": "s", "trace.untraced_run_s": "s", "trace.overhead_s": "s",
            "trace.unattributed_s": "s",
        }
    )
    return units


def seconds_key(share_key: str) -> str:
    """``holder.eval.share`` -> ``holder.eval.s``; ``cli.self_share`` -> ``cli.self_s``."""
    return share_key[: -len("share")] + "s"


def use_checkout_source() -> None:
    """Import qintlab from this checkout's ``src/``, or exit without a result."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "qintlab", "__init__.py")):
        sys.exit(f"error: no qintlab package under {src}; run from a full checkout")
    os.environ["QINTLAB_THREADS"] = "1"
    sys.path.insert(0, src)
    import qintlab

    if not os.path.abspath(qintlab.__file__).startswith(src + os.sep):
        sys.exit(f"error: qintlab imported from {qintlab.__file__}, not from {src}")


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process to the workload being ready."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        try:
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe for {workload} failed with exit code {proc.returncode}")
    return elapsed


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "QINTLAB_THREADS": os.environ.get("QINTLAB_THREADS"),
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "machine": platform.machine(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout; None outside a git repository."""
    try:
        proc = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over the package sources, which identifies the code measured."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "qintlab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def run_passes(workload, seconds: float, trace: bool):
    """Whole passes until ``seconds`` have gone by; traced runs alternate."""
    plain, traced = [], []
    start = time.perf_counter()
    index = 0
    while not plain or time.perf_counter() - start < seconds:
        plain.append(workload.run_pass(index))
        if trace:
            traced.append(workload.run_pass(index, traced=True))
        index += 1
    return plain, traced


def summarise(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    setups = [] if trace else [probe_setup(name, seed) for _ in range(SETUP_SAMPLES)]
    os.makedirs(OUT_DIR, exist_ok=True)
    workload = workloads.make(name, seed, OUT_DIR)
    plain, traced = run_passes(workload, seconds, trace)
    passes = plain + traced
    errors = [e for p in passes for e in p.errors]
    for p, q in zip(plain, traced):
        if p.digest != q.digest:
            errors.append("a traced pass gave different results from its untraced twin")
            q.failed = q.operations
    attempted = sum(p.operations for p in passes)
    failed = sum(p.failed for p in passes)
    top_ms = [ms for p in plain for ms in p.top_ms]
    devs = [p.slope_dev for p in plain if p.slope_dev is not None]
    run_s = statistics.median(p.seconds for p in plain)
    if trace:
        units = per_layer_units()
        shares = [key for key in units if key.endswith("share")]
        layer_values = {key: statistics.median(p.layers.get(key, 0) for p in traced)
                        for key in units if key not in shares}
        layer_values.update({key: statistics.median(p.layers[seconds_key(key)] / p.seconds for p in traced)
                             for key in shares})
        layer_seconds = {key: statistics.median(p.layers[seconds_key(key)] for p in traced) for key in shares}
        traced_s = statistics.median(p.seconds for p in traced)
        layer_values.update(
            {
                "ratelab.slope_dev": statistics.median(devs) if devs else 0.0,
                "trace.run_s": traced_s,
                "trace.untraced_run_s": run_s,
                "trace.overhead_s": traced_s - run_s,
            }
        )
        metrics = {key: {"value": layer_values[key], "unit": unit} for key, unit in units.items()}
    else:
        layer_seconds = {}
        values = {
            "setup_s": statistics.median(setups),
            "run_s": run_s,
            "top_trial_ms": statistics.median(top_ms),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END.items()}
    record = {
        "workload": name,
        "trace": int(trace),
        "seconds": seconds,
        "environment": environment(seed),
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "errors": errors[:50],
        "metrics": metrics,
        "layer_seconds": layer_seconds,
        "passes": [{"seconds": p.seconds, "operations": p.operations, "failed": p.failed,
                    "top_ms_median": statistics.median(p.top_ms), "slope_dev": p.slope_dev}
                   for p in plain],
        "traced_passes": [{"seconds": p.seconds, "operations": p.operations} for p in traced],
        "top_trial_samples": len(top_ms),
        "setup_samples_s": setups,
        "slope_dev": statistics.median(devs) if devs else None,
        "quantum_ceiling_computed": workloads.ceiling_table(),
        "coin_rows": plain[0].extra.get("coin_rows", []),
        "ceiling_check": plain[0].extra.get("ceiling_check", []),
    }
    path = os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as handle:
        json.dump({**record, "spans": [p.extra.get("spans", []) for p in traced]}, handle)
    record["result_file"] = os.path.relpath(path, ROOT)
    return record


def report(record: dict) -> None:
    """Human-readable lines; the JSON result line follows them."""
    env = record["environment"]
    print(f"workload {record['workload']}  seed {env['seed']}  trace {record['trace']}  "
          f"nproc {env['nproc']}  python {env['python']}  numpy {env['numpy']}  "
          f"QINTLAB_THREADS={env['QINTLAB_THREADS']}  commit {env['git_commit']}")
    for key, metric in record["metrics"].items():
        note = f"  (n={record['top_trial_samples']})" if key == "top_trial_ms" else ""
        if key in record["layer_seconds"]:
            note = f"  ({record['layer_seconds'][key]:.6g} s)"
        print(f"  {key:44s} {metric['value']:>16.6g} {metric['unit']}{note}")
    print(f"  {'fail_frac':44s} {record['fail_frac']:>16.6g} ratio  "
          f"({record['failed']} of {record['attempted']} operations)")
    if record["slope_dev"] is not None and not record["trace"]:
        print(f"  {'slope_dev':44s} {record['slope_dev']:>16.6g} slope  (median over passes)")
    for error in record["errors"][:10]:
        print(f"  FAILED: {error}")
    if record["workload"] == "quantum-sweep":
        print("  quantum ceiling (computed from the grid coupling, not run):")
        for row in record["quantum_ceiling_computed"]:
            print(f"    d={row['d']} budget={row['budget']:>5} N={row['N']:>13} "
                  f"n_padded={row['n_padded']:>13} sim={row['sim']:8s} "
                  f"bytes_streamed/trial={row['bytes_streamed']:.3g}")
        checked = record["ceiling_check"]
        differ = [row for row in checked
                  if (row["N_computed"], row["n_points_computed"]) != (row["N_run"], row["n_points_run"])]
        print(f"  computed N and n_points against the trials run: {len(checked) - len(differ)} of "
              f"{len(checked)} budgets agree")
        for row in differ:
            print(f"    budget {row['budget']}: computed N={row['N_computed']} n={row['n_points_computed']}, "
                  f"run N={row['N_run']} n={row['n_points_run']}")
    for row in record["coin_rows"]:
        print(f"  coin row {row['requested']:>6}: reported budget {row['reported']}, "
              f"evals+bits across trials {row['min']}..{row['max']}")
    print(f"  result file: {record['result_file']}")


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="how long one run measures (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    use_checkout_source()
    if args.setup_probe:
        import workloads

        workloads.make(args.workload, args.seed, OUT_DIR)
        print("ready", flush=True)
        return 0
    record = summarise(args.workload, args.seed, args.seconds, bool(args.trace))
    report(record)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
