"""The benchmark's three workloads, driven through qintlab's public entry points.

Each workload is a closed loop: one operation starts only after the previous
one returned.  An operation is one integration trial (one ``integrate_*``
call inside a sweep) or one register simulation (one ``grover_state`` or
``estimate_mean`` call).  A pass is one full run of the workload; the pass
with index i draws every input from ``SeedSequence([seed, i])``, so the same
seed gives the same inputs.  Every operation's output is checked after the
pass, outside its timed section.

Why these three: ``quantum-sweep`` is dominated by the uncharged residual
stream (holder, quadrature, integrators) with the exact register path of
amp_est at small budgets; ``classical-sweep`` uses holder and quadrature
through charged evaluations and never touches amp_est or qsim;
``register-sim`` runs only qsim, grover and amp_est.  A change to one of
these layers should show on the workload that stresses it and not on the
others.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

import tracing
from qintlab import amp_est, cli, grover, holder, integrators, ratelab
from qintlab.ledger import ResourceLedger

# The workload definitions; budgets use the ``qintlab rates`` range syntax,
# which doubles from the lower to the upper end.
QUANTUM_SWEEPS = (("quantum", 1, "2^5..2^11", 20),)
CLASSICAL_SWEEPS = (("det", 2, "4^4..4^11", 20), ("mcvr", 2, "4^3..4^9", 20), ("coin", 2, "4^3..4^8", 20))
# The classical workload's top_trial_ms is read off this sweep's top row.
CLASSICAL_TOP = "coin"
GROVER_QUBITS = range(2, 13)
GROVER_REPEATS = 3
MEAN_ORACLES = ((256, 256), (1024, 1024))  # (items n, Grover-power budget M)
EXACT_RUNS = 8
ANALYTIC_RUNS = 300

GROVER_TOL = 1e-10
LAW_TOL = 1e-12
CEILING_BUDGETS = tuple(2**e for e in range(5, 13))


def pass_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def pass_seed(seed: int, index: int) -> int:
    """The ``--seed`` handed to the sweeps of pass ``index``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class Op:
    kind: str
    seconds: float
    args: tuple
    result: object
    failed: bool = False


@dataclass
class PassResult:
    """Timing, operations and check outcomes of one pass."""

    seconds: float
    ops: list[Op]
    top_ms: list[float]
    errors: list[str] = field(default_factory=list)
    slope_dev: float | None = None
    digest: tuple = ()
    layers: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    operations: int = 0
    failed: int = 0

    def settle(self) -> PassResult:
        """Count the checked operations and drop their outputs.

        Passes a run keeps must not hold states and results, or the
        process's peak memory would grow with the number of passes.
        """
        self.operations = len(self.ops)
        self.failed = sum(op.failed for op in self.ops)
        self.ops = []
        return self


class OpLog:
    """One timer per operation boundary, the only instrument of untraced runs."""

    def __init__(self):
        self.ops: list[Op] = []
        self.current: int | None = None

    def call(self, kind: str, fn, *args, **kwargs):
        self.current = len(self.ops)
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.ops.append(Op(kind, time.perf_counter() - start, args + tuple(kwargs.values()), result))
        self.current = None
        return result

    @contextlib.contextmanager
    def integrations(self):
        """Time every ``integrate_*`` call that ``ratelab`` makes.

        The timer calls through the ``integrators`` module at call time, so
        a traced pass reaches the tracer's wrappers installed there.
        """
        originals = {name: getattr(ratelab, name) for name in tracing.INTEGRATE}

        def timed(name):
            return lambda *a, **k: self.call(name, getattr(integrators, name), *a, **k)

        for name in tracing.INTEGRATE:
            setattr(ratelab, name, timed(name))
        try:
            yield
        finally:
            for name, fn in originals.items():
                setattr(ratelab, name, fn)


def _traced_section(oplog: OpLog, traced: bool):
    if not traced:
        return contextlib.nullcontext(None)
    return tracing.instrumented(tracing.Tracer(lambda: oplog.current))


def _fail(op: Op, errors: list[str], message: str) -> None:
    op.failed = True
    errors.append(message)


# ---------------------------------------------------------------------------
# Quantum ceiling, computed from the documented grid coupling
# ---------------------------------------------------------------------------


def quantum_grid(budget: int, d: int, k: int = 0, alpha: float = 1.0) -> dict:
    """Counts a quantum trial at ``budget`` would stream, without running it.

    Follows the couplings documented in ``integrators``: the rates sweep
    asks for eps1 = pi/M + pi**2/M**2; query mode interpolates on
    ceil(1/eps1) nodes rounded down to whole (k+1)**d cells; the grid obeys
    N**-beta ~ n**-gamma * eps1 with N >= 4n, beta = min(0.9, alpha/d),
    rounded up to a perfect d-th power.  The register pads N to a power of
    two.  Bytes are computed, not measured: float64 coordinates plus one
    float64 value per node, streamed once on the analytic path and twice
    on the exact path.
    """
    gamma = (k + alpha) / d
    eps1 = math.pi / budget + math.pi**2 / budget**2
    n_target = max(math.ceil(1.0 / eps1), (k + 1) ** d)
    ell = int(n_target ** (1.0 / d) / (k + 1) + 1e-9)
    while ((k + 1) * ell) ** d > n_target:
        ell -= 1
    n_points = ((k + 1) * ell) ** d
    beta = min(0.9, alpha / d if k == 0 else 1.0 / d)
    n_raw = max((n_points**gamma / eps1) ** (1.0 / beta), 4 * n_points)
    ell_n = max(1, math.ceil(n_raw ** (1.0 / d) - 1e-9))
    n_nodes = ell_n**d
    n_padded = 1 << max(0, (n_nodes - 1).bit_length())
    exact = n_padded * budget <= amp_est.AUTO_EXACT_LIMIT
    return {
        "budget": budget,
        "d": d,
        "n_points": n_points,
        "N": n_nodes,
        "n_padded": n_padded,
        "sim": "exact" if exact else "analytic",
        "bytes_streamed": n_nodes * 8 * (d + 1) * (2 if exact else 1),
    }


def ceiling_table() -> list[dict]:
    return [quantum_grid(b, d) for d in (1, 2) for b in CEILING_BUDGETS]


# ---------------------------------------------------------------------------
# Sweeps: qintlab rates, export, reload and refit
# ---------------------------------------------------------------------------


def target_slope(method: str, gamma: float) -> float:
    if method == "quantum":
        return -(1.0 + gamma)
    if method == "det":
        return -gamma
    return -(gamma + 0.5)


class SweepWorkload:
    """One or more ``qintlab rates`` sweeps at d-dimensional multiscale."""

    def __init__(self, name: str, sweeps, top_method: str, out_dir: str, seed: int):
        self.name = name
        self.sweeps = sweeps
        self.top_method = top_method
        self.out_dir = out_dir
        self.seed = seed
        # Ready means the suite members exist and one operation per method
        # has run at the smallest budget, so lazy numpy set-up is done.
        for method, d, budgets, _trials in sweeps:
            spec = holder.make_spec(d, 0, 1.0)
            member = holder.suite_member(spec, "multiscale")
            ratelab.run_convergence(method, spec, cli.parse_budgets(budgets)[:1], 1, seed, member)

    def run_pass(self, index: int, traced: bool = False) -> PassResult:
        oplog = OpLog()
        sweep_seed = pass_seed(self.seed, index)
        outcomes, paths = [], []
        with oplog.integrations(), _traced_section(oplog, traced) as tracer:
            start = time.perf_counter()
            for method, d, budgets, trials in self.sweeps:
                first = len(oplog.ops)
                path = os.path.join(self.out_dir, f"{self.name}-{method}-{os.getpid()}.json")
                paths.append(path)
                argv = ["rates", "--method", method, "--d", str(d), "--k", "0", "--alpha", "1",
                        "--fn", "multiscale", "--budgets", budgets, "--trials", str(trials),
                        "--seed", str(sweep_seed), "--out", path, "--format", "json"]
                with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    code = cli.main(argv)
                    report = ratelab.load_report(path, "json") if code == 0 else None
                    exported = report.fitted_slope if report else None
                    refit = ratelab.fit_rate(report)[0] if report else None
                outcomes.append((method, d, trials, code, report, exported, refit, first, len(oplog.ops)))
            seconds = time.perf_counter() - start
        for path in paths:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        result = PassResult(seconds, oplog.ops, [])
        if tracer is not None:
            result.layers = tracing.layer_metrics(tracer, seconds)
            result.extra["spans"] = tracer.spans
        self._check(result, outcomes)
        return result.settle()

    def _check(self, result: PassResult, outcomes) -> None:
        ops, errors = result.ops, result.errors
        devs, digest, coin_rows = [], [], []
        for method, d, trials, code, report, exported, refit, first, last in outcomes:
            sweep_ops = ops[first:last]
            if report is None:
                for op in sweep_ops:
                    _fail(op, errors, f"{method}: qintlab rates exited with {code}")
                continue
            per_row = 1 if method == "det" else trials
            if len(sweep_ops) != per_row * len(report.rows) or refit != exported:
                for op in sweep_ops:
                    _fail(op, errors, f"{method}: {len(sweep_ops)} operations, refit {refit!r} "
                                      f"vs exported {exported!r}")
                continue
            spec = holder.make_spec(d, 0, 1.0)
            devs.append(abs(refit - target_slope(method, spec.gamma)))
            for j, op in enumerate(sweep_ops):
                row = report.rows[j // per_row]
                record = row.trials[j % per_row]
                message = _check_integration(method, row.requested, d, op.result, record)
                if message:
                    _fail(op, errors, f"{method} budget {row.requested}: {message}")
            if method == self.top_method:
                result.top_ms = [op.seconds * 1e3 for op in sweep_ops[-per_row:]]
            if method == "coin":
                coin_rows += [_coin_row(row) for row in report.rows]
            if method == "quantum":
                result.extra["ceiling_check"] = [
                    _ceiling_check(row.requested, d, op.result.parameters)
                    for row, op in zip(report.rows, sweep_ops[::per_row])
                ]
            totals = np.sum([list(op.result.ledger.as_dict().values()) for op in sweep_ops], axis=0)
            digest.append((method, refit, tuple(int(t) for t in totals),
                           tuple(op.result.estimate for op in sweep_ops)))
        result.slope_dev = max(devs) if devs else None
        result.digest = tuple(digest)
        result.layers.update(_integration_counts(ops))
        if result.layers.get("holder.eval.points"):
            charged = sum(op.result.ledger.classical_evals for op in ops)
            result.layers["holder.charged_frac"] = charged / result.layers["holder.eval.points"]
        if coin_rows:
            result.extra["coin_rows"] = coin_rows


def _check_integration(method: str, budget: int, d: int, res, record) -> str | None:
    """None when the result is finite, its ledger exact and its record exported."""
    led, params = res.ledger, res.parameters
    if not math.isfinite(res.estimate):
        return f"estimate {res.estimate!r} is not finite"
    if led.as_dict() != {key: getattr(record, key) for key in led.as_dict()}:
        return f"ledger {led.as_dict()} differs from the exported record {vars(record)}"
    if method == "quantum":
        M = params.get("M")
        checks = {
            "quantum_queries == M == budget": led.quantum_queries == M == budget,
            "random_bits == log2 M": led.random_bits == int(M).bit_length() - 1,
            "classical_evals == n_points": led.classical_evals == params["n_points"],
        }
    elif method == "det":
        checks = {
            "classical_evals == ell**d": led.classical_evals == params["ell"] ** d == params["n"],
            "no bits or queries": led.random_bits == led.quantum_queries == 0,
        }
    elif method == "mcvr":
        checks = {
            "classical_evals == n_points + samples": led.classical_evals == params["n_points"] + params["samples"],
            "no bits or queries": led.random_bits == led.quantum_queries == 0,
        }
    else:
        checks = {
            "random_bits == bits_per_attempt * draw_attempts":
                led.random_bits == params["bits_per_attempt"] * params["draw_attempts"],
            "classical_evals == n_points + draws": led.classical_evals == params["n_points"] + params["draws"],
            "no queries": led.quantum_queries == 0,
        }
    broken = [name for name, ok in checks.items() if not ok]
    return f"failed {', '.join(broken)} (ledger {led.as_dict()})" if broken else None


def _ceiling_check(budget: int, d: int, params: dict) -> dict:
    """Computed grid counts next to the ones a quantum trial actually used."""
    grid = quantum_grid(budget, d)
    return {"budget": budget, "N_computed": grid["N"], "N_run": params.get("N"),
            "n_points_computed": grid["n_points"], "n_points_run": params["n_points"]}


def _coin_row(row) -> dict:
    """Spread of evals+bits across a coin row's trials against the reported budget."""
    spent = [t.classical_evals + t.random_bits for t in row.trials]
    return {"requested": row.requested, "reported": row.budget, "min": min(spent), "max": max(spent)}


def _integration_counts(ops: list[Op]) -> dict[str, float]:
    quantum = [op.result.parameters for op in ops if op.kind == "integrate_quantum"]
    streamed = [p for p in quantum if not p.get("degenerate")]
    nodes = sum(p["N"] for p in streamed)
    padded = sum(1 << max(0, (p["N"] - 1).bit_length()) for p in streamed)
    coin = [op.result.parameters for op in ops if op.kind == "integrate_coin"]
    attempts = sum(p["draw_attempts"] for p in coin)
    exact = sum(p.get("sim") == "exact" for p in quantum)
    return {
        "integrators.nodes_streamed": nodes,
        "integrators.pad_ratio": padded / nodes if nodes else 0.0,
        "integrators.sim_exact_frac": exact / len(quantum) if quantum else 0.0,
        "integrators.degenerate": len(quantum) - len(streamed),
        "integrators.coin_accept": sum(p["draws"] for p in coin) / attempts if attempts else 0.0,
    }


# ---------------------------------------------------------------------------
# Register simulation: Grover states and amplitude estimation
# ---------------------------------------------------------------------------


class RegisterWorkload:
    """Gate-level Grover states and exact/analytic mean estimation."""

    name = "register-sim"

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng(seed)
        grover.grover_state(grover.BitOracle(2, [0]), 1, ResourceLedger())
        oracle = amp_est.RealOracle(rng.random(4))
        for mode in ("exact", "analytic"):
            amp_est.estimate_mean(oracle, 4, rng, mode=mode, ledger=ResourceLedger())

    def run_pass(self, index: int, traced: bool = False) -> PassResult:
        rng = pass_rng(self.seed, index)
        marked = [int(rng.integers(0, 2**m)) for m in GROVER_QUBITS]
        values = [rng.random(n) for n, _M in MEAN_ORACLES]
        oplog = OpLog()
        with _traced_section(oplog, traced) as tracer:
            start = time.perf_counter()
            for _ in range(GROVER_REPEATS):
                for m, index_marked in zip(GROVER_QUBITS, marked):
                    oracle = grover.BitOracle(m, [index_marked])
                    iterations = grover.default_iterations(m)
                    oplog.call("grover_state", grover.grover_state, oracle, iterations, ResourceLedger())
            oracles = [amp_est.RealOracle(v) for v in values]
            for mode, runs in (("exact", EXACT_RUNS), ("analytic", ANALYTIC_RUNS)):
                for oracle, (_n, M) in zip(oracles, MEAN_ORACLES):
                    for _ in range(runs):
                        oplog.call(f"estimate_mean.{mode}", amp_est.estimate_mean,
                                   oracle, M, rng, mode=mode, ledger=ResourceLedger())
            seconds = time.perf_counter() - start
        result = PassResult(seconds, oplog.ops, [])
        if tracer is not None:
            result.layers = tracing.layer_metrics(tracer, seconds)
            result.extra["spans"] = tracer.spans
        self._check(result, oracles)
        return result.settle()

    def _check(self, result: PassResult, oracles) -> None:
        errors = result.errors
        law_ok = {}
        for oracle, (_n, M) in zip(oracles, MEAN_ORACLES):
            _values, simulated = amp_est.exact_estimate_distribution(oracle, M)
            _values, analytic = amp_est.phase_estimation_distribution(oracle.padded_mean(), M)
            law_ok[id(oracle)] = float(np.max(np.abs(simulated - analytic))) <= LAW_TOL
        gates = 0
        digest = []
        top_oracle = oracles[-1]
        for op in result.ops:
            if op.kind == "grover_state":
                (oracle, iterations, ledger), state = op.args, op.result
                m = oracle.m
                p = grover.marked_probability(oracle, state)
                want = grover.success_probability_analytic(oracle.domain_size, oracle.marked_count, iterations)
                gates += ledger.gates
                if abs(p - want) > GROVER_TOL:
                    _fail(op, errors, f"grover m={m}: marked probability {p!r} vs analytic {want!r}")
                elif (ledger.quantum_queries, ledger.gates) != (iterations, m + iterations * (2 * m + 2)):
                    _fail(op, errors, f"grover m={m}: ledger {ledger.as_dict()}")
                digest.append((p, tuple(ledger.as_dict().values())))
                continue
            (oracle, M, _rng, mode, ledger), est = op.args, op.result
            if mode == "exact" and oracle is top_oracle:
                result.top_ms.append(op.seconds * 1e3)
            if not (math.isfinite(est.value) and est.mode == mode and est.queries_used == M):
                _fail(op, errors, f"estimate_mean {mode}: {est}")
            elif (ledger.quantum_queries, ledger.random_bits) != (M, M.bit_length() - 1):
                _fail(op, errors, f"estimate_mean {mode}: ledger {ledger.as_dict()}")
            elif mode == "exact" and not law_ok[id(oracle)]:
                _fail(op, errors, f"exact law of n={oracle.n} M={M} differs from the analytic law")
            digest.append((est.value, tuple(ledger.as_dict().values())))
        result.digest = tuple(digest)
        result.layers["grover.gates"] = gates


def make(name: str, seed: int, out_dir: str):
    """Build (set up) the named workload."""
    if name == "quantum-sweep":
        return SweepWorkload(name, QUANTUM_SWEEPS, "quantum", out_dir, seed)
    if name == "classical-sweep":
        return SweepWorkload(name, CLASSICAL_SWEEPS, CLASSICAL_TOP, out_dir, seed)
    if name == "register-sim":
        return RegisterWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")
