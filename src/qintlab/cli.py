"""Command-line front end: grover, mean, fool, integrate, rates."""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import amp_est, grover, holder, integrators, ratelab
from .holder import make_spec


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _parse_budget_token(token: str) -> int:
    token = token.strip()
    if "^" in token:
        base, exp = token.split("^")
        return int(base) ** int(exp)
    return int(token)


def parse_budgets(text: str) -> list[int]:
    """Either a comma list of counts or a doubling range like 2^4..2^14."""
    if ".." in text:
        lo, hi = (_parse_budget_token(tok) for tok in text.split("..", 1))
        if not 1 <= lo <= hi:
            raise ratelab.ConfigurationError(f"budget range needs 1 <= low <= high, got {text!r}")
        budgets = []
        b = lo
        while b <= hi:
            budgets.append(b)
            b *= 2
        return budgets
    budgets = [_parse_budget_token(tok) for tok in text.split(",")]
    if min(budgets) < 1:
        raise ratelab.ConfigurationError(f"budgets must be at least 1, got {text!r}")
    return budgets


def _pick_function(args, spec) -> holder.HolderFunction:
    if args.fn == "fool":
        n_bumps = args.fool_bumps ** spec.d
        signs = np.ones(n_bumps)
        return holder.fooling_family(spec, n_bumps, signs).as_function()
    return holder.suite_member(spec, args.fn)


def cmd_grover(args) -> int:
    oracle = grover.BitOracle(args.m, [args.marked])
    iterations = args.k if args.k is not None else grover.default_iterations(args.m)
    state = grover.grover_state(oracle, iterations)
    analytic = grover.success_probability_analytic(2**args.m, 1, iterations)
    from .qsim import measure_shots

    outcomes = measure_shots(state, args.shots, _rng(args.seed))
    empirical = float((outcomes == args.marked).mean())
    print(f"m={args.m} marked={args.marked} iterations={iterations} shots={args.shots}")
    print(f"analytic success probability: {analytic:.6f}")
    print(f"empirical success frequency:  {empirical:.6f}")
    return 0


def _require_trials(trials: int) -> None:
    if trials < 1:
        raise ratelab.ConfigurationError("need at least one trial")


def cmd_mean(args) -> int:
    _require_trials(args.trials)
    if not 0.0 < args.eps < math.inf:
        raise ratelab.ConfigurationError(f"--eps must be positive and finite, got {args.eps}")
    try:
        M = amp_est.smallest_power_for_error(args.eps)
    except OverflowError as exc:
        raise ratelab.ConfigurationError(f"--eps {args.eps} is too small: its power M overflows") from exc
    rng = _rng(args.seed)
    if args.dist == "const":
        values = np.full(args.n, 0.5)
    elif args.dist == "alternating":
        values = (np.arange(args.n) % 2).astype(float)
    else:
        values = rng.random(args.n)
    oracle = amp_est.RealOracle(values)
    truth = float(values.mean())
    law = amp_est.outcome_law(oracle, M, args.mode)
    runs = [law.draw(rng) for _ in range(args.trials)]
    hits = sum(abs(est.value - truth) <= args.eps for est in runs)
    queries = sum(est.queries_used for est in runs)
    print(f"n={args.n} dist={args.dist} true mean={truth:.6f} eps={args.eps} M={M}")
    print(f"success rate over {args.trials} trials: {hits / args.trials:.4f}")
    print(f"mean queries per trial: {queries / args.trials:.1f}")
    return 0


def cmd_fool(args) -> int:
    spec = make_spec(args.d, args.k, args.alpha)
    n_bumps = args.n
    rng = _rng(args.seed)
    if args.signs == "all-plus":
        signs = np.ones(n_bumps)
    elif args.signs == "alternating":
        signs = np.array([(-1.0) ** i for i in range(n_bumps)])
    else:
        signs = rng.choice([-1.0, 1.0], size=n_bumps)
    instance = holder.fooling_family(spec, n_bumps, signs, c_geom=args.c_geom)
    report = holder.verify_membership(instance.as_function())
    print(f"class (d={spec.d}, k={spec.k}, alpha={spec.alpha}), gamma={spec.gamma}")
    print(f"bumps={instance.n_bumps} edge={1 / instance.cells_per_axis} "
          f"height={instance.height!r} profile={instance.profile}")
    print(f"single-bump integral: {instance.single_bump_integral!r}")
    print(f"exact integral:       {instance.exact_integral!r}")
    print(f"membership: {'pass' if report.passed else 'FAIL'} "
          f"(worst quotient {report.worst_quotient:.4f}, sup {report.sup_norm:.4f})")
    return 0


def cmd_integrate(args) -> int:
    _require_trials(args.trials)
    if not 0.0 < args.eps1 < math.inf:
        raise ratelab.ConfigurationError(f"--eps1 must be positive and finite, got {args.eps1}")
    if args.method == "rand-quantum" and not 0.0 <= args.p <= 1.0:
        raise ratelab.ConfigurationError(f"--p must lie in [0, 1], got {args.p}")
    try:
        rows = _integrate_rows(args)
    except (OverflowError, ZeroDivisionError) as exc:
        # Sizes grow like powers of 1/eps1; far below any usable precision
        # they overflow, or the powers of eps1 underflow to zero.
        raise ratelab.ConfigurationError(
            f"--eps1 {args.eps1} is too small: the sizes it asks for do not fit ({exc})"
        ) from exc
    text = ratelab.json_text(rows) if args.format == "json" else ratelab.csv_text(tuple(rows[0]), rows)
    ratelab.write_text(text, args.out)
    return 0


def _integrate_rows(args) -> list[dict]:
    spec = make_spec(args.d, args.k, args.alpha)
    rows = []
    if args.method == "rand-quantum":
        def sampler(rng, n):
            return (rng.random(n) < args.p).astype(float)

        for trial in range(args.trials):
            rng = _rng(args.seed + trial)
            ledger = integrators.ResourceLedger()
            est = integrators.expectation_randomized_quantum(
                sampler, lambda pts: pts, args.eps1, rng, ledger=ledger
            )
            rows.append({"trial": trial, "estimate": est, "error": abs(est - args.p),
                         **ledger.as_dict()})
    else:
        fn = _pick_function(args, spec)
        sample = ratelab.METHODS[args.method].by_eps(fn, args.eps1, args.mode)
        for trial in range(args.trials):
            result = sample(_rng(args.seed + trial))
            row = {"trial": trial, "estimate": result.estimate, **result.ledger.as_dict()}
            if fn.exact_integral is not None:
                row["error"] = abs(result.estimate - fn.exact_integral)
            rows.append(row)
    return rows


def cmd_rates(args) -> int:
    spec = make_spec(args.d, args.k, args.alpha)
    fn_name = args.fn or ("multiscale" if spec.k == 0 else "quadratic")
    if args.fn == "fool":
        raise ratelab.ConfigurationError("rates needs a suite member with an exact integral")
    fn = holder.suite_member(spec, fn_name)
    budgets = parse_budgets(args.budgets)
    report = ratelab.run_convergence(
        args.method, spec, budgets, args.trials, args.seed, fn, mode=args.mode
    )
    slope, ci = ratelab.fit_rate(report)
    if args.out:
        ratelab.export(report, args.format, args.out)
        print(f"report written to {args.out}")
    print(f"method={args.method} fn={fn_name} gamma={spec.gamma}")
    print(f"fitted slope: {slope:.4f}  95% CI: [{ci[0]:.4f}, {ci[1]:.4f}]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qintlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("grover", help="search success: simulated vs analytic")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--marked", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--shots", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_grover)

    p = sub.add_parser("mean", help="quantum mean estimation success rate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dist", choices=["const", "alternating", "uniform-random"], default="uniform-random")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--mode", choices=["auto", "exact", "analytic"], default="auto")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_mean)

    p = sub.add_parser("fool", help="build a fooling instance and verify membership")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--n", type=int, required=True, help="bump count, a perfect d-th power")
    p.add_argument("--signs", choices=["all-plus", "alternating", "random"], default="all-plus")
    p.add_argument("--c-geom", type=float, default=1.0, dest="c_geom")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_fool)

    p = sub.add_parser("integrate", help="run one integrator for several trials")
    p.add_argument("--method", choices=[*ratelab.METHODS, "rand-quantum"], required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--eps1", type=float, required=True)
    p.add_argument("--mode", choices=["query", "bit"], default="query")
    p.add_argument("--fn", default="multiscale")
    p.add_argument("--fool-bumps", type=int, default=4, dest="fool_bumps",
                   help="bump cells per axis when --fn fool")
    p.add_argument("--p", type=float, default=0.3, help="Bernoulli parameter for rand-quantum")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("rates", help="budget sweep with a fitted convergence rate")
    p.add_argument("--method", choices=list(ratelab.METHODS), required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--budgets", required=True, help="e.g. 2^4..2^14 or 16,64,256")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--fn", default=None)
    p.add_argument("--mode", choices=["query", "bit"], default="query")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_rates)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ratelab.ConfigurationError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
