"""Span tracing of qintlab's modules from outside the package.

For the duration of a traced pass, :func:`instrumented` replaces the public
functions of each module with wrappers that record a span (name, start, end,
parent span, operation id) and a few counts.  Modules that import a function
by name hold their own binding, so the wrapper is installed in the defining
module and in every importing module.  Nothing under ``src/`` is edited; the
original bindings come back when the context exits.

:func:`layer_metrics` turns the spans of one pass into per-module calls,
total time and self time (a span minus its child spans), plus the per-layer
figures the benchmark reports.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

MODULES = ("cli", "ratelab", "integrators", "quadrature", "holder", "amp_est", "grover", "qsim")

INTEGRATE = ("integrate_quantum", "integrate_deterministic", "integrate_mc", "integrate_coin")

# Span names whose summed duration ("<name>.s") and call count ("<name>.calls")
# are reported.
TIMED = (
    "holder.eval", "holder.suite_member",
    "quadrature.evaluate", "quadrature.interpolate", "quadrature.midpoint_rule", "quadrature.probe_sup",
    *(f"integrators.{name}" for name in INTEGRATE),
    "amp_est.exact_outcome_distribution", "amp_est.estimate_mean.exact", "amp_est.estimate_mean.analytic",
    "amp_est.estimate_mean_from_amplitude",
    "qsim.apply_local_unitary", "qsim.walsh_hadamard_all", "grover.grover_state",
    "ratelab.fit_rate", "ratelab.export", "ratelab.load_report",
)
CALLED = (
    *(f"integrators.{name}" for name in INTEGRATE),
    "amp_est.exact_outcome_distribution", "qsim.apply_local_unitary", "grover.grover_state",
)
COUNTED = (
    "holder.eval.points", "quadrature.evaluate.points", "quadrature.interpolate.nodes",
    "quadrature.midpoint_rule.cells", "amp_est.register_amps", "amp_est.queries",
    "ratelab.rows", "ratelab.trials",
)


class Tracer:
    """In-memory span recorder for one single-threaded pass.

    A span is ``[name, start, end, parent index, operation id]``; parent -1
    marks a top-level span.  ``current_op`` returns the id of the operation
    running now, or None between operations.
    """

    def __init__(self, current_op):
        self.current_op = current_op
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn, after=None):
        """``fn`` recorded as span ``name``; ``after(span, args, result)`` counts."""

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.current_op()]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(span, args, result)
            return result

        return traced


@contextmanager
def instrumented(tracer: Tracer):
    """Route every traced qintlab entry point through ``tracer`` while open.

    ``ratelab``'s own bindings of the ``integrate_*`` functions are left to
    the benchmark's operation timer, which calls through ``integrators`` and
    so reaches the wrappers installed here.
    """
    from qintlab import amp_est, cli, grover, holder, integrators, qsim, quadrature, ratelab

    originals: list[tuple[object, str, object]] = []

    def span(home, attr: str, importers=(), after=None, name=None) -> None:
        wrapped = tracer.wrap(name or f"{home.__name__.rsplit('.', 1)[-1]}.{attr}",
                              getattr(home, attr), after)
        for owner in (home, *importers):
            originals.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapped)

    def traced_member(_span, _args, member):
        member.evaluator = tracer.wrap(
            "holder.eval", member.evaluator, lambda _s, a, _r: tracer.add("holder.eval.points", len(a[0]))
        )

    def count_rows(_span, _args, report):
        tracer.add("ratelab.rows", len(report.rows))
        tracer.add("ratelab.trials", sum(len(row.trials) for row in report.rows))

    def mean_mode(span_, _args, est):
        span_[0] = f"amp_est.estimate_mean.{est.mode}"
        tracer.add("amp_est.queries", est.queries_used)

    span(cli, "main")
    for attr in ("run_convergence", "fit_rate", "export"):
        span(ratelab, attr)
    span(ratelab, "load_report", after=count_rows)
    for attr in INTEGRATE:
        span(integrators, attr)
    span(quadrature, "interpolate", (integrators,),
         lambda _s, _a, p: tracer.add("quadrature.interpolate.nodes", p.n_points))
    span(quadrature, "midpoint_rule", (integrators,),
         lambda _s, a, _r: tracer.add("quadrature.midpoint_rule.cells", a[1] ** a[0].spec.d))
    span(quadrature, "probe_sup", (integrators,))
    span(quadrature, "residual", (integrators,))
    span(quadrature.PiecewiseInterpolant, "evaluate", name="quadrature.evaluate",
         after=lambda _s, a, _r: tracer.add("quadrature.evaluate.points", len(a[1])))
    span(holder, "suite_member", after=traced_member)
    span(amp_est, "exact_outcome_distribution",
         after=lambda _s, a, _r: tracer.add("amp_est.register_amps", a[1] * 2 * a[0].n_padded))
    span(amp_est, "estimate_mean", (integrators,), after=mean_mode)
    span(amp_est, "estimate_mean_from_amplitude", (integrators,),
         after=lambda _s, _a, est: tracer.add("amp_est.queries", est.queries_used))
    span(grover, "grover_state")
    span(qsim, "apply_local_unitary")
    span(qsim, "walsh_hadamard_all", (grover,))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, pass_seconds: float) -> dict[str, float]:
    """Per-module and per-function figures of one traced pass.

    ``<module>.total_s`` sums the module's outermost spans, so recursion
    through the same module is not counted twice; ``<module>.self_s`` sums
    each span minus its children.  ``trace.unattributed_s`` is the pass time
    spent outside every span, in the benchmark's own loop.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for _name, start, end, parent, _op in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for module in MODULES:
        out.update({f"{module}.calls": 0, f"{module}.total_s": 0.0, f"{module}.self_s": 0.0})
    by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    run_convergence_self = 0.0
    top_level = 0.0
    for i, (name, start, end, parent, _op) in enumerate(spans):
        module = name.split(".", 1)[0]
        duration = end - start
        out[f"{module}.calls"] += 1
        out[f"{module}.self_s"] += duration - child[i]
        if parent < 0 or spans[parent][0].split(".", 1)[0] != module:
            out[f"{module}.total_s"] += duration
        if parent < 0:
            top_level += duration
        if name == "ratelab.run_convergence":
            run_convergence_self += duration - child[i]
        by_name[name] = by_name.get(name, 0.0) + duration
        calls[name] = calls.get(name, 0) + 1
    out.update({f"{name}.s": by_name.get(name, 0.0) for name in TIMED})
    out.update({f"{name}.calls": calls.get(name, 0) for name in CALLED})
    out.update({key: tracer.counts.get(key, 0) for key in COUNTED})
    out["ratelab.run_convergence.self_s"] = run_convergence_self
    out["trace.unattributed_s"] = pass_seconds - top_level
    return out
