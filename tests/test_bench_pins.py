"""The benchmark's tracer and operation timer find every name they patch.

``bench/tracing.py`` and ``bench/workloads.py`` rebind qintlab functions by
name.  Deleting or renaming one breaks the traced benchmark, which this
suite does not otherwise run.  The check runs in a fresh interpreter:
``tracing.instrumented`` installs its wrappers before it enters its
``try``, so a missing name would leave the earlier wrappers in place for
the rest of the process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing, workloads
from qintlab import amp_est, cli, grover, holder, integrators, qsim, quadrature, ratelab

def bindings():
    found = {(m.__name__, name): value
             for m in (amp_est, cli, grover, holder, integrators, qsim, quadrature, ratelab)
             for name, value in vars(m).items()}
    found[("PiecewiseInterpolant", "evaluate")] = quadrature.PiecewiseInterpolant.evaluate
    return found

before = bindings()
with tracing.instrumented(tracing.Tracer(lambda: None)), workloads.OpLog().integrations():
    during = bindings()
after = bindings()
print(json.dumps({
    "patched": sorted(".".join(k) for k, v in during.items() if before.get(k) is not v),
    "unrestored": sorted(".".join(k) for k in before.keys() | after.keys()
                         if before.get(k) is not after.get(k)),
}))
"""


def test_bench_patches_existing_names_and_restores_them():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, os.path.join(ROOT, "bench"), os.path.join(ROOT, "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert "qintlab.qsim.apply_local_unitary" in result["patched"]
    assert "qintlab.ratelab.integrate_quantum" in result["patched"]
    assert result["unrestored"] == []
