"""The benchmark's tracer and operation timer find every name they patch.

``bench/tracing.py`` and ``bench/workloads.py`` rebind qintlab functions by
name.  Deleting or renaming one breaks the traced benchmark, which this
suite does not otherwise run.  A module that imports a traced function
under a name the bench does not patch keeps calling the original, so its
calls go untimed.  The check runs in a fresh interpreter:
``tracing.instrumented`` installs its wrappers before it enters its
``try``, so a missing name would leave the earlier wrappers in place for
the rest of the process.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing, workloads
from qintlab import quadrature

def bindings():
    found = {(name, attr): value
             for name, module in list(sys.modules.items())
             if name == "qintlab" or name.startswith("qintlab.")
             for attr, value in vars(module).items()}
    found[("PiecewiseInterpolant", "evaluate")] = quadrature.PiecewiseInterpolant.evaluate
    return found

before = bindings()
with tracing.instrumented(tracing.Tracer(lambda: None)), workloads.OpLog().integrations():
    during = bindings()
after = bindings()
replaced = [before[k] for k, v in during.items() if k in before and before[k] is not v]
print(json.dumps({
    "patched": sorted(".".join(k) for k, v in during.items() if before.get(k) is not v),
    "stale": sorted(".".join(k) for k, v in during.items() if any(v is r for r in replaced)),
    "unrestored": sorted(".".join(k) for k in before.keys() | after.keys()
                         if before.get(k) is not after.get(k)),
}))
"""


@functools.cache
def _bench_bindings() -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, os.path.join(ROOT, "bench"), os.path.join(ROOT, "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_bench_patches_existing_names_and_restores_them():
    result = _bench_bindings()
    assert "qintlab.qsim.apply_local_unitary" in result["patched"]
    assert "qintlab.ratelab.integrate_quantum" in result["patched"]
    assert result["unrestored"] == []


def test_no_qintlab_module_keeps_a_binding_the_bench_replaced():
    stale = _bench_bindings()["stale"]
    assert not stale, f"unwrapped while the bench is open: {', '.join(stale)}"
