"""Golden digests of ``qintlab`` commands: every byte a command writes, pinned.

Each entry of ``golden_cli.json`` is one command line run in-process through
``cli.main``.  Its stdout, its stderr and the bytes of its ``--out`` report are
pinned by SHA-256, and its exit code as is.  ``{out}`` in a command stands for
a fresh report path; in stdout that path reads ``{out}`` again.  A change
that alters a digest on purpose regenerates the table with

    PYTHONPATH=src python tests/test_golden.py --update

which rewrites ``golden_cli.json`` and prints each command whose digests moved;
list those commands, with the reason, in CHANGES.md.  Seeded floats depend on
the numpy build, so the table records the Python and numpy versions it was
generated with.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import shlex
import sys
import tempfile

import numpy as np
import pytest

from qintlab import cli

TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")

COMMANDS = [
    # rates: each method at d = 1 and 2, query and bit mode, CSV and JSON reports.
    "rates --method det --d 1 --budgets 2^3..2^6 --trials 2 --seed 1 --out {out}",
    "rates --method det --d 2 --mode bit --budgets 2^4..2^7 --trials 2 --seed 2 --out {out} --format json",
    "rates --method mc --d 1 --budgets 2^4..2^7 --trials 3 --seed 3 --out {out}",
    "rates --method mc --d 2 --mode bit --budgets 2^4..2^7 --trials 3 --seed 4",
    "rates --method mcvr --d 1 --budgets 2^4..2^7 --trials 3 --seed 5 --out {out} --format json",
    "rates --method mcvr --d 2 --k 1 --fn product --budgets 2^4..2^8 --trials 3 --seed 1 --out {out}",
    "rates --method coin --d 1 --budgets 2^4..2^7 --trials 3 --seed 6 --out {out}",
    "rates --method coin --d 2 --mode bit --budgets 2^4..2^7 --trials 2 --seed 7 --out {out} --format json",
    "rates --method quantum --d 1 --budgets 2^5..2^10 --trials 4 --seed 1 --out {out}",
    "rates --method quantum --d 1 --mode bit --budgets 2^4..2^7 --trials 3 --seed 8 --out {out} --format json",
    "rates --method quantum --d 2 --budgets 2^4..2^8 --trials 2 --seed 9 --out {out}",
    "rates --method quantum --d 2 --mode bit --budgets 2^4..2^7 --trials 2 --seed 10",
    "rates --method quantum --d 1 --budgets 16,32,64,128 --trials 1 --fn const-half",
    # integrate: every method, --fn fool, CSV and JSON, stdout and --out.
    "integrate --method det --d 1 --eps1 0.1 --trials 2",
    "integrate --method det --d 2 --k 1 --eps1 0.1 --format json --out {out}",
    "integrate --method mc --d 1 --eps1 0.1 --trials 3 --seed 2 --out {out}",
    "integrate --method mcvr --d 2 --eps1 0.1 --trials 2 --seed 3",
    "integrate --method coin --d 2 --eps1 0.1 --trials 2 --seed 4",
    "integrate --method quantum --d 1 --eps1 0.03125 --fn multiscale --trials 3 --seed 1 --format json",
    "integrate --method quantum --d 2 --mode bit --eps1 0.1 --trials 2 --seed 5 --out {out}",
    "integrate --method rand-quantum --d 1 --eps1 0.2 --trials 2",
    "integrate --method rand-quantum --d 1 --eps1 0.3 --p 0.7 --trials 3 --seed 6 --format json --out {out}",
    "integrate --method coin --d 1 --fn fool --eps1 0.1 --trials 2 --seed 7",
    "integrate --method quantum --d 2 --fn fool --fool-bumps 3 --eps1 0.1 --trials 2 --seed 8",
    # mean, grover and fool.
    "mean --n 64 --eps 0.05 --trials 200 --seed 1",
    "mean --n 1000 --dist alternating --eps 0.01 --trials 500 --seed 3 --mode analytic",
    "mean --n 16 --dist const --eps 0.1 --mode exact --trials 50 --seed 2",
    # 20000 draws from one outcome law, and the simulated law at M = 1024 (n_padded * M = 2^20).
    "mean --n 1000 --eps 0.001 --trials 20000 --seed 3 --mode analytic",
    "mean --n 1000 --eps 0.005 --mode exact --trials 2000 --seed 3",
    "grover --m 4 --marked 7 --shots 2000 --seed 1",
    "grover --m 3 --marked 2 --k 1 --shots 100 --seed 2",
    "fool --d 2 --n 16 --signs alternating --seed 1",
    "fool --d 1 --k 1 --alpha 0.5 --n 8 --signs random --seed 2",
    # Sizes past a bound exit 2 and name the count.
    "integrate --method coin --d 1 --eps1 1e-5",
    "integrate --method rand-quantum --d 1 --eps1 1e-5",
    "integrate --method quantum --d 1 --eps1 1e-9",
    "integrate --method det --d 2 --alpha 0.3 --eps1 0.015625",
    "integrate --method quantum --d 1 --eps1 0.45 --alpha 0.002",
    "mean --n 10000000000000 --eps 0.1",
    "mean --n 1048576 --eps 1e-4 --mode exact",
    "grover --m 30 --marked 0",
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_command(command: str, workdir: str) -> dict:
    """Run one table command through ``cli.main``; its exit code and output digests."""
    out = os.path.join(workdir, "report")
    argv = [arg.replace("{out}", out) for arg in shlex.split(command)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    report = b""
    if os.path.exists(out):
        with open(out, "rb") as handle:
            report = handle.read()
        os.remove(out)
    return {
        "code": code,
        "stdout": _sha(stdout.getvalue().replace(out, "{out}").encode()),
        "stderr": _sha(stderr.getvalue().replace(out, "{out}").encode()),
        "out": _sha(report),
    }


def _versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def _load() -> dict:
    with open(TABLE) as handle:
        return json.load(handle)


def test_table_lists_every_command():
    assert [entry["command"] for entry in _load()["commands"]] == COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_command_output_matches_its_golden_digests(command, tmp_path):
    table = _load()
    pinned = {entry["command"]: entry for entry in table["commands"]}[command]
    # The second run shows that no command's bytes depend on an earlier call in the process.
    for run in ("first", "second"):
        got = run_command(command, str(tmp_path))
        moved = [key for key in ("code", "stdout", "stderr", "out") if got[key] != pinned[key]]
        assert not moved, (
            f"{', '.join(moved)} of the {run} in-process run of `qintlab {command}` moved from the table "
            f"generated with Python {table['python']}, numpy {table['numpy']} (running Python "
            f"{_versions()['python']}, numpy {_versions()['numpy']})"
        )


def _update() -> None:
    former = {entry["command"]: entry for entry in _load()["commands"]} if os.path.exists(TABLE) else {}
    entries = []
    with tempfile.TemporaryDirectory() as workdir:
        for command in COMMANDS:
            entries.append({"command": command, **run_command(command, workdir)})
            if former.get(command) != entries[-1]:
                print(f"changed: qintlab {command}")
    with open(TABLE, "w") as handle:
        handle.write(json.dumps({**_versions(), "commands": entries}, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden.py --update")
    _update()
