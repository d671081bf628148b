#!/usr/bin/env bash
# The benchmark's determinism checks.
set -eo pipefail
python3 -X dev -m pytest -q bench/test_bench.py
