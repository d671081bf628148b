#!/usr/bin/env bash
# Every workload for two seconds; each run's last line must report no failed
# operation and a correct result.  The traced run patches qintlab's functions
# by name, so both modes are run.  Writes each run's output to RUNNER_TEMP.
set -eo pipefail
: "${RUNNER_TEMP:?set RUNNER_TEMP to a scratch directory}"
for trace in 0 1; do
  python3 bench/run.py --workload all --seconds 2 --trace "$trace" > "$RUNNER_TEMP/bench-smoke.txt"
  cat "$RUNNER_TEMP/bench-smoke.txt"
  tail -n 1 "$RUNNER_TEMP/bench-smoke.txt" | python3 -c 'import json, sys; r = json.load(sys.stdin); sys.exit(0 if r["failed"] == 0 and r["correct"] else "a benchmark operation failed")'
done
