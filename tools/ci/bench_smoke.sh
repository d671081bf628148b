#!/usr/bin/env bash
# Every workload for two seconds; each run's last line must report no failed
# operation and a correct result.  The traced run patches qintlab's functions
# by name, so both modes are run.
set -eo pipefail
for trace in 0 1; do
  python3 bench/run.py --workload all --seconds 2 --trace "$trace" > bench-smoke.txt
  cat bench-smoke.txt
  tail -n 1 bench-smoke.txt | python3 -c 'import json, sys; r = json.load(sys.stdin); sys.exit(0 if r["failed"] == 0 and r["correct"] else "a benchmark operation failed")'
done
