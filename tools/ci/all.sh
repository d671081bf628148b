#!/usr/bin/env bash
# Every step of .github/workflows/tests.yml after the install, in order, with
# no network.  Run from anywhere:
#
#     bash tools/ci/all.sh
#
# Without an installed `qintlab`, a shim on PATH runs `python -m qintlab.cli`
# from src/.  Without RUNNER_TEMP, a temporary directory stands in for it.
set -eo pipefail
cd "$(dirname "$0")/../.."
if [ -z "${RUNNER_TEMP:-}" ]; then
  RUNNER_TEMP=$(mktemp -d)
  trap 'rm -rf "$RUNNER_TEMP"' EXIT
fi
export RUNNER_TEMP
if ! command -v qintlab >/dev/null; then
  mkdir -p "$RUNNER_TEMP/bin"
  printf '#!/bin/sh\nexec python -m qintlab.cli "$@"\n' > "$RUNNER_TEMP/bin/qintlab"
  chmod +x "$RUNNER_TEMP/bin/qintlab"
  export PATH="$RUNNER_TEMP/bin:$PATH"
  export PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"
fi
for step in console_script tier1 seed_audit bench_tests bench_smoke; do
  echo "== tools/ci/$step.sh"
  bash "tools/ci/$step.sh"
done
echo "== all steps passed"
