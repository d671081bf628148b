#!/usr/bin/env bash
# The table of C05's slopes over seeds must match the committed one byte for byte.
# Writes the fresh table to RUNNER_TEMP.
set -eo pipefail
: "${RUNNER_TEMP:?set RUNNER_TEMP to a scratch directory}"
python tools/seed_audit.py > "$RUNNER_TEMP/c05_seed_audit.md"
diff -u tools/c05_seed_audit.md "$RUNNER_TEMP/c05_seed_audit.md"
