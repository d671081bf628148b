#!/usr/bin/env bash
# The installed console script runs; tests/test_golden.py pins every command's bytes in-process.
# Needs `qintlab` on PATH and a scratch directory in RUNNER_TEMP.
set -eo pipefail
: "${RUNNER_TEMP:?set RUNNER_TEMP to a scratch directory}"
qintlab rates --method quantum --d 1 --budgets 2^5..2^8 --trials 4 --seed 1
qintlab integrate --method coin --d 2 --eps1 0.1 --trials 2
# At k = 1 integrate runs rates' default member, quadratic.
qintlab integrate --method det --d 1 --k 1 --eps1 0.1 --trials 2
# The four row-exclusion lines do not depend on Python's warning filters.
code=0
err=$(PYTHONWARNINGS=error qintlab rates --method quantum --d 1 --budgets 16,32,64,128 --trials 1 --fn const-half 2>&1 >/dev/null) || code=$?
test "$code" -eq 2
test "$(printf '%s\n' "$err" | grep -c '^warning: ')" -eq 4
# A refused run leaves no report behind.
code=0
qintlab integrate --method coin --d 1 --eps1 1e-5 --out "$RUNNER_TEMP/x.csv" || code=$?
test "$code" -eq 2
test ! -e "$RUNNER_TEMP/x.csv"
