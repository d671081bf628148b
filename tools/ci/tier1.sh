#!/usr/bin/env bash
# The Tier-1 suite, under -X dev, from src/ whether or not the package is installed.
set -eo pipefail
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -X dev -m pytest -q --continue-on-collection-errors --durations=10
