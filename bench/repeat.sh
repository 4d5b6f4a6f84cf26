#!/usr/bin/env bash
# Runs the full set three times (every workload, untraced then traced) and
# prints, per end-to-end metric, the spread (max-min)/median of the three
# values against the metric's bound in BENCHMARK.json; exits non-zero if
# any spread exceeds its bound. Extra arguments are passed through
# (e.g. -seed 7 -seconds 15).
set -euo pipefail
exec bash "$(dirname "${BASH_SOURCE[0]}")/run.sh" -all -repeat 3 "$@"
