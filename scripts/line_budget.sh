#!/usr/bin/env bash
# line_budget.sh — hold the root module's non-test Go under a ceiling.
#
# ROADMAP aim 2 counts lines with one command, the one every CHANGES.md
# row quotes; this prints that count and fails above the ceiling recorded
# here. A PR that needs more lines raises the number in its own diff,
# where a reviewer sees it; one that removes lines lowers it.
set -euo pipefail
cd "$(dirname "$0")/.."

ceiling=25987

lines=$(find . -name '*.go' -not -path './bench/*' -not -name '*_test.go' | xargs cat | wc -l)
echo "line_budget: $lines non-test Go lines in the root module (ceiling $ceiling)"
if [ "$lines" -gt "$ceiling" ]; then
	echo "line_budget: over by $((lines - ceiling)); remove code or raise the ceiling in scripts/line_budget.sh" >&2
	exit 1
fi
