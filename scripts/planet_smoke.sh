#!/usr/bin/env bash
# Smoke-test the workload compiler: run the planet-scale tier against its
# golden under a wall-clock budget, at one core and at the default, and
# hold the compiled model to the simulated planes (≤ 0.5 hit-points on
# hitrate, fragmentation, and pressure).
# Exits non-zero on any failure.
set -euo pipefail

cd "$(dirname "$0")/.."

# The 1M-user cell (and the rest of the compiled tier) must clear well
# under the 60 s budget; the test itself asserts the wall clock, and the
# -timeout is the hard backstop. The cells fan out across cores, so the
# tier — golden comparison included — runs once on a single core and once
# with the machine's default: the numbers must not depend on which.
GOMAXPROCS=1 go test -count=1 ./internal/experiments/ -run 'TestPlanetScale' -v -timeout 60s
go test -count=1 ./internal/experiments/ -run 'TestPlanetScale|TestRunAllocBudget' -v -timeout 60s

# The compiled model must match the simulated experiments within the
# pinned tolerance (modelTolerance = 0.005 in validate_test.go). These
# sweeps simulate tens of thousands of queries, so they get a wider
# timeout — but each one compares closed-form numbers to a golden-seeded
# simulation and fails on any drift past half a hit-point.
go test ./internal/experiments/ -run 'TestModelValidation' -v -timeout 300s

echo "planet_smoke: OK"
