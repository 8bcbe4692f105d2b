#!/usr/bin/env bash
# Smoke-test the workload compiler: run the planet-scale tier against its
# golden under a wall-clock budget, at one core and at the default, hold
# its allocation budget, and hold the engine to the simulated hitrate,
# fragmentation and pressure planes within each regime's measured ceiling.
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

# Every simulated cell is lowered to a compile.Spec and run through
# compile.CompileAndRun — the engine the tier above runs — and must land
# within the ceiling of its regime (ModelRow.ceiling in validate.go: 0.5
# hit-points steady and unpressured, 1.0 in cold start, 6.0 / 6.5 for lru /
# slru under a binding byte bound). The sweeps simulate hours of queries,
# so they get a wider timeout.
go test ./internal/experiments/ -run 'TestModelValidation' -v -timeout 120s

echo "planet_smoke: OK"
