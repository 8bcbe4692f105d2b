package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"dnsttl/internal/cache"
)

// validationSeeds are the seeds the regime ceilings were measured over.
var validationSeeds = []int64{42, 1, 7}

// checkCeilings holds every row to the ceiling of its regime, plus slack
// (0 for a seed mean; a single seed gets half a hit-point of sampling
// noise).
func checkCeilings(t *testing.T, v *ModelValidation, slack float64) {
	t.Helper()
	t.Logf("%s:", v.Name)
	for _, r := range v.Rows {
		t.Logf("  %-28s sim=%.4f model=%.4f Δ=%+.4f ceiling=%.3f", r.Key, r.Simulated, r.Compiled, r.Delta(), r.ceiling())
		if math.Abs(r.Delta()) > r.ceiling()+slack {
			t.Errorf("%s %s: |Δ| = %.4f, regime ceiling %.4f (cold=%v pressured=%v policy=%q)",
				v.Name, r.Key, math.Abs(r.Delta()), r.ceiling()+slack, r.cold, r.pressured, r.policy)
		}
	}
}

// TestModelValidationHitRate pins the engine against the simulated hitrate
// sweep over 3 h (21,600 queries per point): TTLs up to 1000 s are steady,
// the three longer ones cold.
func TestModelValidationHitRate(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated validation sweep")
	}
	checkCeilings(t, ValidateHitRateModel(3, 0, 42), 0)
}

// TestModelValidationFragmentation pins the topology lowering (private
// thinning vs shared/sharded concentration) against the simulated farm
// fragmentation grid over 4 h; its TTL 3600 cells are cold.
func TestModelValidationFragmentation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated validation sweep")
	}
	checkCeilings(t, ValidateFragmentationModel(4, 0, 42), 0)
}

// TestModelValidationPressure pins the engine's byte-bounded steady states
// against the simulated eviction-pressure grid over 1 h. The engine is
// deterministic; the simulated side is averaged over validationSeeds and
// the ceilings apply to the mean, and no single seed may be more than half
// a hit-point beyond its ceiling.
func TestModelValidationPressure(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated validation sweep")
	}
	var runs []*ModelValidation
	for _, seed := range validationSeeds {
		v := ValidatePressureModel(1, 0, seed)
		checkCeilings(t, v, 0.005)
		runs = append(runs, v)
	}
	mean := &ModelValidation{Name: "pressure (3-seed simulated mean)"}
	for i, row := range runs[0].Rows {
		row.Simulated = 0
		for _, v := range runs {
			r := v.Rows[i]
			if r.Key != row.Key || r.Compiled != row.Compiled {
				t.Fatalf("compiled side depends on the seed: row %d is %+v, was %+v", i, r, row)
			}
			row.Simulated += r.Simulated / float64(len(runs))
		}
		mean.Rows = append(mean.Rows, row)
	}
	checkCeilings(t, mean, 0)
}

// TestModelValidationRegimes pins the regime rule itself: it is computed
// from the cell's parameters, and each regime the ceilings name occurs on
// the grids above.
func TestModelValidationRegimes(t *testing.T) {
	row := func(policy cache.EvictionPolicy, maxKB float64, ttl uint32) ModelRow {
		spec := cellSpec(pressureQPS, pressureNames, ttl, 1, 1)
		spec.Policy, spec.MaxBytes, spec.BaseBytes = policy, maxKB*1024, 1024
		return compiledRow("", 0, spec)
	}
	for _, c := range []struct {
		name string
		row  ModelRow
		want float64
	}{
		{"steady unbounded", row(cache.EvictLRU, 0, 60), 0.005},
		{"cold unbounded", row(cache.EvictLRU, 0, 900), 0.010},
		{"fifo under a binding bound", row(cache.EvictFIFO, 32, 300), 0.005},
		{"lru, bound not binding", row(cache.EvictLRU, 4096, 60), 0.005},
		{"lru under a binding bound", row(cache.EvictLRU, 32, 300), 0.060},
		{"slru under a binding bound", row(cache.EvictSLRU, 32, 300), 0.065},
	} {
		if got := c.row.ceiling(); got != c.want {
			t.Errorf("%s: ceiling %.3f, want %.3f (%+v)", c.name, got, c.want, c.row)
		}
	}
}

// TestExperimentsReachCompileOnlyThroughTheEngine: this package may name
// the compiler's spec and result types and its one-call entry point, and
// nothing else — so whatever validate.go holds to the simulators is what
// planet.go runs, and a side-model cannot become the validated one.
func TestExperimentsReachCompileOnlyThroughTheEngine(t *testing.T) {
	allowed := map[string]bool{
		"Spec": true, "RegionShare": true, "Event": true, "Result": true, "CompileAndRun": true,
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	seen := 0
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == "compile" {
				seen++
				if !allowed[sel.Sel.Name] {
					t.Errorf("%s: compile.%s — reach the compiler through Spec and CompileAndRun",
						fset.Position(sel.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
	}
	if seen == 0 {
		t.Fatal("walk found no compile.X selector: the check is not looking at validate.go and planet.go")
	}
}
