package simnet

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"dnsttl/internal/race"
)

// sourceTestSeeds covers every branch of the seed folding (0, ±1, the
// modulus and its neighbours, the stdlib's zero substitute, values past 32
// bits of either sign) plus a few hundred arbitrary ones.
func sourceTestSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, 1<<31 - 2, 1<<31 - 1, 1 << 31, -(1<<31 - 1), -(1 << 31),
		89482311, 1 << 40, -(1 << 40), 1<<40 + 12345, -(1<<40 + 12345),
		3 * (1<<31 - 1), math.MaxInt64, math.MinInt64,
	}
	r := rand.New(rand.NewSource(20191021))
	for i := 0; i < 300; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// sourceTestDraws crosses promotion at the first read of a written word
// (draw 273), the feed wrap (334) and the tap wrap (607), each twice.
const sourceTestDraws = 1300

// TestSourceMatchesStdlib is the proof that NewSource changed no stream:
// draw for draw, through both Source methods, through a mid-stream Seed, and
// through every rand.Rand method the simulation calls.
func TestSourceMatchesStdlib(t *testing.T) {
	for _, seed := range sourceTestSeeds() {
		want, got := rand.NewSource(seed).(rand.Source64), NewSource(seed)
		for n := 0; n < sourceTestDraws; n++ {
			// Alternate the two entry points: they share one stream.
			if n%3 == 2 {
				if w, g := want.Int63(), got.Int63(); w != g {
					t.Fatalf("seed %d draw %d: Int63 = %d, stdlib %d", seed, n, g, w)
				}
				continue
			}
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d draw %d: Uint64 = %d, stdlib %d", seed, n, g, w)
			}
		}
	}

	// Seed mid-stream, from the lazy state and from a built register, and
	// back to a seed already used.
	want, got := rand.NewSource(7).(rand.Source64), NewSource(7)
	for _, step := range []struct {
		seed  int64
		draws int
	}{{11, 5}, {-3, promoteAt + 40}, {0, 700}, {11, promoteAt}, {1 << 31, 3}} {
		want.Seed(step.seed)
		got.Seed(step.seed)
		for n := 0; n < step.draws; n++ {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("after Seed(%d) draw %d: Uint64 = %d, stdlib %d", step.seed, n, g, w)
			}
		}
	}

	for _, seed := range sourceTestSeeds()[:40] {
		want, got := rand.New(rand.NewSource(seed)), rand.New(NewSource(seed))
		for n := 0; n < 200; n++ {
			same(t, seed, n, "Float64", want.Float64(), got.Float64())
			same(t, seed, n, "NormFloat64", want.NormFloat64(), got.NormFloat64())
			same(t, seed, n, "ExpFloat64", want.ExpFloat64(), got.ExpFloat64())
			same(t, seed, n, "Int63n", want.Int63n(int64(n)*7919+1), got.Int63n(int64(n)*7919+1))
			same(t, seed, n, "Intn", want.Intn(n+1), got.Intn(n+1))
			same(t, seed, n, "Uint32", want.Uint32(), got.Uint32())
			if n%20 == 0 {
				same(t, seed, n, "Perm", want.Perm(13), got.Perm(13))
				a, b := want.Perm(13), got.Perm(13)
				want.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
				got.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
				same(t, seed, n, "Shuffle", a, b)
			}
		}
		want.Seed(seed + 1)
		got.Seed(seed + 1)
		same(t, seed, -1, "Float64 after Rand.Seed", want.Float64(), got.Float64())
	}
}

func same(t *testing.T, seed int64, n int, what string, want, got any) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("seed %d step %d: %s = %v, stdlib %v", seed, n, what, got, want)
	}
}

// TestNewFlowRandomStateAllocs pins what opening a flow costs: the flow with
// its generator state inside it and the rand.Rand over that state — no
// register.
func TestNewFlowRandomStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are pinned without -race")
	}
	const runs = 1000
	var sink float64
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		f := newFlow(int64(i))
		sink += f.rng.Float64() + f.rng.NormFloat64()
	}
	runtime.ReadMemStats(&m1)
	_ = sink
	objects := float64(m1.Mallocs-m0.Mallocs) / runs
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	// One object besides the flow itself (its rand.Rand), and the two
	// together well under the 5,376 B a seeded stdlib source takes.
	if objects > 2.01 || bytes >= 128 {
		t.Errorf("a flow and its first two draws allocate %.2f objects, %.0f B; want ≤ 2 (flow + rand.Rand) and < 128 B", objects, bytes)
	}
}

var benchSink float64

// BenchmarkNewSource is what the simulation pays per flow: a source and two
// draws. BenchmarkStdlibNewSource is the same through rand.NewSource.
func BenchmarkNewSource(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := rand.New(NewSource(int64(i)))
		benchSink += r.Float64() + r.Float64()
	}
}

func BenchmarkStdlibNewSource(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(int64(i)))
		benchSink += r.Float64() + r.Float64()
	}
}

// BenchmarkSourceDraw and BenchmarkSourcePromote are the two sides of the
// promoteAt break-even: a lazy draw against a register draw, and the
// one-time cost of building the register.
func BenchmarkSourceDraw(b *testing.B) {
	b.Run("lazy", func(b *testing.B) {
		s := &source{seed: 1}
		var x uint64
		for i := 0; i < b.N; i++ {
			s.n = int32(i % promoteAt)
			x += s.Uint64()
		}
		benchSink += float64(x)
	})
	b.Run("register", func(b *testing.B) {
		s := &source{seed: 1, n: promoteAt}
		var x uint64
		for i := 0; i < b.N; i++ {
			x += s.Uint64()
		}
		benchSink += float64(x)
	})
}

func BenchmarkSourcePromote(b *testing.B) {
	b.ReportAllocs()
	s := &source{seed: 1, n: promoteAt}
	for i := 0; i < b.N; i++ {
		s.reg = nil
		s.promote()
	}
	benchSink += float64(s.reg.next())
}
