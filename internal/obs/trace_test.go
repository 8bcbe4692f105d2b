package obs

import (
	"strings"
	"testing"
	"time"

	"dnsttl/internal/simnet"
)

func TestSpanTree(t *testing.T) {
	clock := simnet.NewVirtualClock()
	tr := NewTracer(clock)
	root := tr.Start("resolve www.example.org. A")
	c := root.Child("cache lookup")
	c.Annotate("outcome", "miss")
	c.Finish()
	step := root.Child("step 1")
	step.Annotate("zone", ".")
	ex := step.Child("exchange")
	ex.Annotate("server", "198.41.0.4")
	clock.Advance(10 * time.Millisecond)
	ex.AnnotateUint("rtt_us", 10000)
	ex.Finish()
	step.Finish()
	tr.Keep(root)

	if root.Duration() != 10*time.Millisecond {
		t.Fatalf("root duration = %v, want 10ms", root.Duration())
	}

	out := root.String()
	for _, want := range []string{"resolve www.example.org. A", "cache lookup", "outcome=miss",
		"exchange", "server=198.41.0.4", "rtt_us=10000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered trace missing %q:\n%s", want, out)
		}
	}

	spans := 0
	root.Walk(func(depth int, sp *Span) {
		spans++
		if depth > 2 {
			t.Fatalf("unexpected depth %d for %s", depth, sp.Name)
		}
	})
	if spans != 4 {
		t.Fatalf("walked %d spans, want 4", spans)
	}
}

func TestTracerFindAndEvict(t *testing.T) {
	tr := NewTracer(simnet.NewVirtualClock())
	for i := 0; i < tracerKeep+10; i++ {
		root := tr.Start("resolve q" + strings.Repeat("x", i%3) + string(rune('a'+i%26)))
		tr.Keep(root)
	}
	if n := len(tr.Names()); n > tracerKeep {
		t.Fatalf("retained %d traces, want ≤ %d", n, tracerKeep)
	}
	root := tr.Start("resolve www.cachetest.net. A")
	tr.Keep(root)
	if _, ok := tr.Find("resolve www.cachetest.net. A"); !ok {
		t.Fatal("exact lookup failed")
	}
	if sp, ok := tr.Find("cachetest"); !ok || sp != root {
		t.Fatal("substring lookup failed")
	}
	if _, ok := tr.Find("nonexistent.example"); ok {
		t.Fatal("lookup of unknown name should fail")
	}
	// Keeping the same name twice replaces, not duplicates.
	again := tr.Start("resolve www.cachetest.net. A")
	tr.Keep(again)
	if sp, _ := tr.Find("resolve www.cachetest.net. A"); sp != again {
		t.Fatal("re-Keep did not replace the retained trace")
	}
}

// TestNilSpanCallsAllocFree pins the disabled-tracing cost: every span
// method on a nil receiver must be zero-alloc (one pointer check).
func TestNilSpanCallsAllocFree(t *testing.T) {
	var sp *Span
	var tr *Tracer
	allocs := testing.AllocsPerRun(200, func() {
		c := sp.Child("cache lookup")
		c.Annotate("outcome", "hit")
		c.AnnotateUint("remaining_ttl", 300)
		c.Finish()
		_ = c.Duration()
		tr.Keep(sp)
		_ = tr.Start("")
	})
	if allocs >= 0.5 {
		t.Errorf("nil span/tracer calls: %.2f allocs/op, want 0", allocs)
	}
	if sp.String() != "" {
		t.Fatal("nil span readers must return zero values")
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	if sp := tr.Start("x"); sp != nil {
		t.Fatal("nil tracer must hand out nil spans")
	}
	if _, ok := tr.Find("x"); ok {
		t.Fatal("nil tracer Find must miss")
	}
	if tr.Names() != nil {
		t.Fatal("nil tracer Names must be nil")
	}
}
