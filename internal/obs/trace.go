package obs

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"dnsttl/internal/simnet"
)

// Attr is one key=value annotation on a span.
type Attr struct {
	Key string
	Val string
}

// Span is one timed step of a query's lifecycle — a cache lookup, one
// upstream exchange, a referral absorption — with the TTL decisions taken
// there recorded as annotations. Spans form a tree rooted at the client
// resolution.
//
// Every method is nil-safe: when tracing is off the resolver carries a nil
// *Span and each instrumentation point costs exactly one pointer check.
// A span tree is built by a single goroutine (a resolution is synchronous);
// after Finish it is read-only and may be shared.
type Span struct {
	Name     string
	Start    time.Time
	End      time.Time
	Attrs    []Attr
	Children []*Span

	clock simnet.Clock
}

// Child opens a sub-span. It returns nil when s is nil, so call chains stay
// safe with tracing off.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{Name: name, clock: s.clock, Start: s.clock.Now()}
	s.Children = append(s.Children, c)
	return c
}

// Annotate attaches key=val to the span.
func (s *Span) Annotate(key, val string) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Val: val})
}

// AnnotateUint attaches an integer annotation without formatting cost at
// disabled call sites.
func (s *Span) AnnotateUint(key string, v uint64) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Val: strconv.FormatUint(v, 10)})
}

// Finish stamps the span's end time.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.End = s.clock.Now()
}

// Duration is the span's elapsed time (zero before Finish).
func (s *Span) Duration() time.Duration {
	if s == nil || s.End.Before(s.Start) {
		return 0
	}
	return s.End.Sub(s.Start)
}

// Walk visits the span and every descendant depth-first.
func (s *Span) Walk(fn func(depth int, sp *Span)) {
	if s == nil {
		return
	}
	var rec func(int, *Span)
	rec = func(d int, sp *Span) {
		fn(d, sp)
		for _, c := range sp.Children {
			rec(d+1, c)
		}
	}
	rec(0, s)
}

// String renders the span tree in the spirit of `dig +trace`: one line per
// step, indented by depth, with duration and annotations.
func (s *Span) String() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	s.Walk(func(depth int, sp *Span) {
		fmt.Fprintf(&b, "%s%-*s %8s", strings.Repeat("  ", depth),
			36-2*depth, sp.Name, formatDur(sp.Duration()))
		for _, a := range sp.Attrs {
			fmt.Fprintf(&b, "  %s=%s", a.Key, a.Val)
		}
		b.WriteByte('\n')
	})
	return b.String()
}

func formatDur(d time.Duration) string {
	switch {
	case d <= 0:
		return "-"
	case d < time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.Round(100 * time.Microsecond).String()
	}
}

// tracerKeep bounds how many finished traces a Tracer retains.
const tracerKeep = 128

// Tracer hands out root spans and retains the most recent finished trace
// per root name, so /trace?name=... can show why the last resolution of a
// name took the path it did. A nil *Tracer is a valid no-op.
type Tracer struct {
	clock simnet.Clock

	mu     sync.Mutex
	recent map[string]*Span
	order  []string // FIFO of keys for eviction
}

// NewTracer builds a tracer on the given clock (nil means wall clock).
func NewTracer(clock simnet.Clock) *Tracer {
	if clock == nil {
		clock = simnet.WallClock{}
	}
	return &Tracer{clock: clock, recent: make(map[string]*Span)}
}

// Start opens a root span. It returns nil when t is nil.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{Name: name, clock: t.clock, Start: t.clock.Now()}
}

// Keep finishes root (if it is not yet finished) and retains it as the
// latest trace under its name, evicting the oldest retained trace beyond
// the retention bound.
func (t *Tracer) Keep(root *Span) {
	if t == nil || root == nil {
		return
	}
	if root.End.IsZero() {
		root.Finish()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, seen := t.recent[root.Name]; !seen {
		t.order = append(t.order, root.Name)
		for len(t.order) > tracerKeep {
			delete(t.recent, t.order[0])
			t.order = t.order[1:]
		}
	}
	t.recent[root.Name] = root
}

// Find returns the latest trace whose root name matches q exactly, or —
// failing that — the first retained name containing q. ok is false when
// nothing matches.
func (t *Tracer) Find(q string) (*Span, bool) {
	if t == nil {
		return nil, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if sp, ok := t.recent[q]; ok {
		return sp, true
	}
	for i := len(t.order) - 1; i >= 0; i-- {
		if strings.Contains(t.order[i], q) {
			return t.recent[t.order[i]], true
		}
	}
	return nil, false
}

// Names lists the retained trace names, oldest first.
func (t *Tracer) Names() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.order...)
}
