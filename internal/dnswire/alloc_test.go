package dnswire

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"
)

// These tests pin the codec's allocation budgets so hot-path regressions
// fail loudly instead of silently eroding throughput. Thresholds carry a
// little slack because sync.Pool interaction with GC can surface the odd
// fractional allocation per run.

// TestAppendEncodeAllocFree: encoding into a buffer of sufficient capacity
// must not allocate.
func TestAppendEncodeAllocFree(t *testing.T) {
	m := benchMessage()
	buf := make([]byte, 0, 1024)
	allocs := testing.AllocsPerRun(200, func() {
		out, err := AppendEncode(buf[:0], m)
		if err != nil {
			t.Fatal(err)
		}
		buf = out[:0]
	})
	if allocs >= 0.5 {
		t.Errorf("AppendEncode into sized buffer: %.2f allocs/op, want 0", allocs)
	}
}

// TestEncodeAllocBudget: the convenience Encode pays exactly one allocation
// — the output buffer.
func TestEncodeAllocBudget(t *testing.T) {
	m := benchMessage()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := Encode(m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1.5 {
		t.Errorf("Encode: %.2f allocs/op, want <= 1", allocs)
	}
}

// TestDecoderReuseAllocFree: a warm Decoder refilling a reused Message must
// not allocate — every name and boxed RData value is already interned and
// the section slices have capacity.
func TestDecoderReuseAllocFree(t *testing.T) {
	wire, err := Encode(benchMessage())
	if err != nil {
		t.Fatal(err)
	}
	d := NewDecoder()
	var m Message
	// Warm the intern tables and section slices.
	for i := 0; i < 3; i++ {
		if err := d.Decode(wire, &m); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := d.Decode(wire, &m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 0.5 {
		t.Errorf("warm Decoder.Decode: %.2f allocs/op, want 0", allocs)
	}
}

// lentNames is a NameSource over a set of held names.
type lentNames map[string]Name

func (s lentNames) LendName(spelling []byte) (Name, bool) {
	n, ok := s[string(spelling)]
	return n, ok
}

// TestDecoderLentNamesAllocFree: a never-seen name its source holds costs the
// decode nothing — the lent string itself comes back — while one spelled in
// upper case, which NewName would rewrite, is spelled anew.
func TestDecoderLentNamesAllocFree(t *testing.T) {
	const runs = 200
	held := lentNames{}
	wires := make([][]byte, runs+2) // one to size the message, AllocsPerRun's warm-up, then runs
	for i := range wires {
		name := NewName(fmt.Sprintf("h%04d.example.org", i))
		held[string(name)] = name
		wire, err := Encode(NewQuery(uint16(i), name, TypeA))
		if err != nil {
			t.Fatal(err)
		}
		wires[i] = wire
	}
	d := NewDecoder()
	d.Names = held
	var m Message
	if err := d.Decode(wires[0], &m); err != nil { // sizes the question slice
		t.Fatal(err)
	}
	if n := m.Q().Name; unsafe.StringData(string(n)) != unsafe.StringData(string(held[string(n)])) {
		t.Errorf("decoded %q is a copy, not the lent string", n)
	}
	next := 1
	allocs := testing.AllocsPerRun(runs, func() {
		if err := d.Decode(wires[next], &m); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs != 0 {
		t.Errorf("decoding a lent name: %.2f allocs/op, want 0", allocs)
	}

	upper := bytes.Clone(wires[0])
	copy(upper[12:], "\x05H0000")
	if err := d.Decode(upper, &m); err != nil || m.Q().Name != NewName("h0000.example.org") {
		t.Fatalf("upper-case spelling decoded to %q, %v", m.Q().Name, err)
	}
	if unsafe.StringData(string(m.Q().Name)) == unsafe.StringData(string(held["h0000.example.org."])) {
		t.Errorf("an upper-case spelling took the lent name")
	}
}
