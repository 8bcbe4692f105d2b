package qlog

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/obs"
)

func testRecord(i int) Record {
	return Record{
		Time:      int64(1700000000_000000000 + i*1000),
		LatencyUS: int64(i % 5000),
		Client:    netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}),
		Name:      dnswire.NewName(fmt.Sprintf("q%d.example.test", i%17)),
		Type:      dnswire.TypeA,
		Point:     Point(i % 3),
		Outcome:   Outcome(i % 7),
		RCode:     dnswire.RCode(i % 4),
		TTL:       uint32(i % 3600),
		Transport: []string{"udp", "tcp", "dot", "doh"}[i%4],
	}
}

// TestRoundTrip pins that both encodings reproduce records exactly.
func TestRoundTrip(t *testing.T) {
	for _, format := range []Format{FormatJSONL, FormatBinary} {
		t.Run(format.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "q.log")
			l, err := New(Config{Path: path, Format: format})
			if err != nil {
				t.Fatal(err)
			}
			const n = 500
			want := make([]Record, n)
			for i := 0; i < n; i++ {
				want[i] = testRecord(i)
				l.Emit(&want[i])
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			got, errs, err := ReadAll(path)
			if err != nil {
				t.Fatal(err)
			}
			if errs != 0 {
				t.Fatalf("decode errors: %d", errs)
			}
			if len(got) != n {
				t.Fatalf("read %d records, want %d", len(got), n)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
				}
			}
			st := l.Stats()
			if st.Records != n || st.Dropped != 0 || st.SampledOut != 0 {
				t.Fatalf("stats: %+v", st)
			}
		})
	}
}

// TestRotation pins the size-based rotation invariants: the set is bounded
// by MaxFiles, every file decodes cleanly (binary files re-carry the
// magic), and RotatedSet returns chronological order.
func TestRotation(t *testing.T) {
	for _, format := range []Format{FormatJSONL, FormatBinary} {
		t.Run(format.String(), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "q.log")
			l, err := New(Config{Path: path, Format: format, MaxBytes: 4096, MaxFiles: 3})
			if err != nil {
				t.Fatal(err)
			}
			const n = 2000
			for i := 0; i < n; i++ {
				rec := testRecord(i)
				l.Emit(&rec)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if l.Stats().Rotations == 0 {
				t.Fatal("expected at least one rotation")
			}
			files, err := RotatedSet(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(files) > 3 {
				t.Fatalf("rotated set %v exceeds MaxFiles", files)
			}
			recs, errs, err := ReadAll(files...)
			if err != nil {
				t.Fatal(err)
			}
			if errs != 0 {
				t.Fatalf("decode errors across rotated set: %d", errs)
			}
			if len(recs) == 0 || len(recs) >= n {
				// Rotation must have discarded the oldest files but kept a
				// contiguous, decodable tail.
				t.Fatalf("read %d records, want (0, %d)", len(recs), n)
			}
			// Chronological order across the file boundary.
			for i := 1; i < len(recs); i++ {
				if recs[i].Time < recs[i-1].Time {
					t.Fatalf("records out of order at %d", i)
				}
			}
			// No file beyond the bound lingers.
			if _, err := os.Stat(path + ".3"); err == nil {
				t.Fatal("file beyond MaxFiles was not removed")
			}
		})
	}
}

// TestSampling pins 1-in-N and per-client sampling accounting.
func TestSampling(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.log")
	reg := obs.NewRegistry(nil)
	l, err := New(Config{Path: path, SampleN: 10, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	perPoint := map[Point]uint64{}
	for i := 0; i < n; i++ {
		rec := testRecord(i)
		perPoint[rec.Point]++
		l.Emit(&rec)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// 1 in 10 of each capture point's records: 334, 333 and 333 records
	// keep 33 each.
	var want uint64
	for _, c := range perPoint {
		want += c / 10
	}
	st := l.Stats()
	if st.Records != want {
		t.Fatalf("kept %d records, want %d", st.Records, want)
	}
	if st.SampledOut != n-want {
		t.Fatalf("sampled out %d, want %d", st.SampledOut, n-want)
	}
	snap := reg.Snapshot()
	if snap.Counters[MetricRecords] != st.Records || snap.Counters[MetricSampledOut] != st.SampledOut {
		t.Fatalf("registry mirror disagrees: %+v vs %+v", snap.Counters, st)
	}

	// Per-client sampling keeps complete streams for selected clients.
	path2 := filepath.Join(t.TempDir(), "q2.log")
	l2, err := New(Config{Path: path2, PerClientMod: 4})
	if err != nil {
		t.Fatal(err)
	}
	kept := map[netip.Addr]int{}
	for i := 0; i < n; i++ {
		rec := testRecord(i)
		rec.Client = netip.AddrFrom4([4]byte{192, 0, 2, byte(i % 16)})
		l2.Emit(&rec)
		if clientHash(rec.Client)%4 == 0 {
			kept[rec.Client]++
		}
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := ReadAll(path2)
	if err != nil {
		t.Fatal(err)
	}
	got := map[netip.Addr]int{}
	for _, r := range recs {
		got[r.Client]++
	}
	if len(got) == 0 || len(got) >= 16 {
		t.Fatalf("per-client sampling kept %d of 16 clients", len(got))
	}
	for a, n := range kept {
		if got[a] != n {
			t.Fatalf("client %s: kept %d records, want the complete stream of %d", a, got[a], n)
		}
	}
}

// TestSamplingPerPoint: 1-in-N sampling keeps the same share of every
// capture point, however the points interleave. A hit-only stream
// alternates client-in and response-out records; one counter shared by
// both points would keep every response and no query.
func TestSamplingPerPoint(t *testing.T) {
	l, err := New(Config{Path: filepath.Join(t.TempDir(), "q.log"), SampleN: 2})
	if err != nil {
		t.Fatal(err)
	}
	const queries = 100
	for i := 0; i < queries; i++ {
		for _, p := range []Point{PointClientIn, PointResponseOut} {
			rec := testRecord(i)
			rec.Point = p
			l.Emit(&rec)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := ReadAll(l.cfg.Path)
	if err != nil {
		t.Fatal(err)
	}
	kept := map[Point]int{}
	for _, r := range recs {
		kept[r.Point]++
	}
	for _, p := range []Point{PointClientIn, PointResponseOut} {
		if kept[p] != queries/2 {
			t.Errorf("%s: kept %d of %d records, want %d", p, kept[p], queries, queries/2)
		}
	}
}

// TestPointMask pins that masked-out capture points are not retained.
func TestPointMask(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.log")
	l, err := New(Config{Path: path, Points: MaskResponseOut | MaskUpstream})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		rec := testRecord(i) // cycles through all three points
		l.Emit(&rec)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 200 {
		t.Fatalf("kept %d records, want 200", len(recs))
	}
	for _, r := range recs {
		if r.Point == PointClientIn {
			t.Fatal("client-in record retained despite mask")
		}
	}
}

// TestDropAccounting pins that a full ring drops (and counts) rather than
// blocking the producer.
func TestDropAccounting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.log")
	l, err := New(Config{Path: path, RingSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Stall the consumer by closing its wake channel path indirectly: just
	// hammer far faster than one consumer can drain a 16-slot ring.
	const n = 100000
	for i := 0; i < n; i++ {
		rec := testRecord(i)
		l.Emit(&rec)
	}
	st := l.Stats()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st = l.Stats()
	if st.Records+st.Dropped != n {
		t.Fatalf("records %d + dropped %d != %d", st.Records, st.Dropped, n)
	}
	recs, errs, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if errs != 0 {
		t.Fatalf("decode errors: %d", errs)
	}
	if uint64(len(recs)) != st.Records {
		t.Fatalf("file holds %d records, stats claim %d", len(recs), st.Records)
	}
}

// TestConcurrentEmit hammers the ring from many goroutines under -race and
// checks conservation: every emit is either written, dropped, or sampled.
func TestConcurrentEmit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.log")
	l, err := New(Config{Path: path, RingSize: 1024, SampleN: 3})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const per = 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tap := l.Tap("udp")
			client := netip.AddrFrom4([4]byte{10, 1, 0, byte(g)})
			for i := 0; i < per; i++ {
				tap.ResponseOut(client, "www.example.test.", dnswire.TypeA,
					dnswire.RCodeNoError, 300, OutcomeHit, time.Millisecond)
			}
		}(g)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Records+st.Dropped+st.SampledOut != goroutines*per {
		t.Fatalf("conservation violated: %+v (want total %d)", st, goroutines*per)
	}
	recs, errs, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if errs != 0 {
		t.Fatalf("decode errors: %d", errs)
	}
	if uint64(len(recs)) != st.Records {
		t.Fatalf("file holds %d records, stats claim %d", len(recs), st.Records)
	}
}

// TestTornTail pins that a crash-truncated file is tolerated: the intact
// prefix decodes and the torn tail is counted as a decode error.
func TestTornTail(t *testing.T) {
	for _, format := range []Format{FormatJSONL, FormatBinary} {
		t.Run(format.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "q.log")
			l, err := New(Config{Path: path, Format: format})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 100; i++ {
				rec := testRecord(i)
				l.Emit(&rec)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, b[:len(b)-7], 0o644); err != nil {
				t.Fatal(err)
			}
			recs, errs, err := ReadAll(path)
			if err != nil {
				t.Fatal(err)
			}
			if errs == 0 {
				t.Fatal("torn tail not counted as a decode error")
			}
			if len(recs) < 90 {
				t.Fatalf("only %d records survived a 7-byte truncation", len(recs))
			}
		})
	}
}

// roundTrip checks UnmarshalText(MarshalText(v)) == v and String() ==
// MarshalText(v) for every v.
func roundTrip[T interface {
	comparable
	fmt.Stringer
	encoding.TextMarshaler
}, P interface {
	*T
	encoding.TextUnmarshaler
}](t *testing.T, vals ...T) {
	t.Helper()
	for _, v := range vals {
		b, err := v.MarshalText()
		var back T
		if err != nil || P(&back).UnmarshalText(b) != nil || back != v || string(b) != v.String() {
			t.Errorf("%T %v: MarshalText = %q, %v; back %v", v, v, b, err, back)
		}
	}
}

// TestTextSpellings pins the one spelling table of each qlog enum — the
// JSONL fields and the -qlog-format, -qlog-points and -points flags: every
// value round-trips, the mask grammar reads comma lists and "all", retired
// aliases fail naming the accepted spellings, out-of-range values print as
// themselves, and Point and Outcome keep the byte values DQL1 stores.
func TestTextSpellings(t *testing.T) {
	roundTrip(t, PointClientIn, PointResponseOut, PointUpstream, PointNotify)
	roundTrip(t, OutcomeNone, OutcomeMiss, OutcomeHit, OutcomeStale, OutcomeCoalesced,
		OutcomeTimeout, OutcomeError, OutcomeBlocked, OutcomeLimited)
	roundTrip(t, FormatJSONL, FormatBinary)
	for m := PointMask(1); m <= MaskAll; m++ {
		roundTrip(t, m)
	}

	for _, tc := range []struct {
		in   string
		want PointMask
	}{
		{"all", MaskAll},
		{"response", MaskResponseOut},
		{"client,upstream", MaskClientIn | MaskUpstream},
		{"client,response,upstream", MaskClientIn | MaskResponseOut | MaskUpstream},
		{"client,response,upstream,notify", MaskAll},
		{"notify", MaskNotify},
	} {
		var got PointMask
		if err := got.UnmarshalText([]byte(tc.in)); err != nil || got != tc.want {
			t.Errorf("PointMask.UnmarshalText(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}

	for _, tc := range []struct {
		v    encoding.TextUnmarshaler
		in   string
		want string
	}{
		{new(PointMask), "", `"client" "response" "upstream" "notify"`},
		{new(PointMask), "bogus", `"client" "response" "upstream" "notify"`},
		{new(PointMask), "client,", `"client" "response" "upstream" "notify"`},
		{new(Point), "unknown", `"client" "response" "upstream" "notify"`},
		{new(Outcome), "none", `"" "miss" "hit"`},
		{new(Format), "json", `"jsonl" "binary"`},
		{new(Format), "bin", `"jsonl" "binary"`},
	} {
		if err := tc.v.UnmarshalText([]byte(tc.in)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%T.UnmarshalText(%q) = %v, want an error naming %s", tc.v, tc.in, err, tc.want)
		}
	}

	got := fmt.Sprint(Point(9), Outcome(200), Format(2), PointMask(0), PointMask(1<<6))
	if want := "Point(9) Outcome(200) Format(2) PointMask(0) PointMask(64)"; got != want {
		t.Errorf("out-of-range values print as %q, want %q", got, want)
	}

	points := []Point{PointClientIn, PointResponseOut, PointUpstream, PointNotify}
	outcomes := []Outcome{OutcomeNone, OutcomeMiss, OutcomeHit, OutcomeStale, OutcomeCoalesced,
		OutcomeTimeout, OutcomeError, OutcomeBlocked, OutcomeLimited}
	for i, p := range points {
		if int(p) != i {
			t.Errorf("%v = %d, want %d: DQL1 stores Point raw", p, p, i)
		}
	}
	for i, o := range outcomes {
		if int(o) != i {
			t.Errorf("%v = %d, want %d: DQL1 stores Outcome raw", o, o, i)
		}
	}
}

// TestDecodeRejectsUnknownSpellings: a JSONL line whose point is missing or
// unknown, and a DQL1 payload whose point or outcome byte is outside its
// table, are decode errors rather than records.
func TestDecodeRejectsUnknownSpellings(t *testing.T) {
	var rec Record
	for _, line := range []string{
		`{"t":1,"transport":"udp","client":"10.0.0.1","name":"a.","type":1,"rcode":0,"ttl":0,"lat_us":0}`,
		`{"t":1,"point":"bogus","transport":"udp","client":"10.0.0.1","name":"a.","type":1,"rcode":0,"ttl":0,"lat_us":0}`,
		`{"t":1,"point":"client","transport":"udp","client":"10.0.0.1","name":"a.","type":1,"rcode":0,"ttl":0,"outcome":"none","lat_us":0}`,
	} {
		if err := decodeJSONLLine([]byte(line), &rec); err == nil {
			t.Errorf("decoded %s", line)
		}
	}
	good := testRecord(1)
	for _, mut := range []func(*Record){
		func(r *Record) { r.Point = Point(len(pointNames)) },
		func(r *Record) { r.Outcome = Outcome(len(outcomeNames)) },
	} {
		r := good
		mut(&r)
		if err := decodeBinaryPayload(binaryPayload(t, &r), &rec); err == nil {
			t.Errorf("decoded a payload with point %d, outcome %d", r.Point, r.Outcome)
		}
	}
	if err := decodeBinaryPayload(binaryPayload(t, &good), &rec); err != nil || rec != good {
		t.Errorf("good payload: %v, %+v", err, rec)
	}
}

// binaryPayload is rec's DQL1 payload, its frame's length prefix stripped.
func binaryPayload(t testing.TB, rec *Record) []byte {
	t.Helper()
	var e binaryEncoder
	var buf bytes.Buffer
	if err := e.encode(&buf, rec); err != nil {
		t.Fatal(err)
	}
	n, k := binary.Uvarint(buf.Bytes())
	return buf.Bytes()[k : k+int(n)]
}

// FuzzDecodeBinaryRecord: decodeBinaryPayload never panics on arbitrary
// bytes, and a payload it accepts re-encodes to one that decodes to the
// same Record.
func FuzzDecodeBinaryRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		var rec Record
		if decodeBinaryPayload(payload, &rec) != nil {
			return
		}
		var back Record
		if err := decodeBinaryPayload(binaryPayload(t, &rec), &back); err != nil || back != rec {
			t.Fatalf("re-encoded %+v decodes to %+v, %v", rec, back, err)
		}
	})
}

// TestNilSafety pins the disabled configuration: nil loggers and taps
// accept every call.
func TestNilSafety(t *testing.T) {
	var l *Logger
	var tap *Tap = l.Tap("udp")
	tap.ClientIn(netip.MustParseAddr("10.0.0.1"), "a.example.", dnswire.TypeA)
	tap.ResponseOut(netip.MustParseAddr("10.0.0.1"), "a.example.", dnswire.TypeA,
		dnswire.RCodeNoError, 60, OutcomeHit, time.Millisecond)
	tap.Upstream(netip.MustParseAddr("10.0.0.2"), "a.example.", dnswire.TypeA,
		dnswire.RCodeNoError, 60, OutcomeNone, time.Millisecond)
	rec := testRecord(1)
	l.Emit(&rec)
	if st := l.Stats(); st != (Stats{}) {
		t.Fatalf("nil logger stats: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
