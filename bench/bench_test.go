package main

import (
	"crypto/sha256"
	"encoding/binary"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dnsttl/internal/authoritative"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/zone"
)

func TestQuantileNearestRank(t *testing.T) {
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p      float64
		beyond int
		want   int64
		used   float64
	}{
		{0.50, 10, 500, 0.500},
		{0.99, 10, 990, 0.990},  // exactly 10 samples beyond rank 990
		{0.999, 10, 990, 0.990}, // rank 999 has 1 beyond: lowered to 990
		{0.999, 0, 999, 0.999},
		{1.0, 0, 1000, 1.0},
	} {
		got, used := quantile(s, c.p, c.beyond)
		if got != c.want || used != c.used {
			t.Errorf("quantile(p=%v, beyond=%d) = %d at %v, want %d at %v", c.p, c.beyond, got, used, c.want, c.used)
		}
	}
}

func TestQuantileNeverBelowMedian(t *testing.T) {
	// With fewer than 2*beyond samples the rule cannot hold; the median is
	// the lowest percentile ever reported.
	for _, s := range [][]int64{{7}, {1, 2, 3}, {1, 2, 3, 4}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}} {
		got, _ := quantile(s, 0.99, 10)
		if want := s[(len(s)+1)/2-1]; got != want {
			t.Errorf("quantile(%v, 0.99, beyond 10) = %d, want the median %d", s, got, want)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q2, q3 := quartiles([]float64{1, 2, 3}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of 3 = %v %v %v, want 1 2 3", q1, q2, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func streamDigest(seed int64) [sha256.Size]byte {
	h := sha256.New()
	for _, idx := range zipfStream(seed, 5000, 20000) {
		_ = binary.Write(h, binary.BigEndian, idx)
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	if streamDigest(1) != streamDigest(1) {
		t.Error("seed 1 gave two different Zipf streams")
	}
	if streamDigest(1) == streamDigest(2) {
		t.Error("seeds 1 and 2 gave the same Zipf stream")
	}
	w := &workload{names: 600_000}
	a := &generator{w: w, offset: 17}
	seen := map[int]bool{}
	for seq := int64(0); seq < 50_000; seq++ {
		idx := a.index(seq)
		if idx < 0 || idx >= w.names || seen[idx] {
			t.Fatalf("distinct walk repeated or left the zone at sequence %d: index %d", seq, idx)
		}
		seen[idx] = true
	}
}

func TestWalkStrideVisitsEveryName(t *testing.T) {
	for _, w := range liveWorkloads {
		if w.zipf {
			continue
		}
		a, b := w.names, walkStride
		for b != 0 {
			a, b = b, a%b
		}
		if a != 1 {
			t.Errorf("%s: walkStride %d shares the factor %d with its %d names", w.name, walkStride, a, w.names)
		}
	}
}

func TestQueryClockMonotonicUnderTwoGoroutines(t *testing.T) {
	var issued atomic.Int64
	clock := queryClock{&issued}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := clock.Now()
			for i := 0; i < 20000; i++ {
				issued.Add(1)
				now := clock.Now()
				if now.Before(last) {
					t.Errorf("query clock went back from %v to %v", last, now)
					return
				}
				last = now
			}
		}()
	}
	wg.Wait()
	if got := clock.Now().Sub(queryClock{new(atomic.Int64)}.Now()); got != 40000*time.Millisecond {
		t.Errorf("40000 issued queries advanced the clock by %v, want 40 s", got)
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	parent := interval{100, 200}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []interval{{120, 150}}, 70},
		{"disjoint children", []interval{{160, 170}, {110, 120}}, 80},
		{"overlapping children count once", []interval{{110, 150}, {130, 160}}, 50},
		{"nested children count once", []interval{{110, 190}, {120, 130}}, 20},
		{"children are clipped to the parent", []interval{{50, 120}, {190, 300}}, 70},
		{"child covering the parent", []interval{{0, 1000}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestReduceSplitsAQueryIntoFourSelfTimes(t *testing.T) {
	spans := []span{
		// query 7: 100 µs, one upstream exchange
		{kind: spanQuery, seq: 7, start: 0, end: 100_000},
		{kind: spanServe, seq: 7, start: 10_000, end: 80_000},
		{kind: spanExchange, seq: 7, start: 20_000, end: 60_000},
		{kind: spanAuth, seq: 7, start: 30_000, end: 35_000},
		// query 8: a hit
		{kind: spanQuery, seq: 8, start: 0, end: 20_000},
		{kind: spanServe, seq: 8, start: 8_000, end: 10_000},
		// query 9: served while another query for its name was in flight
		{kind: spanQuery, seq: 9, start: 0, end: 20_000},
		{kind: spanServe, seq: 9, ambiguous: true, start: 8_000, end: 10_000},
		// query 10: its serve span was dropped
		{kind: spanQuery, seq: 10, start: 0, end: 20_000},
	}
	sum := reduce(spans, 3)
	if sum.queries != 2 || sum.ambiguous != 1 || sum.sumMismatches != 0 || sum.droppedSpans != 3 {
		t.Fatalf("reduce: %+v", sum)
	}
	// medians over queries 7 and 8 take the upper of the two by nearest rank... the lower: rank ceil(0.5*2) = 1
	if sum.queryP50 != 20 || sum.listenerSelfP50 != 18 || sum.serveSelfP50 != 2 {
		t.Errorf("per-query medians: %+v", sum)
	}
	if sum.exchangeP50 != 40 || sum.exchangeSelfP50 != 35 || sum.authP50 != 5 || sum.exchangesPerQuery != 0.5 {
		t.Errorf("per-exchange medians: %+v", sum)
	}
}

func TestReduceFlagsSpansThatDoNotNest(t *testing.T) {
	spans := []span{
		{kind: spanQuery, seq: 1, start: 0, end: 100},
		{kind: spanServe, seq: 1, start: 10, end: 80},
		{kind: spanExchange, seq: 1, start: 20, end: 60},
		{kind: spanExchange, seq: 1, start: 50, end: 70}, // overlaps its sibling
	}
	if sum := reduce(spans, 0); sum.sumMismatches != 1 {
		t.Errorf("overlapping exchanges: %d mismatches, want 1", sum.sumMismatches)
	}
}

func TestSeqFromID(t *testing.T) {
	for _, c := range []struct{ seq, issued int64 }{
		{0, 1}, {0, 2}, {5, 7}, {65535, 65536}, {65536, 65538}, {65537, 65538}, {1 << 20, 1<<20 + 2},
	} {
		if got := seqFromID(uint16(c.seq), c.issued); int64(got) != c.seq {
			t.Errorf("seqFromID(id of %d, issued %d) = %d", c.seq, c.issued, got)
		}
	}
}

func TestTracerAttributesUpstreamQueriesByName(t *testing.T) {
	tr := newTracer(new(atomic.Int64), 16)
	a := tr.claim(41, 1234)
	if seq, ok := tr.lookup(1234); !ok || seq != 41 {
		t.Fatalf("lookup(1234) = %d, %v", seq, ok)
	}
	if _, ok := tr.lookup(99); ok {
		t.Error("lookup found a name nobody is serving")
	}
	b := tr.claim(42, 1234) // same name in flight twice
	c := tr.claim(43, 77)
	if !tr.release(a) || !tr.release(b) {
		t.Error("two in-flight queries for one name were not both marked ambiguous")
	}
	if tr.release(c) {
		t.Error("a query for a name of its own was marked ambiguous")
	}
	if _, ok := tr.lookup(1234); ok {
		t.Error("released slots still attribute")
	}
}

func TestNameIndexRoundTrips(t *testing.T) {
	tmpl, err := queryTemplate()
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int{0, 1, 999, 123456, 599_999, maxNames - 1} {
		a := hostAddr(idx).As4()
		if got, ok := addrIndex(a); !ok || got != idx {
			t.Errorf("addrIndex(hostAddr(%d)) = %d, %v", idx, got, ok)
		}
		wire := append([]byte(nil), tmpl...)
		patchQuery(wire, 0xBEEF, idx)
		if got, ok := wireIndex(wire); !ok || got != idx {
			t.Errorf("wireIndex(patchQuery(%d)) = %d, %v", idx, got, ok)
		}
		m, err := dnswire.Decode(wire)
		if err != nil || m.Header.ID != 0xBEEF || !m.Header.RD || m.Q().Name != hostName(idx) || m.Q().Type != dnswire.TypeA {
			t.Errorf("patched query %d decodes to %v (err %v)", idx, m, err)
		}
	}
	if _, ok := addrIndex([4]byte{192, 0, 2, 1}); ok {
		t.Error("addrIndex accepted an address outside 10/8")
	}
	if _, ok := wireIndex(tmpl[:15]); ok {
		t.Error("wireIndex accepted a truncated wire")
	}
}

// serveFromZone answers a patched query from a real zone through the real
// authoritative server, the way the workloads' replies are produced.
func serveFromZone(t *testing.T, names int, ttl uint32, id uint16, idx int) (query, reply []byte) {
	t.Helper()
	root, leaf, err := buildZones(names, constTTL(ttl))
	if err != nil {
		t.Fatal(err)
	}
	if res := leaf.Lookup(hostName(idx), dnswire.TypeA); res.Kind != zone.Answer ||
		res.Answer.RRs[0].Data.(dnswire.A).Addr != hostAddr(idx) {
		t.Fatalf("zone does not hold %v for name %d: %+v", hostAddr(idx), idx, res)
	}
	srv := authoritative.NewServer(dnswire.NewName("a.root-servers.net."), nil)
	srv.AddZone(root)
	srv.AddZone(leaf)
	query, err = queryTemplate()
	if err != nil {
		t.Fatal(err)
	}
	patchQuery(query, id, idx)
	return query, srv.ServeDNS(query, netip.MustParseAddr("127.0.0.1"))
}

func TestCheckReplyAcceptsTheZonesAnswer(t *testing.T) {
	query, reply := serveFromZone(t, 50, 300, 0x1234, 42)
	if v := checkReply(reply, query, 42, 300); v != vOK {
		t.Fatalf("the authoritative server's own answer was rejected: %s", verdictNames[v])
	}
	canned := cannedReply(query, netip.Addr{})
	if v := checkReply(canned, query, 42, 1); v != vOK {
		t.Fatalf("the canned reply was rejected: %s", verdictNames[v])
	}
	m, err := dnswire.Decode(canned)
	if err != nil || !m.Header.QR || len(m.Answer) != 1 || m.Answer[0].Name != hostName(42) ||
		m.Answer[0].Data.(dnswire.A).Addr != hostAddr(42) || m.Answer[0].TTL != 1 {
		t.Errorf("the canned reply decodes to %v (err %v)", m, err)
	}
}

func TestCheckReplyRejections(t *testing.T) {
	query, good := serveFromZone(t, 50, 300, 0x1234, 42)
	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		f(b)
		return b
	}
	otherQuery, otherReply := serveFromZone(t, 50, 300, 0x1234, 7)
	_ = otherQuery
	for _, c := range []struct {
		name   string
		reply  []byte
		maxTTL uint32
		want   verdict
	}{
		{"another client's ID", mutate(func(b []byte) { b[1] ^= 1 }), 300, vID},
		{"QR clear", mutate(func(b []byte) { b[2] &^= 0x80 }), 300, vFlags},
		{"SERVFAIL", mutate(func(b []byte) { b[3] |= 2 }), 300, vRCode},
		{"no answer", mutate(func(b []byte) { b[7] = 0 }), 300, vCounts},
		{"the reply to another query", otherReply, 300, vQuestion},
		{"another name's address", mutate(func(b []byte) { b[len(b)-1] = 43 }), 300, vAddress},
		{"TTL above the authoritative TTL", good, 299, vTTL},
		{"TTL zero", mutate(func(b []byte) { copy(b[len(b)-10:], []byte{0, 0, 0, 0}) }), 300, vTTL},
		{"cut short", good[:len(good)-3], 300, vShort},
		{"header only", good[:8], 300, vShort},
	} {
		if got := checkReply(c.reply, query, 42, c.maxTTL); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, verdictNames[got], verdictNames[c.want])
		}
	}
}

func TestManifestMatchesTheCatalogue(t *testing.T) {
	m, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program runs %d", len(m.Workloads), len(workloadNames))
	}
	for i, w := range m.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloadNames[i])
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the catalogue %d", len(m.EndToEnd), len(endToEnd))
	}
	for i, e := range m.EndToEnd {
		if e.Name != endToEnd[i].name || e.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json says %s [%s], the catalogue %s [%s]",
				i, e.Name, e.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if e.Bound <= 0 || e.Bound > 0.25 || (e.Better != "lower" && e.Better != "higher") {
			t.Errorf("%s: bound %v, better %q", e.Name, e.Bound, e.Better)
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the catalogue %d", len(m.PerLayer), len(perLayer))
	}
	for i, p := range m.PerLayer {
		if p.Name != perLayer[i].name || p.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json says %s [%s], the catalogue %s [%s]",
				i, p.Name, p.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	seen := map[string]bool{}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if seen[d.name] {
				t.Errorf("metric %s is declared twice", d.name)
			}
			seen[d.name] = true
		}
	}
}

func TestResultLineHasTheContractsKeys(t *testing.T) {
	r := result{attempted: 10, failed: 1, metrics: metrics{"qps": 12.5}}
	correct, values, err := parseResultLine([]byte(r.jsonLine()))
	if err != nil || correct || values["qps"] != 12.5 {
		t.Errorf("result line %s parsed to correct=%v values=%v err=%v", r.jsonLine(), correct, values, err)
	}
}
