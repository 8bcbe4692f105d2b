package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dnsttl/internal/simnet"
)

func TestMetricsEndpoint(t *testing.T) {
	clock := simnet.NewVirtualClock()
	reg := NewRegistry(clock)
	reg.Counter("cache.hits").Add(12)
	reg.Histogram("resolver.latency_ms").Observe(42)

	srv := httptest.NewServer(NewHandler(reg, nil, nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("metrics endpoint emitted invalid JSON: %v\n%s", err, body)
	}
	if snap.Counters["cache.hits"] != 12 {
		t.Fatalf("cache.hits = %d, want 12", snap.Counters["cache.hits"])
	}
	h := snap.Histograms["resolver.latency_ms"]
	if h.Count != 1 || h.P50 != 42 {
		t.Fatalf("latency histogram %+v, want count 1 p50 42", h)
	}

	// /trace without a tracer 404s.
	tresp, err := http.Get(srv.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusNotFound {
		t.Fatalf("/trace without tracer: status %d, want 404", tresp.StatusCode)
	}
}

func TestTraceEndpoint(t *testing.T) {
	tr := NewTracer(simnet.NewVirtualClock())
	root := tr.Start("www.example.org. A")
	root.Child("cache lookup").Annotate("outcome", "miss")
	tr.Keep(root)

	srv := httptest.NewServer(NewHandler(nil, tr, nil))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, body := get("/trace"); code != 200 || !strings.Contains(body, "www.example.org. A") {
		t.Fatalf("trace listing: %d %q", code, body)
	}
	if code, body := get("/trace?name=www.example.org.+A"); code != 200 ||
		!strings.Contains(body, "outcome=miss") {
		t.Fatalf("trace lookup: %d %q", code, body)
	}
	if code, _ := get("/trace?name=unknown.test"); code != http.StatusNotFound {
		t.Fatalf("unknown trace: %d, want 404", code)
	}
	if code, _ := get("/metrics"); code != http.StatusNotFound {
		t.Fatalf("/metrics without registry: %d, want 404", code)
	}
	if code, body := get("/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Fatalf("index: %d %q", code, body)
	}
}

// TestMetricsContentNegotiation pins the /metrics representations: JSON by
// default (existing scrapers and scripts/metrics_smoke.sh depend on it),
// Prometheus text via ?format=prom or an Accept header preferring
// text/plain, and explicit ?format=json winning over Accept.
func TestMetricsContentNegotiation(t *testing.T) {
	reg := NewRegistry(simnet.NewVirtualClock())
	reg.Counter("resolver.resolutions").Inc()
	reg.Histogram("latency_ms").Observe(5)

	srv := httptest.NewServer(NewHandler(reg, nil, nil))
	defer srv.Close()

	get := func(path, accept string) (string, string) {
		req, _ := http.NewRequest("GET", srv.URL+path, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, b)
		}
		return resp.Header.Get("Content-Type"), string(b)
	}

	// Default: JSON.
	ct, body := get("/metrics", "")
	if !strings.Contains(ct, "application/json") || !json.Valid([]byte(body)) {
		t.Fatalf("default /metrics: ct=%q, valid JSON=%v", ct, json.Valid([]byte(body)))
	}

	// ?format=prom: text exposition that passes our lint.
	ct, body = get("/metrics?format=prom", "")
	if !strings.Contains(ct, "text/plain") {
		t.Fatalf("?format=prom content type %q", ct)
	}
	if !strings.Contains(body, "# TYPE resolver_resolutions counter") {
		t.Fatalf("exposition missing TYPE line:\n%s", body)
	}
	if problems := LintExposition(strings.NewReader(body)); len(problems) != 0 {
		t.Fatalf("lint problems: %v", problems)
	}

	// Accept: text/plain negotiates the exposition too.
	ct, _ = get("/metrics", "text/plain")
	if !strings.Contains(ct, "text/plain") {
		t.Fatalf("Accept: text/plain got content type %q", ct)
	}

	// Explicit ?format=json wins over Accept.
	ct, _ = get("/metrics?format=json", "text/plain")
	if !strings.Contains(ct, "application/json") {
		t.Fatalf("?format=json with Accept text/plain got %q", ct)
	}

	// A browser-ish Accept listing JSON keeps JSON.
	ct, _ = get("/metrics", "application/json, text/plain;q=0.5")
	if !strings.Contains(ct, "application/json") {
		t.Fatalf("Accept with application/json got %q", ct)
	}
}

// TestMetricsWindowEndpoint pins /metrics?window= behavior with and
// without an attached History.
func TestMetricsWindowEndpoint(t *testing.T) {
	clock := simnet.NewVirtualClock()
	reg := NewRegistry(clock)
	c := reg.Counter("resolver.resolutions")
	hist := NewHistory(reg, 8)
	hist.Sample()
	c.Add(30)
	clock.Advance(10 * time.Second)

	srv := httptest.NewServer(NewHandler(reg, nil, hist))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics?window=30s")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("window query: status %d: %s", resp.StatusCode, body)
	}
	var d Delta
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatalf("window response not JSON: %v\n%s", err, body)
	}
	if cd := d.Counters["resolver.resolutions"]; cd.Delta != 30 || cd.Rate != 3 {
		t.Fatalf("windowed delta %+v, want {30 3}", cd)
	}

	// Malformed window: 400.
	resp, _ = http.Get(srv.URL + "/metrics?window=banana")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad window: status %d, want 400", resp.StatusCode)
	}

	// No history attached: 404.
	srv2 := httptest.NewServer(NewHandler(reg, nil, nil))
	defer srv2.Close()
	resp, _ = http.Get(srv2.URL + "/metrics?window=30s")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("window without history: status %d, want 404", resp.StatusCode)
	}
}

// TestConcurrentScrapeWhileObserve hammers every endpoint while observers
// mutate the registry — run under -race. Every scrape must return a
// well-formed document.
func TestConcurrentScrapeWhileObserve(t *testing.T) {
	reg := NewRegistry(nil)
	hist := NewHistory(reg, 8)
	hist.Sample()
	tr := NewTracer(nil)
	srv := httptest.NewServer(NewHandler(reg, tr, hist))
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := reg.Counter("load.ops")
			h := reg.Histogram("load.latency_ms")
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					h.Observe(float64(i % 1000))
					if i%100 == 0 {
						sp := tr.Start("scrape.test A")
						tr.Keep(sp)
						hist.Sample()
					}
				}
			}
		}(g)
	}

	paths := []string{"/metrics", "/metrics?format=prom", "/metrics?window=1s", "/trace", "/trace?name=nope"}
	for i := 0; i < 50; i++ {
		p := paths[i%len(paths)]
		resp, err := http.Get(srv.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch p {
		case "/metrics":
			if resp.StatusCode != 200 || !json.Valid(body) {
				t.Fatalf("scrape %s: status %d, JSON valid %v", p, resp.StatusCode, json.Valid(body))
			}
		case "/metrics?format=prom":
			if resp.StatusCode != 200 {
				t.Fatalf("scrape %s: status %d", p, resp.StatusCode)
			}
			if problems := LintExposition(strings.NewReader(string(body))); len(problems) != 0 {
				t.Fatalf("scrape %s: lint problems %v\n%s", p, problems, body)
			}
		case "/metrics?window=1s":
			if resp.StatusCode != 200 && resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("scrape %s: status %d", p, resp.StatusCode)
			}
		case "/trace?name=nope":
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("scrape %s: status %d, want 404", p, resp.StatusCode)
			}
		default:
			if resp.StatusCode != 200 {
				t.Fatalf("scrape %s: status %d", p, resp.StatusCode)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestServe: the listener serves the registry and, from its own history,
// windowed rates right after startup.
func TestServe(t *testing.T) {
	reg := NewRegistry(nil)
	reg.Counter("x").Inc()
	addr, closeFn, err := Serve("127.0.0.1:0", reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn()
	for path, want := range map[string]string{"/metrics": "\"x\": 1", "/metrics?window=60s": "\"seconds\""} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Errorf("%s: status %d, want 200 with %s: %s", path, resp.StatusCode, want, body)
		}
	}
}
