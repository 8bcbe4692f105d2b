package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"
)

// NewHandler builds the live-introspection mux both daemons mount:
//
//	/metrics              expvar-style JSON snapshot of the registry
//	/metrics?format=prom  Prometheus text exposition (also via Accept:
//	                      text/plain); JSON stays the default
//	/metrics?window=30s   windowed delta (rates, delta histograms) when
//	                      hist is attached
//	/trace                list of retained trace names
//	/trace?name=N         rendered span tree of the last resolution of N
//
// Any argument may be nil; the corresponding endpoint then reports that
// the facility is disabled.
func NewHandler(reg *Registry, tr *Tracer, hist *History) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		if reg == nil {
			http.Error(w, "metrics disabled", http.StatusNotFound)
			return
		}
		if win := req.URL.Query().Get("window"); win != "" {
			d, err := time.ParseDuration(win)
			if err != nil || d <= 0 {
				http.Error(w, fmt.Sprintf("bad window %q (want a positive Go duration)", win), http.StatusBadRequest)
				return
			}
			if hist == nil {
				http.Error(w, "windowed metrics disabled (no history attached)", http.StatusNotFound)
				return
			}
			delta, ok := hist.Window(d)
			if !ok {
				http.Error(w, "no baseline snapshot retained yet", http.StatusServiceUnavailable)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(delta)
			return
		}
		if wantsPrometheus(req) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = reg.WritePrometheusText(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = reg.WriteJSON(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, req *http.Request) {
		if tr == nil {
			http.Error(w, "tracing disabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		name := req.URL.Query().Get("name")
		if name == "" {
			names := tr.Names()
			if len(names) == 0 {
				fmt.Fprintln(w, "no traces retained yet")
				return
			}
			fmt.Fprintln(w, "retained traces (query with ?name=...):")
			for _, n := range names {
				fmt.Fprintf(w, "  %s\n", n)
			}
			return
		}
		sp, ok := tr.Find(name)
		if !ok {
			http.Error(w, fmt.Sprintf("no trace for %q", name), http.StatusNotFound)
			return
		}
		_, _ = w.Write([]byte(sp.String()))
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "endpoints: /metrics /trace /trace?name=<qname>")
	})
	return mux
}

// wantsPrometheus decides the /metrics representation: ?format=prom (or
// "prometheus"/"text") selects the text exposition, as does an Accept
// header preferring text/plain. JSON remains the default so existing
// scrapers keep working.
func wantsPrometheus(req *http.Request) bool {
	switch req.URL.Query().Get("format") {
	case "prom", "prometheus", "text":
		return true
	case "json":
		return false
	}
	accept := req.Header.Get("Accept")
	if accept == "" || strings.Contains(accept, "application/json") {
		return false
	}
	return strings.Contains(accept, "text/plain")
}

// Serve binds addr and serves the introspection handler until the returned
// close function is called. It returns the bound address, so addr may use
// port 0 in tests. With a registry it keeps that registry's History,
// sampled every 10 s from now until close, behind /metrics?window=.
func Serve(addr string, reg *Registry, tr *Tracer) (bound string, closeFn func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	var hist *History
	if reg != nil {
		hist = NewHistory(reg, 0)
		hist.Start(0)
	}
	srv := &http.Server{Handler: NewHandler(reg, tr, hist)}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), func() error {
		if hist != nil {
			hist.Stop()
			<-hist.done // the sampling loop has exited
		}
		return srv.Close()
	}, nil
}
