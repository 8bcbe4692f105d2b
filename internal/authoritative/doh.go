package authoritative

import (
	"context"
	"crypto/tls"
	"encoding/base64"
	"io"
	"net"
	"net/http"
	"net/netip"
	"strconv"
	"time"

	"dnsttl/internal/simnet"
)

// DoHPath is the well-known DNS-over-HTTPS endpoint path (RFC 8484 §4).
const DoHPath = "/dns-query"

// DoHServer serves DNS over HTTPS (RFC 8484): wire-format queries arrive
// as POST bodies or base64url ?dns= GET parameters on /dns-query, and
// wire-format answers go back as application/dns-message.
type DoHServer struct {
	// Handler serves the queries; as on TCP, a Server's flavour without
	// datagram truncation is Server.Handler(tap, stream) with stream set.
	Handler simnet.Handler
	// TLS must be set for RFC 8484 semantics; nil serves plain HTTP,
	// which is only useful behind a terminating proxy or in tests.
	TLS *tls.Config

	srv    *http.Server
	served chan struct{} // closed when the serve goroutine has returned
}

// Listen binds addr and serves until Close, returning the bound address.
func (d *DoHServer) Listen(addr string) (netip.AddrPort, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return netip.AddrPort{}, err
	}
	bound := ln.Addr().(*net.TCPAddr).AddrPort()
	mux := http.NewServeMux()
	mux.Handle(DoHPath, d)
	srv := &http.Server{
		Handler:           mux,
		TLSConfig:         d.TLS,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       DefaultTCPIdleTimeout,
	}
	d.srv, d.served = srv, make(chan struct{})
	go func() {
		defer close(d.served)
		if d.TLS != nil {
			_ = srv.ServeTLS(ln, "", "")
		} else {
			_ = srv.Serve(ln)
		}
	}()
	return bound, nil
}

// ServeHTTP implements http.Handler for the /dns-query endpoint.
func (d *DoHServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var query []byte
	var err error
	switch r.Method {
	case http.MethodPost:
		query, err = io.ReadAll(io.LimitReader(r.Body, 1<<16))
	case http.MethodGet:
		query, err = base64.RawURLEncoding.DecodeString(r.URL.Query().Get("dns"))
	default:
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	if err != nil || len(query) < 12 {
		w.WriteHeader(http.StatusBadRequest)
		return
	}
	from := netip.Addr{}
	if ap, perr := netip.ParseAddrPort(r.RemoteAddr); perr == nil {
		from = ap.Addr()
	}
	resp := d.Handler.ServeDNS(query, from)
	if resp == nil {
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/dns-message")
	w.Header().Set("Content-Length", strconv.Itoa(len(resp)))
	_, _ = w.Write(resp)
}

// Close drains the listener (see drain); http.Server.Shutdown is that
// ladder for HTTP.
func (d *DoHServer) Close() error { return drain(d) }

func (d *DoHServer) shutdown(ctx context.Context) error {
	if d.srv == nil {
		return nil
	}
	err := d.srv.Shutdown(ctx)
	if err != nil {
		_ = d.srv.Close() // the bound passed: cut what is left
	}
	<-d.served
	return err
}
