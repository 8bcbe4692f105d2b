package transport

import (
	"bytes"
	"crypto/tls"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"net/netip"
	"time"
)

// DoHPath is the well-known DoH endpoint path (RFC 8484 §4).
const DoHPath = "/dns-query"

// dohContentType is the wire-format media type (RFC 8484 §6).
const dohContentType = "application/dns-message"

// dohTransport POSTs application/dns-message over HTTPS (RFC 8484).
// Connection pooling and reuse live in the net/http transport; reuse and
// handshake telemetry is lifted out through httptrace, so the pooled DoH
// path reports the same metrics the hand-rolled pools do.
type dohTransport struct {
	cfg    Config
	m      *Metrics
	client *http.Client
}

func newDoHTransport(cfg Config) *dohTransport {
	tr := &http.Transport{
		// The empty host keeps ServerName unset so net/http derives SNI
		// from each request URL — one transport serves many upstreams.
		TLSClientConfig:     cfg.tlsConfig(""),
		ForceAttemptHTTP2:   true,
		MaxIdleConns:        4 * cfg.PoolSize,
		MaxIdleConnsPerHost: cfg.PoolSize,
		MaxConnsPerHost:     cfg.PoolSize,
		IdleConnTimeout:     idleTimeout,
	}
	return &dohTransport{
		cfg:    cfg,
		m:      cfg.Metrics,
		client: &http.Client{Transport: tr, Timeout: cfg.Timeout},
	}
}

// Exchange implements Transport. The query's message ID is zeroed on the
// wire for HTTP-cache friendliness (RFC 8484 §4.1) and restored in the
// response.
func (d *dohTransport) Exchange(server netip.AddrPort, query []byte) ([]byte, time.Duration, error) {
	d.m.Exchanges.Inc()
	resp, rtt, err := d.exchange(server, query)
	if err != nil {
		d.m.Errors.Inc()
		return nil, rtt, err
	}
	d.m.RTT.ObserveDuration(rtt)
	return resp, rtt, nil
}

func (d *dohTransport) exchange(server netip.AddrPort, query []byte) ([]byte, time.Duration, error) {
	if len(query) < 12 {
		return nil, 0, fmt.Errorf("transport: query shorter than a DNS header")
	}
	body := make([]byte, len(query))
	copy(body, query)
	body[0], body[1] = 0, 0

	url := "https://" + server.String() + DoHPath
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", dohContentType)
	req.Header.Set("Accept", dohContentType)

	var handshakeStart time.Time
	trace := &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			if info.Reused {
				d.m.Reuses.Inc()
			} else {
				d.m.Dials.Inc()
			}
		},
		TLSHandshakeStart: func() { handshakeStart = time.Now() },
		TLSHandshakeDone: func(_ tls.ConnectionState, err error) {
			if err == nil {
				d.m.Handshakes.Inc()
				d.m.HandshakeMS.ObserveDuration(time.Since(handshakeStart))
			}
		},
	}
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), trace))

	start := time.Now()
	httpResp, err := d.client.Do(req)
	if err != nil {
		return nil, time.Since(start), err
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, io.LimitReader(httpResp.Body, 1<<16))
		return nil, time.Since(start), fmt.Errorf("transport: doh status %s", httpResp.Status)
	}
	wire, err := io.ReadAll(io.LimitReader(httpResp.Body, 1<<16))
	rtt := time.Since(start)
	if err != nil {
		return nil, rtt, err
	}
	if len(wire) < 12 {
		return nil, rtt, fmt.Errorf("transport: doh response shorter than a DNS header")
	}
	wire[0], wire[1] = query[0], query[1]
	return wire, rtt, nil
}

// Close implements Transport.
func (d *dohTransport) Close() error {
	d.client.CloseIdleConnections()
	return nil
}
