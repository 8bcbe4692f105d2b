package loadgen

import (
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/obs"
	"dnsttl/internal/transport"
)

// Metric names under which Run publishes the engine's telemetry.
const (
	MetricSent        = "loadgen.sent"
	MetricNoError     = "loadgen.noerror"
	MetricNXDomain    = "loadgen.nxdomain"
	MetricServFail    = "loadgen.servfail"
	MetricRefused     = "loadgen.refused"
	MetricOtherRCode  = "loadgen.rcode_other"
	MetricTimeouts    = "loadgen.timeouts"
	MetricNetErrors   = "loadgen.net_errors"
	MetricBadMessages = "loadgen.bad_messages"
	MetricTruncated   = "loadgen.truncated"
	MetricLatency     = "loadgen.latency_ms"
)

// Config parameterizes one load run.
type Config struct {
	// Target is the server under load.
	Target netip.AddrPort
	// Transport carries the queries (any of the four kinds).
	Transport transport.Transport
	// TransportName labels the transport in the Result ("udp", "dot", …).
	TransportName string
	// Workload supplies the qname/qtype stream.
	Workload *Workload
	// Workers bounds in-flight queries; 0 means 8.
	Workers int
	// Count stops the run after this many queries; 0 defers to Duration.
	Count int
	// Duration stops the run after this wall time; 0 defers to Count. At
	// least one of Count and Duration must be set.
	Duration time.Duration
	// QPS caps the aggregate send rate; 0 means as fast as the workers go.
	QPS int
	// Registry, when non-nil, publishes the loadgen.* counters and the
	// latency histogram (shared with whatever else reports there).
	Registry *obs.Registry
}

// Result is the run's scorecard: volume, the response taxonomy, and
// latency quantiles in milliseconds.
type Result struct {
	Transport string  `json:"transport"`
	Target    string  `json:"target"`
	Workers   int     `json:"workers"`
	Seconds   float64 `json:"seconds"`

	Sent uint64  `json:"sent"`
	QPS  float64 `json:"qps"`

	NoError    uint64 `json:"noerror"`
	NXDomain   uint64 `json:"nxdomain"`
	ServFail   uint64 `json:"servfail"`
	Refused    uint64 `json:"refused"`
	OtherRCode uint64 `json:"rcode_other"`
	Truncated  uint64 `json:"truncated"`

	Timeouts    uint64 `json:"timeouts"`
	NetErrors   uint64 `json:"net_errors"`
	BadMessages uint64 `json:"bad_messages"`
	// Errors aggregates the transport/protocol failures (timeouts, network
	// errors, undecodable or mismatched responses) — the "zero protocol
	// errors" number CI gates on. Server-reported RCodes are not errors at
	// this layer.
	Errors uint64 `json:"errors"`

	LatencyMsP50 float64 `json:"latency_ms_p50"`
	LatencyMsP90 float64 `json:"latency_ms_p90"`
	LatencyMsP99 float64 `json:"latency_ms_p99"`
	LatencyMsMax float64 `json:"latency_ms_max"`
}

// String renders the dnsload summary block.
func (r *Result) String() string {
	return fmt.Sprintf(
		"target %s over %s: %d queries in %.2fs = %.0f qps (%d workers)\n"+
			"  rcodes: %d noerror, %d nxdomain, %d servfail, %d refused, %d other (%d truncated)\n"+
			"  errors: %d timeout, %d network, %d bad-message\n"+
			"  latency ms: p50 %.3f, p90 %.3f, p99 %.3f, max %.3f\n",
		r.Target, r.Transport, r.Sent, r.Seconds, r.QPS, r.Workers,
		r.NoError, r.NXDomain, r.ServFail, r.Refused, r.OtherRCode, r.Truncated,
		r.Timeouts, r.NetErrors, r.BadMessages,
		r.LatencyMsP50, r.LatencyMsP90, r.LatencyMsP99, r.LatencyMsMax)
}

// taxonomy is the run's counter set: the Result reads the very counters a
// registry publishes for live /metrics scraping, so a registry serves one
// run.
type taxonomy struct {
	sent, noerror, nxdomain, servfail, refused, other obs.Counter
	truncated, timeouts, neterrs, badmsg              obs.Counter
}

func (t *taxonomy) publish(reg *obs.Registry) {
	for name, c := range map[string]*obs.Counter{
		MetricSent: &t.sent, MetricNoError: &t.noerror, MetricNXDomain: &t.nxdomain,
		MetricServFail: &t.servfail, MetricRefused: &t.refused, MetricOtherRCode: &t.other,
		MetricTruncated: &t.truncated, MetricTimeouts: &t.timeouts,
		MetricNetErrors: &t.neterrs, MetricBadMessages: &t.badmsg,
	} {
		reg.CounterFunc(name, c.Value)
	}
}

// Run drives the configured load and blocks until it completes.
func Run(cfg Config) (*Result, error) {
	if cfg.Transport == nil {
		return nil, errors.New("loadgen: Config.Transport is required")
	}
	if cfg.Workload == nil || cfg.Workload.Len() == 0 {
		return nil, errors.New("loadgen: Config.Workload is required")
	}
	if cfg.Count <= 0 && cfg.Duration <= 0 {
		return nil, errors.New("loadgen: set Config.Count and/or Config.Duration")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 8
	}
	tax := &taxonomy{}
	tax.publish(cfg.Registry)
	hist := cfg.Registry.Histogram(MetricLatency)
	if hist == nil {
		hist = obs.NewHistogram()
	}

	var (
		next     atomic.Uint64
		interval time.Duration
	)
	if cfg.QPS > 0 {
		interval = time.Second / time.Duration(cfg.QPS)
	}
	start := time.Now()
	var deadline time.Time
	if cfg.Duration > 0 {
		deadline = start.Add(cfg.Duration)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := make([]byte, 0, 512)
			dec := dnswire.NewDecoder()
			var qmsg, rmsg dnswire.Message
			for {
				i := next.Add(1) - 1
				if cfg.Count > 0 && i >= uint64(cfg.Count) {
					return
				}
				if interval > 0 {
					// Global pacing: query i is due at start + i·interval,
					// no matter which worker drew it.
					due := start.Add(time.Duration(i) * interval)
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
				}
				if !deadline.IsZero() && time.Now().After(deadline) {
					return
				}
				q := cfg.Workload.At(int(i))
				qmsg.Reset()
				qmsg.Header = dnswire.Header{
					ID:     uint16(i) ^ uint16(i>>16),
					RD:     true,
					Opcode: dnswire.OpcodeQuery,
				}
				qmsg.Question = append(qmsg.Question[:0],
					dnswire.Question{Name: q.Name, Type: q.Type, Class: dnswire.ClassIN})
				wire, err := dnswire.AppendEncode(scratch[:0], &qmsg)
				if err != nil {
					tax.badmsg.Inc()
					continue
				}
				scratch = wire[:0]
				tax.sent.Inc()
				resp, rtt, err := cfg.Transport.Exchange(cfg.Target, wire)
				if err != nil {
					if errors.Is(err, transport.ErrTimeout) {
						tax.timeouts.Inc()
					} else {
						tax.neterrs.Inc()
					}
					continue
				}
				hist.ObserveDuration(rtt)
				if derr := dec.Decode(resp, &rmsg); derr != nil ||
					dnswire.CheckReply(&rmsg, qmsg.Header.ID, qmsg.Question[0]) != nil {
					tax.badmsg.Inc()
					continue
				}
				if rmsg.Header.TC {
					tax.truncated.Inc()
				}
				switch rmsg.Header.RCode {
				case dnswire.RCodeNoError:
					tax.noerror.Inc()
				case dnswire.RCodeNXDomain:
					tax.nxdomain.Inc()
				case dnswire.RCodeServFail:
					tax.servfail.Inc()
				case dnswire.RCodeRefused:
					tax.refused.Inc()
				default:
					tax.other.Inc()
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	snap := hist.Snapshot()
	res := &Result{
		Transport: cfg.TransportName,
		Target:    cfg.Target.String(),
		Workers:   workers,
		Seconds:   elapsed.Seconds(),

		Sent:       tax.sent.Value(),
		NoError:    tax.noerror.Value(),
		NXDomain:   tax.nxdomain.Value(),
		ServFail:   tax.servfail.Value(),
		Refused:    tax.refused.Value(),
		OtherRCode: tax.other.Value(),
		Truncated:  tax.truncated.Value(),

		Timeouts:    tax.timeouts.Value(),
		NetErrors:   tax.neterrs.Value(),
		BadMessages: tax.badmsg.Value(),

		LatencyMsP50: snap.P50,
		LatencyMsP90: snap.P90,
		LatencyMsP99: snap.P99,
		LatencyMsMax: snap.Max,
	}
	res.Errors = res.Timeouts + res.NetErrors + res.BadMessages
	if elapsed > 0 {
		res.QPS = float64(res.Sent) / elapsed.Seconds()
	}
	return res, nil
}
