package experiments

import (
	"bytes"
	"context"
	"net/netip"
	"reflect"
	"testing"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/latency"
	"dnsttl/internal/middleware"
	"dnsttl/internal/resolver"
	"dnsttl/internal/simnet"
)

// TestDefaultPipelineEquivalence is the refactor's safety property: the
// zero-config middleware pipeline must be byte-for-byte the pre-refactor
// datapath. It replays every chaos golden scenario twice from the same
// seed — once calling resolver.Resolve directly (the old facade path),
// once through middleware.Default wrapping the same lookup — and compares
// each resolution's encoded wire message and full trace. The chaos
// scenarios are the hardest cases on purpose: timeouts, retries with
// jittered backoff, hedging, serve-stale, and SERVFAIL storms all have to
// come out identical through the extra layer.
func TestDefaultPipelineEquivalence(t *testing.T) {
	const probes = 4
	const seed = 42
	for _, sc := range ChaosScenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			direct := equivReplay(t, sc, probes, seed, false)
			piped := equivReplay(t, sc, probes, seed, true)
			if len(direct) != len(piped) {
				t.Fatalf("resolution counts differ: %d direct, %d piped", len(direct), len(piped))
			}
			for i := range direct {
				if !bytes.Equal(direct[i].wire, piped[i].wire) {
					t.Fatalf("resolution %d: wire bytes differ\ndirect: %x\npiped:  %x",
						i, direct[i].wire, piped[i].wire)
				}
				if !reflect.DeepEqual(direct[i].trace, piped[i].trace) {
					t.Fatalf("resolution %d: traces differ\ndirect: %+v\npiped:  %+v",
						i, direct[i].trace, piped[i].trace)
				}
			}
		})
	}
}

// equivRecord is one resolution's observable outcome: the encoded answer
// and the complete trace.
type equivRecord struct {
	wire  []byte
	trace resolver.Trace
}

// equivReplay mirrors ChaosReplay's world exactly, but records every
// resolution, optionally routing it through a zero-config pipeline.
func equivReplay(t *testing.T, sc ChaosScenario, probes int, seed int64, piped bool) []equivRecord {
	t.Helper()
	tb := NewTestbed(seed)
	if !tb.Ct.SetTTL(dnswire.NewName("www.cachetest.net"), dnswire.TypeA, 60) {
		t.Fatal("missing record")
	}
	if sc.SecondNS {
		tb.Ct.MustAdd(
			dnswire.NewNS("cachetest.net", 3600, "ns2.cachetest.net"),
			dnswire.NewA("ns2.cachetest.net", 3600, chaosNS2Addr.String()),
		)
		tb.Net_.MustAdd(
			dnswire.NewNS("cachetest.net", 172800, "ns2.cachetest.net"),
			dnswire.NewA("ns2.cachetest.net", 172800, chaosNS2Addr.String()),
		)
		tb.Net.Attach(chaosNS2Addr, tb.Servers[tb.CtAddr])
		tb.Topo.Place(chaosNS2Addr, latency.SA)
	}
	if sc.Spec != "" {
		fs, err := simnet.ParseFaultSchedule(sc.Spec)
		if err != nil {
			t.Fatalf("chaos scenario %s: %v", sc.Name, err)
		}
		fs.Seed = seed
		tb.Net.Faults = fs
	}

	pol := resolver.DefaultPolicy()
	pol.ServeStale = sc.ServeStale
	pol.Retry = sc.Retry

	regions := []latency.Region{latency.EU, latency.NA, latency.SA}
	type leg func(name dnswire.Name, qtype dnswire.Type) (*resolver.Result, error)
	legs := make([]leg, probes)
	for i := range legs {
		addr := netip.AddrFrom4([4]byte{10, 9, byte(i >> 8), byte(i)})
		tb.Topo.Place(addr, regions[i%len(regions)])
		r := resolver.New(addr, pol, tb.Net, tb.Clock,
			[]netip.Addr{tb.RootAddr}, seed+int64(i))
		if !piped {
			legs[i] = r.Resolve
			continue
		}
		p := middleware.Default(middleware.Env{Lookup: r.Resolve, Clock: tb.Clock})
		client := netip.AddrFrom4([4]byte{10, 10, 0, byte(i + 1)})
		legs[i] = func(name dnswire.Name, qtype dnswire.Type) (*resolver.Result, error) {
			resp, err := p.Resolve(context.Background(),
				&middleware.Query{Name: name, Type: qtype, Client: client})
			if err != nil {
				return nil, err
			}
			return resp.Result, nil
		}
	}

	name := dnswire.NewName("www.cachetest.net")
	var out []equivRecord
	for round := 0; round < chaosRounds; round++ {
		for _, lookup := range legs {
			res, err := lookup(name, dnswire.TypeA)
			if err != nil || res == nil {
				t.Fatalf("round %d: unexpected resolution error: %v", round, err)
			}
			wire, err := dnswire.Encode(res.Msg)
			if err != nil {
				t.Fatalf("round %d: encode: %v", round, err)
			}
			out = append(out, equivRecord{wire: wire, trace: res.Trace})
		}
		tb.Clock.Advance(chaosInterval)
	}
	return out
}
