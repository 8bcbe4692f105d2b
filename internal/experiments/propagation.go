package experiments

import (
	"fmt"
	"time"

	"dnsttl/internal/atlas"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/stats"
)

// PropagationSweep quantifies §6.1's agility claim: "since there is no
// method to remove cached DNS records, the TTL duration represents a
// necessary transition delay". The operator changes a service address at a
// fixed time; we measure, per TTL, how long until (nearly) every client
// sees the new one.
// Each TTL point is an independent sweep cell fanned across workers.
func PropagationSweep(probes, workers int, seed int64) *Report {
	ttls := []uint32{60, 600, 1800, 3600}
	const (
		interval    = 60 * time.Second
		rounds      = 75 // 75 minutes
		changeRound = 5
	)
	name := dnswire.NewName("www.cachetest.net")
	oldAddr, newAddr := mustA99("192.88.99.80"), mustA99("198.51.100.99")

	run := func(ttl uint32) (lagRounds int, tail float64) {
		tb := NewTestbed(seed)
		if !tb.Ct.SetTTL(name, dnswire.TypeA, ttl) {
			panic("missing record")
		}
		fleet := tb.Fleet(probes, nil, seed)
		resps := fleet.Run(tb.Clock, atlas.Schedule{
			Name: name, Type: dnswire.TypeA,
			Interval: interval, Rounds: rounds, Jitter: true,
			OnRound: func(r int) {
				if r == changeRound {
					if err := tb.Ct.Replace(name, dnswire.TypeA,
						dnswire.RR{Name: name, Type: dnswire.TypeA, Class: dnswire.ClassIN,
							TTL: ttl, Data: newAddr}); err != nil {
						panic(err)
					}
				}
			},
		})
		// Per-round share of answers still carrying the old address.
		oldPerRound := make([]int, rounds)
		totPerRound := make([]int, rounds)
		for _, r := range resps {
			if !r.Valid() {
				continue
			}
			totPerRound[r.Round]++
			if r.Answer == oldAddr {
				oldPerRound[r.Round]++
			}
		}
		lag := rounds - changeRound // pessimistic default
		for r := changeRound; r < rounds; r++ {
			if totPerRound[r] == 0 {
				continue
			}
			if frac(oldPerRound[r], totPerRound[r]) <= 0.01 {
				lag = r - changeRound
				break
			}
		}
		lastOld := 0.0
		if totPerRound[rounds-1] > 0 {
			lastOld = frac(oldPerRound[rounds-1], totPerRound[rounds-1])
		}
		return lag, lastOld
	}

	type point struct {
		lag  int
		tail float64
	}
	pts := Sweep(len(ttls), workers, func(i int) point {
		lag, tail := run(ttls[i])
		return point{lag: lag, tail: tail}
	})

	tbl := &stats.Table{
		Title:  "Renumbering propagation: minutes until <=1% of answers carry the old address",
		Header: []string{"TTL (s)", "propagation (min)", "old share at t=75min"},
	}
	m := map[string]float64{}
	for i, ttl := range ttls {
		lag, tail := pts[i].lag, pts[i].tail
		tbl.AddRow(fmt.Sprintf("%d", ttl), fmt.Sprintf("%d", lag), fmt.Sprintf("%.1f%%", 100*tail))
		m[fmt.Sprintf("lag_min_ttl_%d", ttl)] = float64(lag)
		m[fmt.Sprintf("tail_old_ttl_%d", ttl)] = tail
	}
	return &Report{
		ID:      "§6.1 propagation",
		Title:   "The TTL is the transition delay: renumbering propagates in ≈TTL",
		Text:    tbl.String(),
		Metrics: m,
	}
}

func mustA99(s string) dnswire.A {
	return dnswire.NewA("x.example", 1, s).Data.(dnswire.A)
}
