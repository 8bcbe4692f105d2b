package experiments

import (
	"fmt"
	"strings"
	"testing"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/race"
)

const (
	abuseQueries = 800
	abuseSeed    = 42
)

// TestAbuseOutcomes pins the story the golden bytes must tell, so a
// legitimate -update can't silently regress the protections:
// the flood bypasses the cache when unprotected, RRL cuts the reflected
// amplification ≥5×, edge limiting starves the authoritative of attack
// queries, and no defense costs the honest stream a full hit-point.
func TestAbuseOutcomes(t *testing.T) {
	rep := WaterTortureRun(abuseQueries, 0, abuseSeed)
	cells := map[string]AbuseCell{}
	for _, c := range rep.Cells {
		cells[c.Protection+"/"+c.Topology.String()+"/f"+string(rune('0'+c.Frontends))] = c
	}
	shapes := []string{"private/f1", "private/f4", "shared/f4"}
	get := func(p, shape string) AbuseCell {
		c, ok := cells[p+"/"+shape]
		if !ok {
			t.Fatalf("missing cell %s/%s", p, shape)
		}
		return c
	}

	for _, sh := range shapes {
		open := get("open", sh)

		// Unprotected, every unique qname defeats the cache: ≥90% of the
		// flood reaches the authoritative and is answered in full.
		if open.BypassMilli < 900 {
			t.Errorf("%s open: bypass %d‰, want ≥900‰ (unique qnames must defeat the cache)", sh, open.BypassMilli)
		}
		if open.AuthAttackFull < open.AttackQueries*9/10 {
			t.Errorf("%s open: only %d/%d full responses reflected", sh, open.AuthAttackFull, open.AttackQueries)
		}

		// RRL: ≥5× fewer full (amplifiable) responses, with slips present
		// so spoofed-into-a-bucket honest clients keep a TCP escape hatch.
		for _, p := range []string{"rrl", "full"} {
			prot := get(p, sh)
			if prot.AuthAttackFull*5 > open.AuthAttackFull {
				t.Errorf("%s %s: amplification cut %d→%d is under 5×", sh, p, open.AuthAttackFull, prot.AuthAttackFull)
			}
		}
		rrl := get("rrl", sh)
		if rrl.AuthAttackSlip == 0 || rrl.RRLSlipped == 0 {
			t.Errorf("%s rrl: no slipped (TC=1) responses observed", sh)
		}
		if rrl.AuthAttackDrop == 0 || rrl.RRLDropped == 0 {
			t.Errorf("%s rrl: no dropped responses observed", sh)
		}
		// RRL does not reduce received queries — it limits responses.
		if rrl.BypassMilli < 900 {
			t.Errorf("%s rrl: bypass %d‰; RRL should not mask the cache-bypass rate", sh, rrl.BypassMilli)
		}

		// Edge limiting cuts what even reaches the authoritative. Each
		// frontend runs its own bucket, so the cut divides by the farm
		// size: ≥5× behind one frontend, ≥3× behind four.
		wantCut := 5
		if strings.Contains(sh, "f4") {
			wantCut = 3
		}
		for _, p := range []string{"edge", "full"} {
			prot := get(p, sh)
			if prot.AuthAttackRx*wantCut > open.AuthAttackRx {
				t.Errorf("%s %s: attack rx cut %d→%d is under %d×", sh, p, open.AuthAttackRx, prot.AuthAttackRx, wantCut)
			}
			if prot.AttackLimited == 0 || prot.EdgeLimited == 0 {
				t.Errorf("%s %s: edge limiter never fired (limited=%d, counter=%d)", sh, p, prot.AttackLimited, prot.EdgeLimited)
			}
		}

		// Collateral: every honest query answered, and no protection moves
		// the honest hit rate by a full hit-point (10 milli).
		for _, p := range []string{"open", "rrl", "edge", "full"} {
			c := get(p, sh)
			if c.HonestAnswered != c.HonestQueries {
				t.Errorf("%s %s: honest answered %d/%d", sh, p, c.HonestAnswered, c.HonestQueries)
			}
			d := c.HonestHitMilli - open.HonestHitMilli
			if d < 0 {
				d = -d
			}
			if d >= 10 {
				t.Errorf("%s %s: honest hit rate moved %d milli (open %d‰ vs %d‰), want <10", sh, p, d, open.HonestHitMilli, c.HonestHitMilli)
			}
		}
	}
}

// TestAttackNameSpelling pins attackName to the qname it replaced,
// fmt's "wt%06d.example.org" made a Name.
func TestAttackNameSpelling(t *testing.T) {
	for _, seq := range []int{0, 7, 42, 99999, 123456, 1234567} {
		want := dnswire.NewName(fmt.Sprintf("%s%06d.example.org", abuseAttackPrefix, seq))
		if got := dnswire.Name(attackName(nil, seq)); got != want {
			t.Errorf("attackName(%d) = %q, want %q", seq, got, want)
		}
	}
}

// TestTapDecodeAllocFree pins a tap's decode of a query and of its reply
// at zero allocations once the pooled Decoder has seen the names.
func TestTapDecodeAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts of pooled paths are not stable under -race")
	}
	name := dnswire.NewName("wt000001.example.org")
	q := dnswire.NewIterativeQuery(7, name, dnswire.TypeA)
	resp := q.Reply()
	resp.AddAnswer(dnswire.NewA("wt000001.example.org", 300, "198.18.0.1"))
	qWire, _ := dnswire.Encode(q)
	rWire, _ := dnswire.Encode(resp)
	var m dnswire.Message
	allocs := testing.AllocsPerRun(100, func() {
		if !tapDecode(&m, qWire) || m.Q().Name != name {
			t.Fatal("query did not decode")
		}
		if !tapDecode(&m, rWire) || len(m.Answer) != 1 {
			t.Fatal("reply did not decode")
		}
	})
	if allocs != 0 {
		t.Errorf("warm tap decode costs %.1f allocs, want 0", allocs)
	}
}
