package resolver

import (
	"fmt"
	"net/netip"

	"dnsttl/internal/cache"
	"dnsttl/internal/dnssec"
	"dnsttl/internal/dnswire"
)

// validateAnswer runs DNSSEC validation for an authoritative answer: fetch
// the covering RRSIG from the answering server and the signer's DNSKEY
// through normal (cached) resolution, then verify. Unsigned zones pass as
// "insecure" (no RRSIG exists); broken signatures fail the resolution.
func (r *Resolver) validateAnswer(server netip.Addr, name dnswire.Name, qtype dnswire.Type, rrs []dnswire.RR, res *Result, depth int) error {
	if len(rrs) == 0 || qtype == dnswire.TypeRRSIG || qtype == dnswire.TypeDNSKEY {
		return nil
	}
	sig, ok, err := r.fetchRRSIG(server, name, qtype, res)
	if err != nil || !ok {
		// No signature: the zone is unsigned — insecure but accepted,
		// as in real DNSSEC without a DS chain.
		return nil
	}
	signer := sig.Data.(dnswire.RRSIG).SignerName

	keyRR, err := r.fetchDNSKEY(signer, res, depth)
	if err != nil {
		return fmt.Errorf("resolver: DNSKEY for %s: %w", signer, err)
	}
	if err := dnssec.Verify(keyRR, rrs, sig, r.Clock.Now()); err != nil {
		return fmt.Errorf("resolver: validation of %s/%s failed: %w", name, qtype, err)
	}
	res.Validated = true
	return nil
}

// fetchRRSIG asks the answering server for the signature covering
// (name, qtype).
func (r *Resolver) fetchRRSIG(server netip.Addr, name dnswire.Name, qtype dnswire.Type, res *Result) (dnswire.RR, bool, error) {
	sp := res.Span.Child("fetch rrsig")
	qs := acquireQueryScratch()
	defer releaseQueryScratch(qs)
	resp, _, err := r.exchangeAny([]netip.Addr{server}, name, dnswire.TypeRRSIG, res, sp, qs)
	sp.Finish()
	if err != nil {
		return dnswire.RR{}, false, err
	}
	defer dnswire.ReleaseMessage(resp)
	for _, rr := range resp.AnswersFor(name, dnswire.TypeRRSIG) {
		if sig, ok := rr.Data.(dnswire.RRSIG); ok && sig.TypeCovered == qtype {
			return rr, true, nil
		}
	}
	return dnswire.RR{}, false, nil
}

// fetchDNSKEY resolves the signer zone's key, using the cache across
// validations.
func (r *Resolver) fetchDNSKEY(signer dnswire.Name, res *Result, depth int) (dnswire.RR, error) {
	if e, _, ok := r.Cache.Get(signer, dnswire.TypeDNSKEY); ok && e.Negative == cache.NotNegative && len(e.RRs) > 0 {
		return e.RRs[0], nil
	}
	sub, err := r.subResolve(signer, dnswire.TypeDNSKEY, res, depth+1)
	if err != nil {
		return dnswire.RR{}, err
	}
	if len(sub.Msg.Answer) == 0 {
		return dnswire.RR{}, fmt.Errorf("resolver: zone %s has no DNSKEY", signer)
	}
	return sub.Msg.Answer[0], nil
}
