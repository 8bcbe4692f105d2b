// Package dnssec implements the slice of DNSSEC the paper leans on (§2,
// §6.3): RRsets are signed by the child zone, the signature binds the
// original TTL, and validation therefore requires fetching the child's
// records — a validating resolver is structurally child-centric.
//
// The record formats are real (RFC 4034 DNSKEY/RRSIG/DS through the wire
// codec); the cryptography is an HMAC-SHA256 construction standing in for
// public-key signatures, which preserves every property the paper's
// analysis depends on: signatures bind owner, type, RDATA set and
// OriginalTTL, verification needs the zone's key, and tampering (including
// TTL inflation beyond the original) is detected. It is not, and does not
// need to be, real asymmetric crypto.
package dnssec

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/zone"
)

// algHMACLab is the private-use algorithm number carried in the records.
const algHMACLab = 253

// Key is a zone's signing key.
type Key struct {
	Zone   dnswire.Name
	Secret []byte
}

// NewKey derives a deterministic key for a zone from a seed.
func NewKey(z dnswire.Name, seed int64) *Key {
	h := sha256.New()
	fmt.Fprintf(h, "dnsttl-key:%s:%d", z, seed)
	return &Key{Zone: z, Secret: h.Sum(nil)}
}

// DNSKEY returns the public record form of the key (in this construction
// the verifier holds the same material, as with a shared-secret TSIG).
func (k *Key) DNSKEY(ttl uint32) dnswire.RR {
	return dnswire.RR{
		Name: k.Zone, Type: dnswire.TypeDNSKEY, Class: dnswire.ClassIN, TTL: ttl,
		Data: dnswire.DNSKEY{Flags: 257, Protocol: 3, Algorithm: algHMACLab, PublicKey: k.Secret},
	}
}

// KeyTag computes an RFC 4034 appendix-B-style tag over the key material.
func (k *Key) KeyTag() uint16 {
	var acc uint32
	for i, b := range k.Secret {
		if i&1 == 0 {
			acc += uint32(b) << 8
		} else {
			acc += uint32(b)
		}
	}
	acc += acc >> 16 & 0xFFFF
	return uint16(acc)
}

// signedData serializes what the signature covers: owner, class, type,
// OriginalTTL, validity window and the canonically-ordered RDATA set
// (RFC 4034 §3.1.8.1, simplified).
func signedData(rrs []dnswire.RR, origTTL uint32, expiration, inception uint32) []byte {
	if len(rrs) == 0 {
		return nil
	}
	var buf []byte
	buf = append(buf, []byte(rrs[0].Name)...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(rrs[0].Type))
	buf = binary.BigEndian.AppendUint16(buf, uint16(rrs[0].Class))
	buf = binary.BigEndian.AppendUint32(buf, origTTL)
	buf = binary.BigEndian.AppendUint32(buf, expiration)
	buf = binary.BigEndian.AppendUint32(buf, inception)
	rdata := make([]string, 0, len(rrs))
	for _, rr := range rrs {
		rdata = append(rdata, rr.Data.String())
	}
	sort.Strings(rdata)
	for _, d := range rdata {
		buf = append(buf, d...)
		buf = append(buf, 0)
	}
	return buf
}

// Sign produces the RRSIG covering rrs. All records must share owner and
// type; the RRset TTL becomes OriginalTTL — the value validation pins.
func Sign(k *Key, rrs []dnswire.RR, now time.Time, validity time.Duration) (dnswire.RR, error) {
	if len(rrs) == 0 {
		return dnswire.RR{}, fmt.Errorf("dnssec: empty RRset")
	}
	owner, typ, ttl := rrs[0].Name, rrs[0].Type, rrs[0].TTL
	for _, rr := range rrs {
		if rr.Name != owner || rr.Type != typ {
			return dnswire.RR{}, fmt.Errorf("dnssec: mixed RRset (%s/%s vs %s/%s)", rr.Name, rr.Type, owner, typ)
		}
	}
	if !owner.IsSubdomainOf(k.Zone) {
		return dnswire.RR{}, fmt.Errorf("dnssec: %s outside zone %s", owner, k.Zone)
	}
	if validity <= 0 {
		validity = 14 * 24 * time.Hour
	}
	inception := uint32(now.Unix())
	expiration := uint32(now.Add(validity).Unix())
	mac := hmac.New(sha256.New, k.Secret)
	mac.Write(signedData(rrs, ttl, expiration, inception))
	sig := dnswire.RRSIG{
		TypeCovered: typ,
		Algorithm:   algHMACLab,
		Labels:      uint8(owner.CountLabels()),
		OriginalTTL: ttl,
		Expiration:  expiration,
		Inception:   inception,
		KeyTag:      k.KeyTag(),
		SignerName:  k.Zone,
		Signature:   mac.Sum(nil),
	}
	return dnswire.RR{Name: owner, Type: dnswire.TypeRRSIG, Class: dnswire.ClassIN, TTL: ttl, Data: sig}, nil
}

// Validation errors.
type ValidationError struct{ Reason string }

func (e *ValidationError) Error() string { return "dnssec: " + e.Reason }

// Verify checks sig over rrs with key material. It enforces the paper's
// §2 point: the received TTL may be lower (decayed) but never higher than
// the signed OriginalTTL.
func Verify(keyRR dnswire.RR, rrs []dnswire.RR, sigRR dnswire.RR, now time.Time) error {
	key, ok := keyRR.Data.(dnswire.DNSKEY)
	if !ok {
		return &ValidationError{"key record is not a DNSKEY"}
	}
	sig, ok := sigRR.Data.(dnswire.RRSIG)
	if !ok {
		return &ValidationError{"signature record is not an RRSIG"}
	}
	if len(rrs) == 0 {
		return &ValidationError{"empty RRset"}
	}
	if sig.TypeCovered != rrs[0].Type {
		return &ValidationError{"type covered mismatch"}
	}
	nowU := uint32(now.Unix())
	if nowU > sig.Expiration {
		return &ValidationError{"signature expired"}
	}
	if nowU < sig.Inception {
		return &ValidationError{"signature not yet valid"}
	}
	for _, rr := range rrs {
		if rr.TTL > sig.OriginalTTL {
			return &ValidationError{fmt.Sprintf("TTL %d exceeds signed original %d", rr.TTL, sig.OriginalTTL)}
		}
	}
	// Recompute over the RDATA with the signed OriginalTTL.
	canon := make([]dnswire.RR, len(rrs))
	copy(canon, rrs)
	for i := range canon {
		canon[i].TTL = sig.OriginalTTL
	}
	mac := hmac.New(sha256.New, key.PublicKey)
	mac.Write(signedData(canon, sig.OriginalTTL, sig.Expiration, sig.Inception))
	if !hmac.Equal(mac.Sum(nil), sig.Signature) {
		return &ValidationError{"signature mismatch"}
	}
	return nil
}

// SignZone signs every RRset in z (except RRSIGs themselves) and inserts
// the DNSKEY at the apex. Returns the number of RRSIGs added.
func SignZone(z *zone.Zone, k *Key, now time.Time) (int, error) {
	if err := z.Add(k.DNSKEY(3600)); err != nil {
		return 0, err
	}
	n := 0
	for _, set := range z.AllSets() {
		if set.Type == dnswire.TypeRRSIG {
			continue
		}
		sig, err := Sign(k, set.RRs, now, 0)
		if err != nil {
			return n, err
		}
		if err := z.Add(sig); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}
