package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/netip"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/zone"
)

// Every benchmark name is n<7 digits>.example.test, so a query wire has a
// fixed length and the digits sit at a fixed offset: the generator patches
// ID and digits in place instead of encoding, and the tracing wrappers read
// the name index back from any query wire without decoding it.
const (
	benchOrigin = "example.test."
	nameDigits  = 7
	maxNames    = 10_000_000 // seven digits
	indexBits   = 24         // an index fits the low 24 bits of 10.x.y.z
	digitsOff   = 12 + 2     // header, label length byte, 'n'
)

func hostName(i int) dnswire.Name {
	return dnswire.Name(fmt.Sprintf("n%0*d.%s", nameDigits, i, benchOrigin))
}

// hostAddr encodes the name index into the address the zone holds for it,
// so a reply that belongs to another query cannot pass validation.
func hostAddr(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})
}

func addrIndex(a [4]byte) (int, bool) {
	if a[0] != 10 {
		return 0, false
	}
	return int(a[1])<<16 | int(a[2])<<8 | int(a[3]), true
}

// buildZones returns the root zone (delegating example.test to ns, which
// lives at 127.0.0.1) and the example.test zone with names 0..n-1, each an
// A record with the TTL ttlFor gives it. One authoritative server hosts
// both, as `authserver -zone .=… -zone example.test=…` would, so a leaf
// miss costs exactly one upstream exchange.
func buildZones(n int, ttlFor func(i int) uint32) (root, leaf *zone.Zone, err error) {
	if n > maxNames {
		return nil, nil, fmt.Errorf("bench: %d names exceed the %d the address scheme encodes", n, maxNames)
	}
	root = zone.New(dnswire.Root)
	leaf = zone.New(dnswire.NewName(benchOrigin))
	for _, step := range []struct {
		z  *zone.Zone
		rr dnswire.RR
	}{
		{root, dnswire.NewSOA(".", 86400, "a.root-servers.net.", "nstld.example.", 1, 1800, 900, 604800, 86400)},
		{root, dnswire.NewNS(".", 518400, "a.root-servers.net.")},
		{root, dnswire.NewA("a.root-servers.net.", 518400, "127.0.0.1")},
		{root, dnswire.NewNS(benchOrigin, 172800, "ns."+benchOrigin)},
		{root, dnswire.NewA("ns."+benchOrigin, 172800, "127.0.0.1")},
		{leaf, dnswire.NewSOA(benchOrigin, 3600, "ns."+benchOrigin, "hostmaster."+benchOrigin, 1, 1800, 900, 604800, 300)},
		{leaf, dnswire.NewNS(benchOrigin, 172800, "ns."+benchOrigin)},
		{leaf, dnswire.NewA("ns."+benchOrigin, 172800, "127.0.0.1")},
	} {
		if err := step.z.Add(step.rr); err != nil {
			return nil, nil, err
		}
	}
	for i := 0; i < n; i++ {
		rr := dnswire.RR{Name: hostName(i), Type: dnswire.TypeA, Class: dnswire.ClassIN,
			TTL: ttlFor(i), Data: dnswire.A{Addr: hostAddr(i)}}
		if err := leaf.Add(rr); err != nil {
			return nil, nil, err
		}
	}
	return root, leaf, nil
}

// queryTemplate is the wire of a recursive A query for name 0 with ID 0.
func queryTemplate() ([]byte, error) {
	return dnswire.Encode(dnswire.NewQuery(0, hostName(0), dnswire.TypeA))
}

// patchQuery rewrites the ID and the name index of a template wire in place.
func patchQuery(wire []byte, id uint16, idx int) {
	binary.BigEndian.PutUint16(wire, id)
	for p := digitsOff + nameDigits - 1; p >= digitsOff; p-- {
		wire[p] = byte('0' + idx%10)
		idx /= 10
	}
}

// wireIndex reads the name index back from a query (or reply) wire whose
// question is one of the benchmark's names; ok is false for any other.
func wireIndex(wire []byte) (idx int, ok bool) {
	if len(wire) < digitsOff+nameDigits || wire[12] != 1+nameDigits || wire[13] != 'n' {
		return 0, false
	}
	for _, c := range wire[digitsOff : digitsOff+nameDigits] {
		if c < '0' || c > '9' {
			return 0, false
		}
		idx = idx*10 + int(c-'0')
	}
	return idx, true
}

// appendCannedReply appends to dst the reply the zone would give to query
// (an answer with TTL 1), built by patching the query's bytes. The echo
// socket and the canned handlers answer with it, so that what they time is
// the generator or the listener and never a DNS server. ok is false when
// query is not for one of the benchmark's names.
func appendCannedReply(dst, query []byte) (reply []byte, ok bool) {
	idx, ok := wireIndex(query)
	if !ok {
		return dst, false
	}
	a := hostAddr(idx).As4()
	start := len(dst)
	dst = append(dst, query...)
	dst[start+2] |= 0x80 // QR
	dst[start+7] = 1     // ANCOUNT
	return append(dst, 0xC0, 12, 0, 1, 0, 1, 0, 0, 0, 1, 0, 4, a[0], a[1], a[2], a[3]), true
}

// verdict says why a reply was rejected; vOK means it passed every check.
type verdict uint8

const (
	vOK verdict = iota
	vTimeout
	vShort
	vID
	vFlags
	vRCode
	vCounts
	vQuestion
	vOwner
	vRecord
	vAddress
	vTTL
	numVerdicts
)

var verdictNames = [numVerdicts]string{"ok", "timeout", "short", "id", "not-a-response", "rcode",
	"counts", "question", "owner", "record", "address", "ttl"}

// checkReply validates resp against the query that was sent: ID echoed, QR
// set, NOERROR, the question echoed byte for byte, exactly one answer — the
// A record the zone holds for name idx — with 0 < TTL <= maxTTL. It reads
// the wire directly instead of through dnswire, so a codec fault cannot
// hide itself and distinct names cost the generator no interning.
func checkReply(resp, query []byte, idx int, maxTTL uint32) verdict {
	if len(resp) < 12 {
		return vShort
	}
	if resp[0] != query[0] || resp[1] != query[1] {
		return vID
	}
	if resp[2]&0x80 == 0 {
		return vFlags
	}
	if resp[3]&0x0F != 0 {
		return vRCode
	}
	if binary.BigEndian.Uint16(resp[4:]) != 1 || binary.BigEndian.Uint16(resp[6:]) != 1 {
		return vCounts
	}
	question := query[12:]
	if len(resp) < 12+len(question) || !bytes.Equal(resp[12:12+len(question)], question) {
		return vQuestion
	}
	off := 12 + len(question)
	qname := question[:len(question)-4]
	switch {
	case len(resp) >= off+2 && resp[off] == 0xC0 && resp[off+1] == 12:
		off += 2
	case len(resp) >= off+len(qname) && bytes.Equal(resp[off:off+len(qname)], qname):
		off += len(qname)
	default:
		return vOwner
	}
	if len(resp) < off+14 {
		return vShort
	}
	if binary.BigEndian.Uint16(resp[off:]) != uint16(dnswire.TypeA) ||
		binary.BigEndian.Uint16(resp[off+2:]) != uint16(dnswire.ClassIN) ||
		binary.BigEndian.Uint16(resp[off+8:]) != 4 {
		return vRecord
	}
	if got, ok := addrIndex([4]byte(resp[off+10 : off+14])); !ok || got != idx {
		return vAddress
	}
	if ttl := binary.BigEndian.Uint32(resp[off+4:]); ttl == 0 || ttl > maxTTL {
		return vTTL
	}
	return vOK
}
