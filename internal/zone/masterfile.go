package zone

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"strings"

	"dnsttl/internal/dnswire"
)

// Parse reads a zone in a practical subset of RFC 1035 master-file syntax:
// one record per line, $ORIGIN and $TTL directives, "@" for the origin,
// relative names, comments with ";", and the record types this module
// models. Parentheses-continued records are joined onto one line first.
func Parse(r io.Reader, origin dnswire.Name) (*Zone, error) {
	z := New(origin)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var (
		curOrigin  = origin
		defaultTTL = uint32(3600)
		lineNo     = 0
		pending    strings.Builder
		openParens = 0
	)
	process := func(line string) error {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			return nil
		}
		switch strings.ToUpper(fields[0]) {
		case "$ORIGIN":
			if len(fields) < 2 {
				return fmt.Errorf("$ORIGIN needs an argument")
			}
			curOrigin = dnswire.NewName(fields[1])
			return nil
		case "$TTL":
			if len(fields) < 2 {
				return fmt.Errorf("$TTL needs an argument")
			}
			ttl, err := parseTTL(fields[1])
			if err != nil {
				return err
			}
			defaultTTL = ttl
			return nil
		}
		rr, err := parseRecord(fields, curOrigin, defaultTTL)
		if err != nil {
			return err
		}
		return z.Add(rr)
	}
	for sc.Scan() {
		lineNo++
		// Fold multi-line records.
		line, depth := unquoted(sc.Text())
		if openParens > 0 || depth > 0 {
			pending.WriteString(" " + line)
			openParens += depth
			if openParens > 0 {
				continue
			}
			line = pending.String()
			pending.Reset()
		}
		if err := process(line); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if openParens > 0 {
		return nil, fmt.Errorf("unbalanced parentheses at end of file")
	}
	return z, nil
}

// unquoted reads the syntax of one line that lives outside quoted text: it
// cuts the line at a ";" comment and blanks the parentheses, which only fold
// a record over lines, returning the depth they add (opens minus closes).
func unquoted(line string) (string, int) {
	out := []byte(line)
	depth, quoted := 0, false
	for i, c := range out {
		switch {
		case c == '"':
			quoted = !quoted
		case quoted:
		case c == ';':
			return string(out[:i]), depth
		case c == '(':
			out[i], depth = ' ', depth+1
		case c == ')':
			out[i], depth = ' ', depth-1
		}
	}
	return string(out), depth
}

// rdataFields is the exact RDATA field count of the types that have one.
var rdataFields = map[dnswire.Type]int{dnswire.TypeA: 1, dnswire.TypeAAAA: 1, dnswire.TypeNS: 1,
	dnswire.TypeCNAME: 1, dnswire.TypePTR: 1, dnswire.TypeMX: 2, dnswire.TypeSOA: 7}

// parseRecord parses: name [ttl] [class] type rdata...
func parseRecord(fields []string, origin dnswire.Name, defaultTTL uint32) (dnswire.RR, error) {
	if len(fields) < 3 {
		return dnswire.RR{}, fmt.Errorf("record needs at least name, type and rdata: %v", fields)
	}
	name := absName(fields[0], origin)
	if err := name.Valid(); err != nil {
		return dnswire.RR{}, err
	}
	rest := fields[1:]

	ttl := defaultTTL
	if v, err := parseTTL(rest[0]); err == nil {
		ttl = v
		rest = rest[1:]
	}
	if len(rest) > 0 && strings.EqualFold(rest[0], "IN") {
		rest = rest[1:]
	}
	// TTL may also follow the class.
	if len(rest) > 0 {
		if v, err := parseTTL(rest[0]); err == nil {
			ttl = v
			rest = rest[1:]
		}
	}
	if len(rest) == 0 {
		return dnswire.RR{}, fmt.Errorf("missing RR type")
	}
	t, err := dnswire.ParseType(strings.ToUpper(rest[0]))
	if err != nil {
		return dnswire.RR{}, err
	}
	rdata := rest[1:]
	rr := dnswire.RR{Name: name, Type: t, Class: dnswire.ClassIN, TTL: ttl}
	// rdataName is absName for a name in the RDATA, which must be as valid
	// as an owner: the record is refused below on the first that is not.
	var badName error
	rdataName := func(s string) dnswire.Name {
		n := absName(s, origin)
		if err := n.Valid(); err != nil && badName == nil {
			badName = err
		}
		return n
	}
	if want, ok := rdataFields[t]; ok && len(rdata) != want {
		return rr, fmt.Errorf("%s needs %d RDATA field(s), got %d", t, want, len(rdata))
	}
	switch t {
	case dnswire.TypeA, dnswire.TypeAAAA:
		addr, err := netip.ParseAddr(rdata[0])
		switch {
		case err != nil:
			return rr, err
		case t == dnswire.TypeA && addr.Is4():
			rr.Data = dnswire.A{Addr: addr}
		case t == dnswire.TypeAAAA && addr.Is6() && !addr.Is4In6():
			rr.Data = dnswire.AAAA{Addr: addr}
		default:
			return rr, fmt.Errorf("%s record with address %s", t, addr)
		}
	case dnswire.TypeNS:
		rr.Data = dnswire.NS{Host: rdataName(rdata[0])}
	case dnswire.TypeCNAME:
		rr.Data = dnswire.CNAME{Target: rdataName(rdata[0])}
	case dnswire.TypePTR:
		rr.Data = dnswire.PTR{Target: rdataName(rdata[0])}
	case dnswire.TypeMX:
		pref, err := strconv.ParseUint(rdata[0], 10, 16)
		if err != nil {
			return rr, fmt.Errorf("MX preference: %w", err)
		}
		rr.Data = dnswire.MX{Preference: uint16(pref), Host: rdataName(rdata[1])}
	case dnswire.TypeTXT:
		var txt dnswire.TXT
		for _, f := range rdata {
			txt.Strings = append(txt.Strings, strings.Trim(f, `"`))
		}
		rr.Data = txt
	case dnswire.TypeSOA:
		var nums [5]uint32
		for i := 0; i < 5; i++ {
			v, err := parseTTL(rdata[2+i])
			if err != nil {
				return rr, fmt.Errorf("SOA field %d: %w", 2+i, err)
			}
			nums[i] = v
		}
		rr.Data = dnswire.SOA{
			MName: rdataName(rdata[0]), RName: rdataName(rdata[1]),
			Serial: nums[0], Refresh: nums[1], Retry: nums[2], Expire: nums[3], Minimum: nums[4],
		}
	case dnswire.TypeDNSKEY:
		if len(rdata) < 4 {
			return rr, fmt.Errorf("DNSKEY needs 4 fields")
		}
		flags, err := strconv.ParseUint(rdata[0], 10, 16)
		if err != nil {
			return rr, err
		}
		proto, err := strconv.ParseUint(rdata[1], 10, 8)
		if err != nil {
			return rr, err
		}
		alg, err := strconv.ParseUint(rdata[2], 10, 8)
		if err != nil {
			return rr, err
		}
		rr.Data = dnswire.DNSKEY{
			Flags: uint16(flags), Protocol: uint8(proto), Algorithm: uint8(alg),
			PublicKey: []byte(strings.Join(rdata[3:], "")),
		}
	default:
		return rr, fmt.Errorf("unsupported type %s in master file", t)
	}
	return rr, badName
}

func absName(s string, origin dnswire.Name) dnswire.Name {
	if s == "@" {
		return origin
	}
	if strings.HasSuffix(s, ".") {
		return dnswire.NewName(s)
	}
	if origin.IsRoot() {
		return dnswire.NewName(s)
	}
	return dnswire.NewName(s + "." + string(origin))
}

// parseTTL accepts plain seconds or BIND-style unit suffixes (30m, 2h, 1d, 1w).
func parseTTL(s string) (uint32, error) {
	if s == "" {
		return 0, fmt.Errorf("empty TTL")
	}
	mult := uint64(1)
	last := s[len(s)-1]
	switch last {
	case 's', 'S':
		s = s[:len(s)-1]
	case 'm', 'M':
		mult, s = 60, s[:len(s)-1]
	case 'h', 'H':
		mult, s = 3600, s[:len(s)-1]
	case 'd', 'D':
		mult, s = 86400, s[:len(s)-1]
	case 'w', 'W':
		mult, s = 604800, s[:len(s)-1]
	}
	v, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad TTL %q", s)
	}
	v *= mult
	if v > dnswire.MaxTTL {
		return 0, fmt.Errorf("TTL %d exceeds 2^31-1", v)
	}
	return uint32(v), nil
}
