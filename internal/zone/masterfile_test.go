package zone

import (
	"reflect"
	"strings"
	"testing"

	"dnsttl/internal/dnswire"
)

const sampleZone = `
$ORIGIN example.org.
$TTL 3600
@        86400 IN SOA ns1 admin 2019021301 7200 3600 1209600 300
@        172800 IN NS ns1
@        172800 IN NS ns2.dns-host.com.
ns1      86400 IN A 192.0.2.1
www      300 IN A 192.0.2.80 ; web server
www      300 IN AAAA 2001:db8::80
mail     IN CNAME www
@        IN MX 10 mx
txt      IN TXT "hello world" "second"
key      IN DNSKEY 257 3 8 AwEAAbbbbb
sub      7200 IN NS ns1.sub
ns1.sub  7200 IN A 192.0.2.53
multi    1h IN SOA ns1 admin (
             1     ; serial
             7200  ; refresh
             3600  ; retry
             1209600
             300 )
`

func TestParseMasterFile(t *testing.T) {
	z, err := Parse(strings.NewReader(sampleZone), dnswire.NewName("example.org"))
	if err != nil {
		t.Fatal(err)
	}
	soa, ok := z.SOA()
	if !ok {
		t.Fatal("no SOA parsed")
	}
	sd := soa.Data.(dnswire.SOA)
	if sd.MName != dnswire.NewName("ns1.example.org") || sd.Serial != 2019021301 {
		t.Errorf("SOA = %+v", sd)
	}
	ns := z.Get(dnswire.NewName("example.org"), dnswire.TypeNS)
	if len(ns.RRs) != 2 || ns.TTL != 172800 {
		t.Errorf("NS set = %+v", ns)
	}
	if host := ns.RRs[1].Data.(dnswire.NS).Host; host != dnswire.NewName("ns2.dns-host.com") {
		t.Errorf("absolute NS name mishandled: %v", host)
	}
	www := z.Get(dnswire.NewName("www.example.org"), dnswire.TypeA)
	if www == nil || www.TTL != 300 {
		t.Errorf("www A = %+v (comment stripping or TTL parse broken)", www)
	}
	cn := z.Get(dnswire.NewName("mail.example.org"), dnswire.TypeCNAME)
	if cn == nil || cn.TTL != 3600 {
		t.Errorf("default $TTL not applied: %+v", cn)
	}
	txt := z.Get(dnswire.NewName("txt.example.org"), dnswire.TypeTXT)
	if txt == nil || txt.RRs[0].Data.(dnswire.TXT).Strings[0] != "hello" {
		// strings.Fields splits on spaces so quoted strings with spaces
		// arrive as separate tokens; verify at least both tokens survive.
		if txt == nil || len(txt.RRs[0].Data.(dnswire.TXT).Strings) < 2 {
			t.Errorf("TXT = %+v", txt)
		}
	}
	key := z.Get(dnswire.NewName("key.example.org"), dnswire.TypeDNSKEY)
	if key == nil || key.RRs[0].Data.(dnswire.DNSKEY).Flags != 257 {
		t.Errorf("DNSKEY = %+v", key)
	}
	multi := z.Get(dnswire.NewName("multi.example.org"), dnswire.TypeSOA)
	if multi == nil || multi.TTL != 3600 {
		t.Errorf("parenthesized record = %+v", multi)
	}
	if multi.RRs[0].Data.(dnswire.SOA).Expire != 1209600 {
		t.Errorf("multi-line SOA fields = %+v", multi.RRs[0].Data)
	}
}

func TestParseTTLUnits(t *testing.T) {
	cases := []struct {
		in   string
		want uint32
		ok   bool
	}{
		{"0", 0, true},
		{"600", 600, true},
		{"30m", 1800, true},
		{"2h", 7200, true},
		{"1d", 86400, true},
		{"1w", 604800, true},
		{"60s", 60, true},
		{"", 0, false},
		{"m", 0, false},
		{"1x1", 0, false},
		{"4294967296", 0, false}, // > 2^31-1 after range check
	}
	for _, c := range cases {
		got, err := parseTTL(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("parseTTL(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("parseTTL(%q) should fail", c.in)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"$ORIGIN",                      // missing arg
		"$TTL",                         // missing arg
		"$TTL abc",                     // bad ttl
		"www IN A",                     // missing rdata
		"www IN A 1.2.3.4 5.6.7.8",     // too many fields
		"www IN NOPE x",                // unknown type
		"www IN MX ten mx.example.org", // bad preference
		"www IN SOA a b 1 2 3",         // short SOA
		"www IN A 1.2.3.4 (",           // unbalanced paren
		"x 300 IN A 1.2.3",             // short address: an error, not a panic
		"x IN A 2001:db8::1",           // IPv6 in an A record
		"x IN AAAA 192.0.2.1",          // IPv4 in an AAAA record
		"x..y IN A 192.0.2.1",          // empty label
	}
	for _, b := range bad {
		if _, err := Parse(strings.NewReader(b), dnswire.NewName("example.org")); err == nil {
			t.Errorf("Parse(%q) should fail", b)
		}
	}
}

func TestAbsName(t *testing.T) {
	origin := dnswire.NewName("example.org")
	if absName("@", origin) != origin {
		t.Errorf("@ should be origin")
	}
	if absName("www", origin) != dnswire.NewName("www.example.org") {
		t.Errorf("relative name broken")
	}
	if absName("other.com.", origin) != dnswire.NewName("other.com") {
		t.Errorf("absolute name broken")
	}
	if absName("tld", dnswire.Root) != dnswire.NewName("tld") {
		t.Errorf("root-origin relative name broken")
	}
}

// TestParseQuotedSyntax pins that parentheses and ";" inside quoted text are
// data, not folding or comments.
func TestParseQuotedSyntax(t *testing.T) {
	z, err := Parse(strings.NewReader("x TXT \"a(b\" \"c;d\" ; comment\ny TXT ( \"e)f\"\n  \"g\" )\n"), dnswire.NewName("example.org"))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string][]string{"x.example.org": {"a(b", "c;d"}, "y.example.org": {"e)f", "g"}} {
		set := z.Get(dnswire.NewName(name), dnswire.TypeTXT)
		if set == nil || !reflect.DeepEqual(set.RRs[0].Data.(dnswire.TXT).Strings, want) {
			t.Errorf("%s TXT = %+v, want %q", name, set, want)
		}
	}
}

// FuzzParse holds the contract authserver leans on when it reloads a zone
// file at SIGHUP: Parse never panics on any text, and a zone it accepts is
// consistent — every stored set looks up as something other than NXDOMAIN
// or NotInZone, and the ancestor index equals a recount. The checked-in
// corpus holds the quickstart zone, a delegation with glue, a wildcard and
// two lines that once failed (a short A address, a parenthesis in quotes).
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		z, err := Parse(strings.NewReader(text), dnswire.NewName("example.org"))
		if err != nil {
			return
		}
		for _, set := range z.AllSets() {
			res := z.Lookup(set.Name, set.Type)
			if k := res.Kind; k == NXDomain || k == NotInZone {
				t.Fatalf("stored set %s %s looks up as %s", set.Name, set.Type, k)
			}
			// The lookup's reply must survive the wire.
			reply := dnswire.NewQuery(1, set.Name, set.Type).Reply()
			res.FillReply(reply)
			wire, err := dnswire.Encode(reply)
			if err != nil {
				t.Fatalf("%s %s: %s reply does not encode: %v", set.Name, set.Type, res.Kind, err)
			}
			back, err := dnswire.Decode(wire)
			if err != nil {
				t.Fatalf("%s %s: %s reply does not decode: %v", set.Name, set.Type, res.Kind, err)
			}
			if len(back.Answer) != len(reply.Answer) || len(back.Authority) != len(reply.Authority) ||
				len(back.Additional) != len(reply.Additional) {
				t.Fatalf("%s %s: %s reply sections %d/%d/%d decode as %d/%d/%d", set.Name, set.Type, res.Kind,
					len(reply.Answer), len(reply.Authority), len(reply.Additional),
					len(back.Answer), len(back.Authority), len(back.Additional))
			}
		}
		if want := recountAncestors(z); !reflect.DeepEqual(z.ancestors, want) {
			t.Fatalf("ancestors = %v, recount %v", z.ancestors, want)
		}
	})
}
