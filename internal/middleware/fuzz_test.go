package middleware

import (
	"bytes"
	"context"
	"os"
	"regexp"
	"testing"

	"dnsttl/internal/obs"
	"dnsttl/internal/simnet"
)

// FuzzPipelineSpec holds the contract a daemon leans on when it reloads a
// -pipeline file at SIGHUP: Check never panics on any text; a spec Check
// accepts, Build accepts against a real environment; and the pipeline it
// built answers a query without panicking. The corpus starts from every
// worked configuration in docs/middleware.md and every spec
// TestSpecParseErrors rejects.
func FuzzPipelineSpec(f *testing.F) {
	doc, err := os.ReadFile("../../docs/middleware.md")
	if err != nil {
		f.Fatal(err)
	}
	_, worked, _ := bytes.Cut(doc, []byte("## Worked configurations"))
	worked, _, _ = bytes.Cut(worked, []byte("\n## "))
	configs := regexp.MustCompile("(?s)```toml\n(.*?)```").FindAllSubmatch(worked, -1)
	if len(configs) < 3 {
		f.Fatalf("found %d worked configurations in docs/middleware.md, want at least 3", len(configs))
	}
	for _, m := range configs {
		f.Add(string(m[1]))
	}
	for _, tc := range rejectedSpecs {
		f.Add(tc.spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if Check(spec) != nil {
			return
		}
		env := Env{Lookup: (&fakeLookup{}).lookup, Clock: simnet.NewVirtualClock(), Registry: obs.NewRegistry(nil)}
		p, err := Build(spec, env)
		if err != nil {
			t.Fatalf("Check accepted the spec, Build rejected it: %v", err)
		}
		if _, err := p.Resolve(context.Background(), query("www.example.org", "192.0.2.7")); err != nil {
			t.Fatalf("stages %v: %v", p.Stages(), err)
		}
	})
}
