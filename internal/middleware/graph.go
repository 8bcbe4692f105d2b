package middleware

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/obs"
)

// The spec grammar is a TOML subset shaped like a routedns config: named
// stage tables plus one top-level entry key.
//
//	# abuse-hardened frontend
//	entry = "shield"
//
//	[stage.shield]
//	type   = "ratelimit"
//	qps    = 2
//	burst  = 10
//	next   = "block"
//
//	[stage.block]
//	type   = "blocklist"
//	block  = "ads.example tracker.example"
//	action = "nxdomain"
//	next   = "resolver"
//
//	[stage.resolver]
//	type = "resolver"
//
// Keys take one value: a "quoted string" or a bare token (numbers,
// durations, fractions). Every stage needs a type; every non-terminal
// type needs a next. entry may be omitted when the spec has exactly one
// stage table. An empty spec compiles to the default pipeline.

// stageSpec is one parsed [stage.NAME] table.
type stageSpec struct {
	name string
	opts map[string]string
	line int // of the table header, for error messages
}

// parsed is a whole parsed spec.
type parsed struct {
	entry  string
	stages []*stageSpec
}

// parseSpec parses the text grammar. It is strict: unknown syntax,
// duplicate tables, or duplicate keys are errors, so a bad SIGHUP reload
// is rejected instead of half-applied.
func parseSpec(text string) (*parsed, error) {
	p := &parsed{}
	byName := map[string]*stageSpec{}
	var cur *stageSpec
	for i, raw := range strings.Split(text, "\n") {
		line := i + 1
		s := strings.TrimSpace(raw)
		if j := strings.IndexByte(s, '#'); j >= 0 {
			s = strings.TrimSpace(s[:j])
		}
		if s == "" {
			continue
		}
		if strings.HasPrefix(s, "[") {
			if !strings.HasSuffix(s, "]") {
				return nil, fmt.Errorf("middleware: line %d: unterminated table header %q", line, s)
			}
			name, ok := strings.CutPrefix(s[1:len(s)-1], "stage.")
			name = strings.TrimSpace(name)
			if !ok || name == "" {
				return nil, fmt.Errorf("middleware: line %d: want [stage.NAME], got %q", line, s)
			}
			if byName[name] != nil {
				return nil, fmt.Errorf("middleware: line %d: duplicate stage %q", line, name)
			}
			cur = &stageSpec{name: name, opts: map[string]string{}, line: line}
			byName[name] = cur
			p.stages = append(p.stages, cur)
			continue
		}
		key, val, ok := strings.Cut(s, "=")
		if !ok {
			return nil, fmt.Errorf("middleware: line %d: want key = value, got %q", line, s)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		if strings.HasPrefix(val, `"`) {
			unq, err := strconv.Unquote(val)
			if err != nil {
				return nil, fmt.Errorf("middleware: line %d: bad string %s", line, val)
			}
			val = unq
		}
		if cur == nil {
			if key != "entry" {
				return nil, fmt.Errorf("middleware: line %d: key %q outside a [stage.*] table (only entry may precede them)", line, key)
			}
			if p.entry != "" {
				return nil, fmt.Errorf("middleware: line %d: duplicate entry", line)
			}
			p.entry = val
			continue
		}
		if _, dup := cur.opts[key]; dup {
			return nil, fmt.Errorf("middleware: line %d: duplicate key %q in stage %q", line, key, cur.name)
		}
		cur.opts[key] = val
	}
	if p.entry == "" {
		if len(p.stages) == 1 {
			p.entry = p.stages[0].name
		} else if len(p.stages) > 1 {
			return nil, fmt.Errorf("middleware: spec has %d stages but no entry = \"name\"", len(p.stages))
		}
	} else if len(p.stages) == 0 {
		// An entry naming a stage that was never defined must be an error,
		// not a silent fallback to the default pipeline — a truncated
		// SIGHUP reload would otherwise swap the whole graph out.
		return nil, fmt.Errorf("middleware: entry %q references an undefined stage (spec has no [stage.*] tables)", p.entry)
	}
	return p, nil
}

// buildFunc constructs one stage kind: it reads its options and returns
// the stage with b embedded. The builder does the rest — b arrives with the
// instance name and, for a kind that takes one, its next stage already
// built, and mistyped values and unknown keys are rejected once the
// constructor returns.
type buildFunc func(b base, o *options) (Stage, error)

// A kind is registered chained — it hands what it does not answer to a next
// stage, which the builder resolves — or terminal: it ends the chain
// (resolver) or names its own targets (router).
const (
	chained  = true
	terminal = false
)

type stageKind struct {
	build   buildFunc
	chained bool
}

// stageKinds registers every stage type the grammar accepts. Each stage
// file adds its kind in init(); scripts/docs_check.sh requires every
// registered kind to be documented in docs/middleware.md.
var stageKinds = map[string]stageKind{}

func register(kind string, takesNext bool, fn buildFunc) { stageKinds[kind] = stageKind{fn, takesNext} }

// base is what every stage kind embeds: the instance name the spec assigned
// and, for chained kinds, the next stage.
type base struct {
	name string
	next Stage
}

func (s *base) Name() string { return s.name }

// StageKinds lists the registered stage type names, sorted.
func StageKinds() []string {
	out := make([]string, 0, len(stageKinds))
	for k := range stageKinds {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// builder resolves stage references while compiling a parsed spec.
type builder struct {
	env      Env
	specs    map[string]*stageSpec
	built    map[string]Stage
	building map[string]bool // cycle detection
}

// Build compiles a spec against env. An empty (or comment-only) spec
// yields the default pipeline. Build validates everything up front —
// unknown types, unknown keys, dangling next references, cycles — so a
// pipeline that compiles can be swapped in live.
func Build(spec string, env Env) (*Pipeline, error) {
	p, err := parseSpec(spec)
	if err != nil {
		return nil, err
	}
	if len(p.stages) == 0 {
		return Default(env), nil
	}
	b := &builder{
		env:      env,
		specs:    map[string]*stageSpec{},
		built:    map[string]Stage{},
		building: map[string]bool{},
	}
	for _, sp := range p.stages {
		b.specs[sp.name] = sp
	}
	entry, err := b.stage(p.entry)
	if err != nil {
		return nil, err
	}
	pl := &Pipeline{entry: entry}
	for _, sp := range p.stages {
		st, err := b.stage(sp.name) // builds any stage entry doesn't reach
		if err != nil {
			return nil, err
		}
		pl.stages = append(pl.stages, st)
	}
	return pl, nil
}

// Check parses and type-checks a spec without an environment — the
// daemons validate a -pipeline file (and a SIGHUP replacement) with it
// before committing.
func Check(spec string) error {
	_, err := Build(spec, Env{})
	return err
}

// stage returns the named stage, building it (and its next chain) once.
func (b *builder) stage(name string) (Stage, error) {
	if st, ok := b.built[name]; ok {
		return st, nil
	}
	sp, ok := b.specs[name]
	if !ok {
		return nil, fmt.Errorf("middleware: reference to undefined stage %q", name)
	}
	if b.building[name] {
		return nil, fmt.Errorf("middleware: stage cycle through %q", name)
	}
	b.building[name] = true
	defer delete(b.building, name)

	o := &options{b: b, sp: sp, seen: map[string]bool{}}
	typ := o.str("type", "")
	if typ == "" {
		return nil, fmt.Errorf("middleware: stage %q (line %d) has no type", name, sp.line)
	}
	kind, ok := stageKinds[typ]
	if !ok {
		return nil, fmt.Errorf("middleware: stage %q: unknown type %q (known: %s)",
			name, typ, strings.Join(StageKinds(), ", "))
	}
	self := base{name: name}
	if kind.chained {
		ref := o.str("next", "")
		if ref == "" {
			return nil, fmt.Errorf("middleware: stage %q needs next = \"stage\"", name)
		}
		next, err := b.stage(ref)
		if err != nil {
			return nil, err
		}
		self.next = next
	}
	st, err := kind.build(self, o)
	if err = o.finish(err); err != nil {
		return nil, err
	}
	b.built[name] = st
	return st, nil
}

// options is what a stage constructor reads: its key/value table through
// typed, consumption-tracked getters (so finish can reject misspelled
// keys), the environment's clock and counters, and — for a kind that names
// its own targets — the other stages of the graph.
type options struct {
	b    *builder
	sp   *stageSpec
	seen map[string]bool
	err  error
}

// counter registers this stage's mw.<stage>.<what> counter — the nil-safe
// no-op counter when no registry is attached.
func (o *options) counter(what string) *obs.Counter {
	return o.b.env.Registry.Counter("mw." + o.sp.name + "." + what)
}

func (o *options) str(key, def string) string {
	o.seen[key] = true
	if v, ok := o.sp.opts[key]; ok {
		return v
	}
	return def
}

func (o *options) num(key string, def float64) float64 {
	o.seen[key] = true
	v, ok := o.sp.opts[key]
	if !ok {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil && o.err == nil {
		o.err = fmt.Errorf("middleware: stage %q: %s = %q is not a number", o.sp.name, key, v)
	}
	return f
}

func (o *options) integer(key string, def int) int {
	o.seen[key] = true
	v, ok := o.sp.opts[key]
	if !ok {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil && o.err == nil {
		o.err = fmt.Errorf("middleware: stage %q: %s = %q is not an integer", o.sp.name, key, v)
	}
	return n
}

// ttl reads a TTL in seconds, which RFC 2181 §8 bounds to 31 bits: a
// negative or larger value is an error, not a wrapped uint32.
func (o *options) ttl(key string, def int) uint32 {
	n := o.integer(key, def)
	if (n < 0 || n > math.MaxInt32) && o.err == nil {
		o.err = fmt.Errorf("middleware: stage %q: %s = %d is outside [0, %d] (RFC 2181 §8)", o.sp.name, key, n, math.MaxInt32)
	}
	return uint32(n)
}

// names reads a space-separated list of domain names as a set.
func (o *options) names(key string) map[dnswire.Name]bool {
	set := map[dnswire.Name]bool{}
	for _, n := range strings.Fields(o.str(key, "")) {
		name := dnswire.NewName(n)
		if err := name.Valid(); err != nil && o.err == nil {
			o.err = fmt.Errorf("middleware: stage %q: bad name %q: %v", o.sp.name, n, err)
		}
		set[name] = true
	}
	return set
}

// finish settles a constructor's outcome: the first typed-getter error wins
// (the constructor saw a zero in its place, so whatever it concluded is
// secondary), then the constructor's own error, then any key it never
// consumed — a typo, under the strict-reload contract.
func (o *options) finish(err error) error {
	if o.err != nil {
		return o.err
	}
	if err != nil {
		return err
	}
	var unknown []string
	for k := range o.sp.opts {
		if !o.seen[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return fmt.Errorf("middleware: stage %q: unknown key(s) %s", o.sp.name, strings.Join(unknown, ", "))
	}
	return nil
}
