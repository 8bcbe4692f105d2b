package middleware

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
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

// buildFunc constructs one stage kind. next is nil for terminal kinds.
type buildFunc func(b *builder, sp *stageSpec) (Stage, error)

// stageKinds registers every stage type the grammar accepts. Each stage
// file adds its kind in init(); scripts/docs_check.sh requires every
// registered kind to be documented in docs/middleware.md.
var stageKinds = map[string]buildFunc{}

func register(kind string, fn buildFunc) { stageKinds[kind] = fn }

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

	o := options{sp: sp, seen: map[string]bool{"type": true}}
	kind := o.str("type", "")
	if kind == "" {
		return nil, fmt.Errorf("middleware: stage %q (line %d) has no type", sp.name, sp.line)
	}
	build, ok := stageKinds[kind]
	if !ok {
		return nil, fmt.Errorf("middleware: stage %q: unknown type %q (known: %s)",
			sp.name, kind, strings.Join(StageKinds(), ", "))
	}
	st, err := build(b, sp)
	if err != nil {
		return nil, err
	}
	b.built[name] = st
	return st, nil
}

// next builds the stage's next reference — required for every
// non-terminal stage kind.
func (b *builder) next(o *options) (Stage, error) {
	name := o.str("next", "")
	if name == "" {
		return nil, fmt.Errorf("middleware: stage %q needs next = \"stage\"", o.sp.name)
	}
	return b.stage(name)
}

// options wraps a stage's key/value table with typed, consumption-tracked
// getters so finish() can reject misspelled keys.
type options struct {
	sp   *stageSpec
	seen map[string]bool
	err  error
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

// finish reports the first typed-getter error, then any key the stage
// never consumed — a typo, under the strict-reload contract.
func (o *options) finish() error {
	if o.err != nil {
		return o.err
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
