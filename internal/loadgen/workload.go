// Package loadgen is the repo's ZDNS-class query engine: a bounded worker
// pool that fans a qname/qtype workload through a real-socket transport at
// configurable rates, classifying every response into a success/error
// taxonomy and reporting QPS plus latency quantiles through internal/obs
// histograms. It exists to drive the serving plane hard enough that
// transport-level behavior — pooling, pipelining, truncation fallback,
// connection resets — is observable at production query rates.
package loadgen

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"

	"dnsttl/internal/dnswire"
)

// Query is one workload element.
type Query struct {
	Name dnswire.Name
	Type dnswire.Type
}

// Workload is a materialized query list the engine cycles through.
// Workers draw queries by a shared atomic index, so a run covers the list
// in order regardless of worker count.
type Workload struct {
	queries []Query
}

// Len reports the number of distinct queries.
func (w *Workload) Len() int { return len(w.queries) }

// At returns query i (mod Len).
func (w *Workload) At(i int) Query { return w.queries[i%len(w.queries)] }

// ParseWorkload builds a workload from a spec:
//
//	@path                       file with one "name [type]" per line
//	                            ('#' starts a comment)
//	item[,item...]              inline list
//	item = name[:type][*count]  type defaults to A; "*count" expands the
//	                            item count times, substituting "{i}" in
//	                            the name with 0..count-1
//
// Examples:
//
//	www.example.org:A,api.example.org:AAAA
//	q{i}.example.org:A*100000        (100k distinct names — cache-miss load)
//	www.example.org*100000           (one hot name — cache-hit load)
func ParseWorkload(spec string) (*Workload, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, fmt.Errorf("loadgen: empty workload spec")
	}
	if rest, ok := strings.CutPrefix(spec, "@"); ok {
		return parseWorkloadFile(rest)
	}
	w := &Workload{}
	for _, item := range strings.Split(spec, ",") {
		if err := w.addItem(item); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (w *Workload) addItem(item string) error {
	item = strings.TrimSpace(item)
	if item == "" {
		return fmt.Errorf("loadgen: empty workload item")
	}
	count := 1
	if name, n, ok := strings.Cut(item, "*"); ok {
		c, err := strconv.Atoi(n)
		if err != nil || c < 1 {
			return fmt.Errorf("loadgen: bad count in workload item %q", item)
		}
		item, count = name, c
	}
	name := item
	qtype := dnswire.TypeA
	if n, t, ok := strings.Cut(item, ":"); ok {
		parsed, err := dnswire.ParseType(t)
		if err != nil {
			return fmt.Errorf("loadgen: workload item %q: %w", item, err)
		}
		name, qtype = n, parsed
	}
	if name == "" {
		return fmt.Errorf("loadgen: workload item %q has no name", item)
	}
	for i := 0; i < count; i++ {
		if err := w.add(strings.ReplaceAll(name, "{i}", strconv.Itoa(i)), qtype); err != nil {
			return fmt.Errorf("loadgen: workload item %q: %w", item, err)
		}
	}
	return nil
}

// add appends one query, refusing a name the wire cannot carry.
func (w *Workload) add(name string, qtype dnswire.Type) error {
	n := dnswire.NewName(name)
	if err := n.Valid(); err != nil {
		return fmt.Errorf("name %q: %w", name, err)
	}
	w.queries = append(w.queries, Query{Name: n, Type: qtype})
	return nil
}

func parseWorkloadFile(path string) (*Workload, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("loadgen: %w", err)
	}
	defer f.Close()
	w := &Workload{}
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		qtype := dnswire.TypeA
		if len(fields) > 1 {
			t, err := dnswire.ParseType(fields[1])
			if err != nil {
				return nil, fmt.Errorf("loadgen: %s:%d: %w", path, line, err)
			}
			qtype = t
		}
		if err := w.add(fields[0], qtype); err != nil {
			return nil, fmt.Errorf("loadgen: %s:%d: %w", path, line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("loadgen: %s: %w", path, err)
	}
	if len(w.queries) == 0 {
		return nil, fmt.Errorf("loadgen: %s: no queries", path)
	}
	return w, nil
}
