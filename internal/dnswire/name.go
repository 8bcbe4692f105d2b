package dnswire

import (
	"errors"
	"strings"
)

// Name is a fully-qualified, case-normalized domain name in presentation
// form, always ending with a trailing dot ("example.org."). The root is ".".
//
// Names are stored lowercased; DNS name comparison is case-insensitive
// (RFC 1035 §2.3.3) and every package in this module relies on Name values
// being directly comparable with ==.
type Name string

// Root is the DNS root name.
const Root Name = "."

// Errors returned by name validation.
var (
	ErrNameTooLong  = errors.New("dnswire: name exceeds 255 octets")
	ErrLabelTooLong = errors.New("dnswire: label exceeds 63 octets")
	ErrEmptyLabel   = errors.New("dnswire: empty label")
)

// NewName canonicalizes s into a Name: lowercases it and ensures a trailing
// dot. It does not validate lengths; use Valid for that.
func NewName(s string) Name {
	if s == "" || s == "." {
		return Root
	}
	s = strings.ToLower(s)
	if !strings.HasSuffix(s, ".") {
		s += "."
	}
	return Name(s)
}

// MustName is NewName plus validation, panicking on invalid input. It is
// intended for constants and tests.
func MustName(s string) Name {
	n := NewName(s)
	if err := n.Valid(); err != nil {
		panic(err)
	}
	return n
}

// Valid reports whether the name obeys RFC 1035 length limits.
func (n Name) Valid() error {
	if n == Root {
		return nil
	}
	// Wire length: one length octet per label plus label bytes, plus the
	// terminating zero octet. Labels are walked with the allocation-free
	// iterator: Valid sits on the encoder's per-name hot path.
	wire := 1
	for it := n.Iter(); ; {
		label, ok := it.Next()
		if !ok {
			break
		}
		if label == "" {
			return ErrEmptyLabel
		}
		if len(label) > 63 {
			return ErrLabelTooLong
		}
		wire += 1 + len(label)
	}
	if wire > 255 {
		return ErrNameTooLong
	}
	return nil
}

// IsRoot reports whether the name is the DNS root.
func (n Name) IsRoot() bool { return n == Root || n == "" }

// Labels returns the name's labels, most-specific first, excluding the root.
// "www.example.org." → ["www", "example", "org"]. Each call allocates the
// slice; hot paths should use Iter instead.
func (n Name) Labels() []string {
	if n.IsRoot() {
		return nil
	}
	return strings.Split(strings.TrimSuffix(string(n), "."), ".")
}

// LabelIter walks a name's labels most-specific first without allocating.
// Obtain one with Name.Iter; each Next returns a zero-copy substring of the
// name.
type LabelIter struct {
	s   string
	pos int
}

// Iter returns an allocation-free iterator over n's labels, yielding the
// same sequence as Labels (empty labels included, so malformed names can be
// detected by callers).
func (n Name) Iter() LabelIter {
	if n.IsRoot() {
		return LabelIter{pos: 1}
	}
	return LabelIter{s: strings.TrimSuffix(string(n), ".")}
}

// Next returns the next label and whether one was available.
func (it *LabelIter) Next() (string, bool) {
	if it.pos > len(it.s) {
		return "", false
	}
	if i := strings.IndexByte(it.s[it.pos:], '.'); i >= 0 {
		label := it.s[it.pos : it.pos+i]
		it.pos += i + 1
		return label, true
	}
	label := it.s[it.pos:]
	it.pos = len(it.s) + 1
	return label, true
}

// CountLabels returns the number of labels, 0 for the root.
func (n Name) CountLabels() int {
	if n.IsRoot() {
		return 0
	}
	return strings.Count(strings.TrimSuffix(string(n), "."), ".") + 1
}

// Parent returns the name with its leftmost label removed;
// "www.example.org." → "example.org.". The parent of the root is the root.
//
// A canonical name already ends in the dot, so the parent is a substring of
// n and costs no allocation. Kept as a map key it pins n's bytes, which is
// still fewer bytes than a copy per ancestor.
func (n Name) Parent() Name {
	if i := strings.IndexByte(string(n), '.'); i >= 0 && i+1 < len(n) {
		return n[i+1:]
	}
	return Root
}

// Child returns label + "." + n, e.g. Root.Child("org") → "org.".
func (n Name) Child(label string) Name {
	label = strings.ToLower(label)
	if n.IsRoot() {
		return Name(label + ".")
	}
	return Name(label + "." + string(n))
}

// IsSubdomainOf reports whether n is equal to or falls under ancestor.
// Every name is a subdomain of the root. This is the "in bailiwick"
// predicate from RFC 8499 used throughout §4 of the paper.
func (n Name) IsSubdomainOf(ancestor Name) bool {
	if ancestor.IsRoot() {
		return true
	}
	if n == ancestor {
		return true
	}
	return strings.HasSuffix(string(n), "."+string(ancestor))
}

// String returns the presentation form.
func (n Name) String() string {
	if n.IsRoot() {
		return "."
	}
	return string(n)
}
