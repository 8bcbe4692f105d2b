package dnswire

import (
	"strings"
	"testing"
)

func TestNewNameCanonicalizes(t *testing.T) {
	cases := []struct {
		in   string
		want Name
	}{
		{"", Root},
		{".", Root},
		{"example.org", "example.org."},
		{"example.org.", "example.org."},
		{"EXAMPLE.ORG", "example.org."},
		{"WwW.Example.Org.", "www.example.org."},
	}
	for _, c := range cases {
		if got := NewName(c.in); got != c.want {
			t.Errorf("NewName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestNameValid(t *testing.T) {
	if err := Root.Valid(); err != nil {
		t.Errorf("root should be valid: %v", err)
	}
	if err := NewName("a.b.c").Valid(); err != nil {
		t.Errorf("a.b.c should be valid: %v", err)
	}
	long := strings.Repeat("a", 64)
	if err := NewName(long + ".org").Valid(); err != ErrLabelTooLong {
		t.Errorf("64-byte label: got %v, want ErrLabelTooLong", err)
	}
	// 255-octet limit: build a name of many 63-byte labels.
	lbl := strings.Repeat("b", 63)
	big := NewName(strings.Join([]string{lbl, lbl, lbl, lbl}, "."))
	if err := big.Valid(); err != ErrNameTooLong {
		t.Errorf("256-octet name: got %v, want ErrNameTooLong", err)
	}
	if err := NewName("a..b").Valid(); err != ErrEmptyLabel {
		t.Errorf("empty label: got %v, want ErrEmptyLabel", err)
	}
}

func TestNameLabels(t *testing.T) {
	n := NewName("www.example.org")
	labels := n.Labels()
	want := []string{"www", "example", "org"}
	if len(labels) != len(want) {
		t.Fatalf("Labels() = %v, want %v", labels, want)
	}
	for i := range want {
		if labels[i] != want[i] {
			t.Errorf("label %d = %q, want %q", i, labels[i], want[i])
		}
	}
	if Root.Labels() != nil {
		t.Errorf("root labels should be nil")
	}
	if got := n.CountLabels(); got != 3 {
		t.Errorf("CountLabels() = %d, want 3", got)
	}
	if got := Root.CountLabels(); got != 0 {
		t.Errorf("root CountLabels() = %d, want 0", got)
	}
}

func TestNameParentChild(t *testing.T) {
	n := NewName("www.example.org")
	if p := n.Parent(); p != NewName("example.org") {
		t.Errorf("Parent(www.example.org) = %q", p)
	}
	if p := NewName("org").Parent(); p != Root {
		t.Errorf("Parent(org.) = %q, want root", p)
	}
	if p := Root.Parent(); p != Root {
		t.Errorf("Parent(.) = %q, want root", p)
	}
	if c := Root.Child("org"); c != NewName("org") {
		t.Errorf("root.Child(org) = %q", c)
	}
	if c := NewName("example.org").Child("NS1"); c != NewName("ns1.example.org") {
		t.Errorf("Child(NS1) = %q, want lowercase child", c)
	}
}

func TestIsSubdomainOf(t *testing.T) {
	cases := []struct {
		name, anc string
		want      bool
	}{
		{"www.example.org", "example.org", true},
		{"example.org", "example.org", true},
		{"example.org", "www.example.org", false},
		{"badexample.org", "example.org", false},
		{"example.com", "example.org", false},
		{"anything.at.all", ".", true},
		{"ns1.cachetest.net", "cachetest.net", true},
		{"ns1.zurroundeddu.com", "cachetest.net", false},
	}
	for _, c := range cases {
		got := NewName(c.name).IsSubdomainOf(NewName(c.anc))
		if got != c.want {
			t.Errorf("IsSubdomainOf(%q, %q) = %v, want %v", c.name, c.anc, got, c.want)
		}
	}
}

func TestMustNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("MustName on invalid name should panic")
		}
	}()
	MustName(strings.Repeat("a", 70) + ".org")
}

func TestNameString(t *testing.T) {
	if Root.String() != "." {
		t.Errorf("root String() = %q", Root.String())
	}
	if NewName("a.b").String() != "a.b." {
		t.Errorf("String() = %q", NewName("a.b").String())
	}
}
