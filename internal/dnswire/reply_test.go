package dnswire

import "testing"

// TestCheckReply pins what counts as the answer to a query: QR set, the
// query's ID, and exactly its one question, names compared case-blind.
func TestCheckReply(t *testing.T) {
	q := Question{Name: NewName("www.example.org"), Type: TypeA, Class: ClassIN}
	for _, tc := range []struct {
		name string
		edit func(*Message)
		want error
	}{
		{"match", func(*Message) {}, nil},
		{"wrong ID", func(m *Message) { m.Header.ID++ }, ErrIDMismatch},
		{"QR clear", func(m *Message) { m.Header.QR = false }, ErrIDMismatch},
		{"another name", func(m *Message) { m.Question[0].Name = NewName("example.org") }, ErrQuestionMismatch},
		{"another type", func(m *Message) { m.Question[0].Type = TypeAAAA }, ErrQuestionMismatch},
		{"another class", func(m *Message) { m.Question[0].Class = Class(3) }, ErrQuestionMismatch},
		{"no question", func(m *Message) { m.Question = nil }, ErrQuestionMismatch},
		{"two questions", func(m *Message) { m.Question = append(m.Question, q) }, ErrQuestionMismatch},
	} {
		resp := &Message{Header: Header{ID: 7, QR: true}, Question: []Question{q}}
		tc.edit(resp)
		if got := CheckReply(resp, 7, q); got != tc.want {
			t.Errorf("%s: CheckReply = %v, want %v", tc.name, got, tc.want)
		}
	}

	// A server may echo the name in another case (0x20 mixing); it decodes
	// to the same name.
	echo := &Message{
		Header:   Header{ID: 7, QR: true},
		Question: []Question{{Name: Name("WWW.Example.ORG."), Type: TypeA, Class: ClassIN}},
	}
	wire, err := Encode(echo)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckReply(resp, 7, q); err != nil {
		t.Errorf("upper-cased echo: CheckReply = %v, want nil", err)
	}
}
