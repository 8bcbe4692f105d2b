package transport

import (
	"bytes"
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"
)

// fuzzQueries is how many exchanges are outstanding on the connection when
// the fuzzed stream arrives; the pipelined reader numbers them 1..3 on the
// wire, in whatever order they reach it.
const fuzzQueries = 3

// frames splits a length-prefixed stream into its complete frames.
func frames(stream []byte) [][]byte {
	var out [][]byte
	for len(stream) >= 2 {
		n := int(binary.BigEndian.Uint16(stream))
		if len(stream) < 2+n {
			break
		}
		out = append(out, stream[2:2+n])
		stream = stream[2+n:]
	}
	return out
}

// FuzzPipelineStream feeds an arbitrary byte stream, as the server's side of
// a connection, to a pipelined stream connection with queries outstanding.
// The reader must never panic or hang, and every exchange must come back
// with an error or with a reply that carries the ID its caller sent and is,
// past the ID, one of the stream's frames. The checked-in corpus answers
// out of order, with an unknown ID first, with a duplicate, with more answers
// than queries, and with frames that are short, cut off, bare headers or as
// long as the prefix allows, and with silence.
func FuzzPipelineStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream []byte) {
		client, server := net.Pipe()
		p := newPipeConn(client, Config{Timeout: 2 * time.Second}.withDefaults())
		defer p.close()
		// The server reads every query, then sends the stream and hangs up.
		go func() {
			defer server.Close()
			for i := 0; i < fuzzQueries; i++ {
				if readTestFrame(server) == nil {
					return
				}
			}
			_, _ = server.Write(stream)
		}()

		var wg sync.WaitGroup
		resps := make([][]byte, fuzzQueries)
		errs := make([]error, fuzzQueries)
		for i := range resps {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resps[i], _, errs[i] = p.exchange(testQuery(0xA000+uint16(i), byte(i)))
			}(i)
		}
		wg.Wait()

		sent := frames(stream)
		for i, resp := range resps {
			if errs[i] != nil {
				continue
			}
			if len(resp) < 12 || binary.BigEndian.Uint16(resp) != 0xA000+uint16(i) {
				t.Fatalf("exchange %d: reply %x does not carry the ID it sent", i, resp)
			}
			found := false
			for _, fr := range sent {
				found = found || len(fr) >= 12 && bytes.Equal(fr[2:], resp[2:])
			}
			if !found {
				t.Fatalf("exchange %d: reply %x is none of the stream's frames", i, resp)
			}
		}
	})
}
