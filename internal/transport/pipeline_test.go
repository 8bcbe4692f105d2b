package transport

import (
	"encoding/binary"
	"io"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"dnsttl/internal/obs"
)

// testQuery builds a minimal 13-byte query: a DNS header carrying id plus a
// one-byte tag the scripted servers echo back, so tests can check that each
// concurrent caller got its own answer and its own original ID.
func testQuery(id uint16, tag byte) []byte {
	q := make([]byte, 13)
	binary.BigEndian.PutUint16(q, id)
	q[12] = tag
	return q
}

// readTestFrame reads one length-prefixed frame, returning nil on any error
// — the client closing its pooled connections at test teardown is expected,
// not a failure.
func readTestFrame(c net.Conn) []byte {
	var hdr [2]byte
	if _, err := io.ReadFull(c, hdr[:]); err != nil {
		return nil
	}
	buf := make([]byte, binary.BigEndian.Uint16(hdr[:]))
	if _, err := io.ReadFull(c, buf); err != nil {
		return nil
	}
	return buf
}

func writeTestFrame(c net.Conn, msg []byte) {
	var hdr [2]byte
	binary.BigEndian.PutUint16(hdr[:], uint16(len(msg)))
	if _, err := c.Write(hdr[:]); err != nil {
		return
	}
	_, _ = c.Write(msg)
}

// respond echoes the query with the QR bit set, preserving the wire ID the
// server saw (the connection-local one) and the caller's tag byte.
func respond(q []byte) []byte {
	r := make([]byte, len(q))
	copy(r, q)
	r[2] |= 0x80
	return r
}

// scriptedServer runs script on each accepted connection.
func scriptedServer(t *testing.T, script func(conn net.Conn)) netip.AddrPort {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				script(conn)
			}()
		}
	}()
	return ln.Addr().(*net.TCPAddr).AddrPort()
}

// TestPipelineOutOfOrder sends a batch of concurrent queries down one
// pipelined connection and has the server answer them in reverse order.
// Every caller must still receive its own response, carrying its original
// message ID (RFC 7766 §6.2.1.1 out-of-order processing).
func TestPipelineOutOfOrder(t *testing.T) {
	const batch = 4
	addr := scriptedServer(t, func(conn net.Conn) {
		// Warm-up query establishes the connection in the pool.
		if f := readTestFrame(conn); f != nil {
			writeTestFrame(conn, respond(f))
		}
		// Read the whole batch, then answer last-in first-out.
		frames := make([][]byte, 0, batch)
		for i := 0; i < batch; i++ {
			f := readTestFrame(conn)
			if f == nil {
				return
			}
			frames = append(frames, f)
		}
		for i := batch - 1; i >= 0; i-- {
			writeTestFrame(conn, respond(frames[i]))
		}
	})

	tr, err := New(Config{Kind: TCP, PoolSize: 1, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	if _, _, err := tr.Exchange(addr, testQuery(0x1111, 0xFF)); err != nil {
		t.Fatalf("warm-up exchange: %v", err)
	}

	var wg sync.WaitGroup
	errs := make([]error, batch)
	resps := make([][]byte, batch)
	for i := 0; i < batch; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], _, errs[i] = tr.Exchange(addr, testQuery(0xA000+uint16(i), byte(i)))
		}(i)
	}
	wg.Wait()

	for i := 0; i < batch; i++ {
		if errs[i] != nil {
			t.Fatalf("exchange %d: %v", i, errs[i])
		}
		if got := binary.BigEndian.Uint16(resps[i]); got != 0xA000+uint16(i) {
			t.Errorf("exchange %d: response ID = %#x, want %#x (original ID not restored)",
				i, got, 0xA000+uint16(i))
		}
		if resps[i][12] != byte(i) {
			t.Errorf("exchange %d: got response tagged %d — matched to the wrong query",
				i, resps[i][12])
		}
		if resps[i][2]&0x80 == 0 {
			t.Errorf("exchange %d: QR bit not set", i)
		}
	}
}

// TestPipelineIDMismatchRejected has the server emit a response with an ID
// that matches no in-flight query before the real answer. The bogus frame
// must be dropped (and counted), not delivered.
func TestPipelineIDMismatchRejected(t *testing.T) {
	addr := scriptedServer(t, func(conn net.Conn) {
		f := readTestFrame(conn)
		if f == nil {
			return
		}
		bogus := respond(f)
		wireID := binary.BigEndian.Uint16(bogus)
		binary.BigEndian.PutUint16(bogus, wireID+0x4242)
		bogus[12] = 0xEE
		writeTestFrame(conn, bogus)
		writeTestFrame(conn, respond(f))
	})

	reg := obs.NewRegistry(nil)
	m := NewMetrics(reg)
	tr, err := New(Config{Kind: TCP, PoolSize: 1, Timeout: 2 * time.Second, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	resp, _, err := tr.Exchange(addr, testQuery(0x2222, 0x07))
	if err != nil {
		t.Fatal(err)
	}
	if binary.BigEndian.Uint16(resp) != 0x2222 || resp[12] != 0x07 {
		t.Errorf("got the bogus frame: id=%#x tag=%#x", binary.BigEndian.Uint16(resp), resp[12])
	}
	if got := m.IDMismatches.Value(); got != 1 {
		t.Errorf("IDMismatches = %d, want 1", got)
	}
}

// TestPoolRetriesAfterMidFlightReset covers the stale-pooled-connection
// path: the server serves one query, then resets the connection while the
// second query is in flight. The pool must notice the reused connection
// died, dial a fresh one, and complete the exchange.
func TestPoolRetriesAfterMidFlightReset(t *testing.T) {
	var mu sync.Mutex
	conns := 0
	addr := scriptedServer(t, func(conn net.Conn) {
		mu.Lock()
		conns++
		first := conns == 1
		mu.Unlock()
		if first {
			if f := readTestFrame(conn); f != nil {
				writeTestFrame(conn, respond(f))
			}
			// Wait for the second query, then slam the door mid-flight.
			readTestFrame(conn)
			return // deferred Close resets the connection
		}
		for {
			f := readTestFrame(conn)
			if f == nil {
				return
			}
			writeTestFrame(conn, respond(f))
		}
	})

	reg := obs.NewRegistry(nil)
	m := NewMetrics(reg)
	tr, err := New(Config{Kind: TCP, PoolSize: 1, Timeout: 2 * time.Second, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	if _, _, err := tr.Exchange(addr, testQuery(1, 1)); err != nil {
		t.Fatalf("first exchange: %v", err)
	}
	resp, _, err := tr.Exchange(addr, testQuery(2, 2))
	if err != nil {
		t.Fatalf("exchange after mid-flight reset: %v", err)
	}
	if binary.BigEndian.Uint16(resp) != 2 || resp[12] != 2 {
		t.Errorf("retried exchange returned wrong response: %v", resp[:13])
	}
	if got := m.Reuses.Value(); got != 1 {
		t.Errorf("Reuses = %d, want 1 (second exchange must start on the pooled conn)", got)
	}
	if got := m.Dials.Value(); got != 2 {
		t.Errorf("Dials = %d, want 2 (initial dial + post-reset redial)", got)
	}
	if got := m.Errors.Value(); got != 0 {
		t.Errorf("Errors = %d, want 0 (the retry should make the exchange succeed)", got)
	}
}

// TestPipelineTimeoutThenLateAnswer checks that a query that times out is
// forgotten: when its answer eventually arrives it is dropped as an ID
// mismatch, and the connection keeps serving later queries.
func TestPipelineTimeoutThenLateAnswer(t *testing.T) {
	release := make(chan struct{})
	addr := scriptedServer(t, func(conn net.Conn) {
		f1 := readTestFrame(conn)
		if f1 == nil {
			return
		}
		<-release // stall past the client timeout
		writeTestFrame(conn, respond(f1))
		if f2 := readTestFrame(conn); f2 != nil {
			writeTestFrame(conn, respond(f2))
		}
	})

	reg := obs.NewRegistry(nil)
	m := NewMetrics(reg)
	tr, err := New(Config{Kind: TCP, PoolSize: 1, Timeout: 300 * time.Millisecond, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	if _, _, err := tr.Exchange(addr, testQuery(9, 9)); err != ErrTimeout {
		t.Fatalf("stalled exchange: err = %v, want ErrTimeout", err)
	}
	close(release)
	resp, _, err := tr.Exchange(addr, testQuery(10, 10))
	if err != nil {
		t.Fatalf("exchange after timeout: %v", err)
	}
	if binary.BigEndian.Uint16(resp) != 10 || resp[12] != 10 {
		t.Errorf("got stale answer: %v", resp[:13])
	}
	if got := m.IDMismatches.Value(); got != 1 {
		t.Errorf("IDMismatches = %d, want 1 (the late answer must be dropped)", got)
	}
}

// TestPipelineFrameLimits checks both ends of the 2-byte length prefix: a
// query that cannot be framed is refused before anything is written, and a
// response frame too short to hold a DNS header fails the exchange instead
// of being delivered.
func TestPipelineFrameLimits(t *testing.T) {
	served := make(chan []byte, 1)
	addr := scriptedServer(t, func(conn net.Conn) {
		f := readTestFrame(conn)
		select {
		case served <- f:
		default: // the pool's one redial after the failed frame
		}
		if f != nil {
			writeTestFrame(conn, []byte{f[0], f[1], 0x80, 0, 0})
		}
	})
	tr, err := New(Config{Kind: TCP, PoolSize: 1, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	if _, _, err := tr.Exchange(addr, make([]byte, 0x10000)); err == nil {
		t.Errorf("a query over 65,535 bytes should be refused")
	}
	resp, _, err := tr.Exchange(addr, testQuery(0x3333, 1))
	if err == nil {
		t.Errorf("a 5-byte response frame was delivered: %v", resp)
	}
	if f := <-served; len(f) != 13 {
		t.Errorf("server's first frame is %d bytes, want the 13-byte query (the oversize one must never be written)", len(f))
	}
}
