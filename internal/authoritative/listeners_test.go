package authoritative

import (
	"bytes"
	"crypto/tls"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"testing"
	"time"

	"dnsttl/internal/race"
	"dnsttl/internal/simnet"
	"dnsttl/internal/transport"
)

// ladderServer is what the drain tests need of a listener type.
type ladderServer interface {
	Listen(addr string) (netip.AddrPort, error)
	Close() error
}

// ladderClient is one client connection, kept open between exchanges.
type ladderClient interface {
	exchange(query []byte) ([]byte, error)
	close()
}

type udpLadderClient struct{ conn net.Conn }

func (c udpLadderClient) exchange(query []byte) ([]byte, error) {
	_ = c.conn.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.conn.Write(query); err != nil {
		return nil, err
	}
	buf := make([]byte, 512)
	n, err := c.conn.Read(buf)
	return buf[:n], err
}
func (c udpLadderClient) close() { c.conn.Close() }

// testClient is a pooled transport of the given kind, closed with the test.
func testClient(t testing.TB, kind transport.Kind) transport.Transport {
	t.Helper()
	tr, err := transport.New(transport.Config{Kind: kind, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// streamLadderClient frames by hand: the drain tests watch what happens to
// one connection they hold, which a pooled transport would redial.
type streamLadderClient struct{ conn net.Conn }

func (c streamLadderClient) exchange(query []byte) ([]byte, error) {
	_ = c.conn.SetDeadline(time.Now().Add(2 * time.Second))
	frame := binary.BigEndian.AppendUint16(nil, uint16(len(query)))
	if _, err := c.conn.Write(append(frame, query...)); err != nil {
		return nil, err
	}
	var hdr [2]byte
	if _, err := io.ReadFull(c.conn, hdr[:]); err != nil {
		return nil, err
	}
	resp := make([]byte, binary.BigEndian.Uint16(hdr[:]))
	_, err := io.ReadFull(c.conn, resp)
	return resp, err
}
func (c streamLadderClient) close() { c.conn.Close() }

type dohLadderClient struct {
	hc  *http.Client
	url string
}

func (c dohLadderClient) exchange(query []byte) ([]byte, error) {
	resp, err := c.hc.Post(c.url, "application/dns-message", bytes.NewReader(query))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}
func (c dohLadderClient) close() { c.hc.CloseIdleConnections() }

// ladderTransport is one row of the drain table.
type ladderTransport struct {
	name   string
	server func(h simnet.Handler) ladderServer
	dial   func(addr netip.AddrPort) (ladderClient, error)
}

func ladderTransports(t *testing.T) []ladderTransport {
	t.Helper()
	cert, pool, err := transport.SelfSigned("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	serverTLS := &tls.Config{Certificates: []tls.Certificate{cert}}
	clientTLS := &tls.Config{RootCAs: pool, ServerName: "127.0.0.1"}
	dialStream := func(dial func(network, addr string) (net.Conn, error)) func(netip.AddrPort) (ladderClient, error) {
		return func(addr netip.AddrPort) (ladderClient, error) {
			conn, err := dial("tcp", addr.String())
			if err != nil {
				return nil, err
			}
			return streamLadderClient{conn}, nil
		}
	}
	return []ladderTransport{
		{
			name:   "udp",
			server: func(h simnet.Handler) ladderServer { return &UDPServer{Handler: h} },
			dial: func(addr netip.AddrPort) (ladderClient, error) {
				conn, err := net.Dial("udp", addr.String())
				return udpLadderClient{conn}, err
			},
		},
		{
			name:   "tcp",
			server: func(h simnet.Handler) ladderServer { return &TCPServer{Handler: h} },
			dial:   dialStream(net.Dial),
		},
		{
			name:   "dot",
			server: func(h simnet.Handler) ladderServer { return &TCPServer{Handler: h, TLS: serverTLS.Clone()} },
			dial: dialStream(func(network, addr string) (net.Conn, error) {
				return tls.DialWithDialer(&net.Dialer{Timeout: 2 * time.Second}, network, addr, clientTLS)
			}),
		},
		{
			name:   "doh",
			server: func(h simnet.Handler) ladderServer { return &DoHServer{Handler: h, TLS: serverTLS.Clone()} },
			dial: func(addr netip.AddrPort) (ladderClient, error) {
				return dohLadderClient{
					hc: &http.Client{
						Transport: &http.Transport{TLSClientConfig: clientTLS},
						Timeout:   2 * time.Second,
					},
					url: fmt.Sprintf("https://%s%s", addr, DoHPath),
				}, nil
			},
		},
	}
}

// TestCloseDrains pins the drain ladder on every transport.
func TestCloseDrains(t *testing.T) {
	for _, tr := range ladderTransports(t) {
		tr := tr
		query := headerQuery(7)
		want := echoQR(query, netip.Addr{})

		// A query whose handler is still running when Close is called gets
		// its whole reply; Close waits for it and returns nil.
		t.Run(tr.name+"/in-service query is answered", func(t *testing.T) {
			entered, finish := make(chan struct{}, 1), make(chan struct{})
			s := tr.server(simnet.HandlerFunc(func(wire []byte, from netip.Addr) []byte {
				entered <- struct{}{}
				<-finish
				return echoQR(wire, from)
			}))
			addr, err := s.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			c, err := tr.dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			type reply struct {
				wire []byte
				err  error
			}
			replied := make(chan reply, 1)
			go func() {
				wire, err := c.exchange(query)
				c.close()
				replied <- reply{wire, err}
			}()
			<-entered
			closed := make(chan error, 1)
			go func() { closed <- s.Close() }()
			select {
			case err := <-closed:
				t.Fatalf("Close returned (%v) while a handler was still running", err)
			case <-time.After(100 * time.Millisecond):
			}
			close(finish)
			if r := <-replied; r.err != nil || !bytes.Equal(r.wire, want) {
				t.Errorf("reply to the query in service = %x, %v; want %x", r.wire, r.err, want)
			}
			select {
			case err := <-closed:
				if err != nil {
					t.Errorf("Close after a clean drain: %v", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("Close did not return after the last reply left")
			}
		})

		// An idle client connection does not hold Close up, at the default
		// IdleTimeout; afterwards the address is dead and Close is a no-op.
		t.Run(tr.name+"/idle connection is woken", func(t *testing.T) {
			s := tr.server(echoQR)
			addr, err := s.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			c, err := tr.dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.close()
			if got, err := c.exchange(query); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("exchange before Close = %x, %v", got, err)
			}
			start := time.Now()
			if err := s.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
			if took := time.Since(start); took > 500*time.Millisecond {
				t.Errorf("Close took %v with one idle client connection", took)
			}
			// Only the reply counts as an answer: a redialed UDP socket can
			// draw the freed port, be connected to itself and read back its
			// own query, QR clear, which want (QR set) never equals.
			if c2, err := tr.dial(addr); err == nil {
				if got, err := c2.exchange(query); err == nil && bytes.Equal(got, want) {
					t.Errorf("closed listener still answered: %x", got)
				}
				c2.close()
			}
			if err := s.Close(); err != nil {
				t.Errorf("second Close: %v", err)
			}
		})

		t.Run(tr.name+"/close before listen", func(t *testing.T) {
			if err := tr.server(echoQR).Close(); err != nil {
				t.Errorf("Close before Listen: %v", err)
			}
		})
	}
}

// TestListenersCloseAll: the set holds any number of listeners per
// transport and one Close releases every socket.
func TestListenersCloseAll(t *testing.T) {
	var ls Listeners
	if err := ls.Close(); err != nil {
		t.Errorf("Close of the empty set: %v", err)
	}
	var bound []netip.AddrPort
	udpClient, tcpClient := testClient(t, transport.UDP), testClient(t, transport.TCP)
	for i := 0; i < 2; i++ {
		u, err := ls.UDP("127.0.0.1:0", echoQR, nil)
		if err != nil {
			t.Fatal(err)
		}
		tc, err := ls.TCP("127.0.0.1:0", echoQR, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		d, err := ls.DoH("127.0.0.1:0", echoQR, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := tcpClient.Exchange(tc, headerQuery(1)); err != nil {
			t.Errorf("tcp listener %d: %v", i, err)
		}
		if _, _, err := udpClient.Exchange(u, headerQuery(1)); err != nil {
			t.Errorf("udp listener %d: %v", i, err)
		}
		bound = append(bound, tc, d)
	}
	if _, err := ls.TCP("256.0.0.1:0", echoQR, nil, nil); err == nil {
		t.Errorf("listening on a bad address should fail")
	}
	if err := ls.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	for _, addr := range bound {
		if conn, err := net.DialTimeout("tcp", addr.String(), time.Second); err == nil {
			conn.Close()
			t.Errorf("%s still accepts after Close", addr)
		}
	}
	if err := ls.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// countingConn counts the Write calls the server makes.
type countingConn struct {
	net.Conn
	writes int
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes++
	return c.Conn.Write(p)
}

// TestTCPOneWritePerReply pins the stream loop's cost: a reply goes to the
// socket as one Write — length prefix and message together (RFC 7766 §8) —
// and, with an append-style handler, a query allocates nothing once the
// connection's buffers exist.
func TestTCPOneWritePerReply(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	accepted, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	server := &countingConn{Conn: accepted}
	ts := &TCPServer{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		ts.handleConn(server, cannedAppend{})
	}()

	q := headerQuery(1)
	frame := append([]byte{0, byte(len(q))}, q...)
	buf := make([]byte, len(frame))
	roundTrip := func() {
		if _, err := client.Write(frame); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(client, buf); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip()
	if buf[1] != byte(len(q)) || buf[3] != q[1] || buf[4]&0x80 == 0 {
		t.Fatalf("framed reply = %x", buf)
	}
	const runs = 200
	if race.Enabled {
		for i := 0; i < runs; i++ {
			roundTrip()
		}
	} else if allocs := testing.AllocsPerRun(runs-1, roundTrip); allocs != 0 {
		// AllocsPerRun makes one warm-up call, hence runs-1.
		t.Errorf("TCP round trip through the connection loop: %v allocs, want 0", allocs)
	}
	client.Close()
	<-done // the loop has stopped writing: server.writes is ours to read
	if server.writes != 1+runs {
		t.Errorf("%d Write calls for %d replies, want one each", server.writes, 1+runs)
	}
}
