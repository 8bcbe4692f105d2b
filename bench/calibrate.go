package main

import (
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"time"
)

// maxGenAllocs is the steady-state allocation rate above which the
// generator would show up in allocs_per_query; a run refuses to start
// beyond it.
const maxGenAllocs = 0.1

const calibrationTime = 200 * time.Millisecond

// calibration is the generator measured against a bare echo socket: what a
// query costs when the server under test does no DNS work at all.
type calibration struct {
	rttNS  float64 // median round trip
	cpuUS  float64 // process CPU per query, echo loop included
	allocs float64 // allocations per query, echo loop included
}

// echoServer answers every benchmark query with the canned reply, from
// reused buffers; it touches no code under test.
func echoServer(conn *net.UDPConn, done chan<- struct{}) {
	defer close(done)
	buf, out := make([]byte, 512), make([]byte, 0, 512)
	for {
		n, from, err := conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return
		}
		if reply, ok := appendCannedReply(out[:0], buf[:n]); ok {
			_, _ = conn.WriteToUDPAddrPort(reply, from)
		}
	}
}

// calibrate runs the generator against the echo server for a short while.
func calibrate() (calibration, error) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return calibration{}, err
	}
	done := make(chan struct{})
	go echoServer(conn, done)
	defer func() {
		conn.Close()
		<-done
	}()
	w := &workload{name: "calibration", names: 1000, zipf: true, ttlFor: constTTL(1), latencyCap: 1 << 18}
	gen, err := newGenerator(w, 1, new(atomic.Int64), conn.LocalAddr().(*net.UDPAddr).AddrPort(), nil)
	if err != nil {
		return calibration{}, err
	}
	defer gen.Close()
	if err := gen.warm([]int{0, 1, 2, 3}); err != nil {
		return calibration{}, fmt.Errorf("calibration: %w", err)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	gen.run(time.Now(), calibrationTime, 0, 0)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	attempted, ok, _, lat := gen.totals()
	if ok == 0 || ok != attempted {
		return calibration{}, fmt.Errorf("calibration: %d of %d echo replies validated", ok, attempted)
	}
	return calibration{
		rttNS:  float64(medianInt64(lat)),
		cpuUS:  float64(cpu.Microseconds()) / float64(ok),
		allocs: float64(ms1.Mallocs-ms0.Mallocs) / float64(ok),
	}, nil
}

// calibrateOrAbort refuses to run a workload with a generator that
// allocates per query: its allocations would be charged to the servers.
func calibrateOrAbort() error {
	cal, err := calibrate()
	if err != nil {
		return err
	}
	if cal.allocs > maxGenAllocs {
		return fmt.Errorf("generator allocates %.3f per query against an echo socket (limit %.1f)", cal.allocs, maxGenAllocs)
	}
	logf("generator floor: %.0f ns round trip, %.2f us CPU and %.4f allocs per query against an echo socket",
		cal.rttNS, cal.cpuUS, cal.allocs)
	return nil
}
