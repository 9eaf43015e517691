package main

import (
	"bufio"
	"fmt"
	"net"
	"time"
)

// Host-speed correction.
//
// The machines this benchmark runs on are shared: their speed moves by 20-40 %
// in spells of tens of seconds to minutes, together for every workload, and a
// whole run sits inside one spell (README.md, "Host-speed correction"). More repetitions do
// not average that away, so the untraced run measures the host as well: between
// repetitions it times a fixed piece of work of its own — the probe — and
// reports every end-to-end time as it would read with the host at its
// reference speed, wall × probeRef ÷ probe. The probe lives in bench/, which a
// change that claims a gain may not edit, so it moves with the host and never
// with the program under test.
//
// The probe mixes what the workloads are made of, in roughly equal parts:
// branchy integer work in the first-level cache (a sort), dependent loads
// over 1 MiB (a pointer chase: second- and third-level cache latency, which
// is what the simulator feels of a busy neighbour), and system calls with
// goroutine wake-ups (an echo over loopback TCP). When sizing, dividing by
// this sum halved the run-to-run spread of every workload's times while the
// host was unsteady and left it alone while the host was quiet.

// probeRef is what one probe takes on the reference host: the 2-vCPU box this
// benchmark was sized on, in a quiet spell.
const probeRef = 60 * time.Millisecond

type hostProbe struct {
	next []uint32 // one cycle through 1 MiB of indices
	conn net.Conn // to the echo goroutine
	rd   *bufio.Reader
	sink uint64 // keeps the compiler from dropping the work
}

func newHostProbe() (*hostProbe, error) {
	p := &hostProbe{next: make([]uint32, 1<<18)}
	for i := range p.next {
		p.next[i] = uint32(i)
	}
	x := uint64(12345)
	for i := len(p.next) - 1; i > 0; i-- { // Sattolo's shuffle: a single cycle
		x = xorshift(x)
		j := int(x % uint64(i))
		p.next[i], p.next[j] = p.next[j], p.next[i]
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("bench: host probe: %w", err)
	}
	defer ln.Close()
	if p.conn, err = net.DialTimeout("tcp", ln.Addr().String(), 5*time.Second); err != nil {
		return nil, fmt.Errorf("bench: host probe: %w", err)
	}
	peer, err := ln.Accept() // the kernel has queued it: Dial returned
	if err != nil {
		p.conn.Close()
		return nil, fmt.Errorf("bench: host probe: %w", err)
	}
	go func() { // echoes lines until the probe's connection closes
		defer peer.Close()
		rd := bufio.NewReader(peer)
		for {
			line, err := rd.ReadSlice('\n')
			if err != nil {
				return
			}
			if _, err := peer.Write(line); err != nil {
				return
			}
		}
	}()
	p.rd = bufio.NewReader(p.conn)
	return p, nil
}

func (p *hostProbe) close() { p.conn.Close() }

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

var probeLine = []byte(`{"id":1,"op":"wctt","design":"regular","width":8,"height":8,"src":{"x":0,"y":0},"dst":{"x":5,"y":6}}` + "\n")

// run does the probe's fixed work once and returns how long it took.
func (p *hostProbe) run() (time.Duration, error) {
	start := time.Now()

	x := uint64(88172645463325252)
	var a [64]uint32
	for r := 0; r < 16000; r++ {
		for i := range a {
			x = xorshift(x)
			a[i] = uint32(x)
		}
		for i := 1; i < len(a); i++ { // insertion sort: short, unpredictable branches
			v, j := a[i], i-1
			for j >= 0 && a[j] > v {
				a[j+1] = a[j]
				j--
			}
			a[j+1] = v
		}
		p.sink += uint64(a[7])
	}

	at := uint32(0)
	for i := 0; i < 3000000; i++ {
		at = p.next[at]
	}
	p.sink += uint64(at)

	if err := p.conn.SetDeadline(time.Now().Add(sendTimeout)); err != nil {
		return 0, err
	}
	for i := 0; i < 3500; i++ {
		if _, err := p.conn.Write(probeLine); err != nil {
			return 0, fmt.Errorf("bench: host probe: %w", err)
		}
		if _, err := p.rd.ReadSlice('\n'); err != nil {
			return 0, fmt.Errorf("bench: host probe: %w", err)
		}
	}
	return time.Since(start), nil
}

// hostClock turns walls measured between two probes into walls at the
// reference host speed, and remembers how slow it found the host.
type hostClock struct {
	probe    *hostProbe
	last     time.Duration // the probe that closed the previous span
	slowdown []float64     // one per span: mean of its two probes ÷ probeRef
}

func newHostClock(p *hostProbe) (*hostClock, error) {
	d, err := p.run()
	return &hostClock{probe: p, last: d}, err
}

// factor probes the host again and returns what to multiply the walls
// measured since the previous probe by.
func (c *hostClock) factor() (float64, error) {
	d, err := c.probe.run()
	if err != nil {
		return 0, err
	}
	slow := float64(c.last+d) / 2 / float64(probeRef)
	c.last = d
	c.slowdown = append(c.slowdown, slow)
	return 1 / slow, nil
}
