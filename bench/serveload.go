package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/mesh"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

// The serve workloads' key space: every ordered pair of distinct nodes of one
// mesh, two designs, two payload sizes (0 on the wire selects the one-flit
// request payload).
var (
	serveDesigns  = []string{"regular", "waw+wap"}
	servePayloads = []int{0, 512}
)

const serveConns = 2 // closed-loop callers, one line outstanding each (nproc here is 2)

// serveSizing is the shape of one serve workload.
type serveSizing struct {
	dim         int // square mesh size
	perLine     int // bounds per request line: the whole pair count (batch) or 1 (wctt)
	distinct    int // distinct pre-rendered lines per connection, cycled
	linesPerRep int // lines each connection sends in one timed repetition
	replayLines int // lines of the traced in-process replay (about half a second)
}

// serveSizes returns the workload's shape. Full sizes give repetitions of
// half a second (serve-lines) and two and a half seconds (serve-batch, whose
// lines take a millisecond each) on a 2-core box: every repetition leaves
// more than 20 samples beyond its own p99.
func serveSizes(name string, mini bool) serveSizing {
	switch {
	case name == wServeBatch && mini:
		return serveSizing{dim: 4, perLine: 240, distinct: 4, linesPerRep: 20, replayLines: 8}
	case name == wServeBatch:
		return serveSizing{dim: 8, perLine: 4032, distinct: 32, linesPerRep: 1200, replayLines: 300}
	case mini:
		return serveSizing{dim: 4, perLine: 1, distinct: 64, linesPerRep: 200, replayLines: 200}
	default:
		return serveSizing{dim: 8, perLine: 1, distinct: 4096, linesPerRep: 6000, replayLines: 40000}
	}
}

// serveLine is one pre-rendered request with the response the daemon must
// give, byte for byte (both without the trailing newline in want).
type serveLine struct {
	req  []byte // newline-terminated
	want []byte
}

// oracle holds the expected bound of every key, computed by calling the
// analysis package directly: a second route to the answer the daemon gives,
// valid for any seed.
type oracle struct {
	dim    mesh.Dim
	nodes  []mesh.Node
	bounds [][][]uint64 // [design][payload][src*N+dst]
	coldNS float64      // per bound, first pass over a fresh model
	warmNS float64      // per bound, second pass (memo hits)
}

// buildOracle computes every key's bound twice, on a fresh model (cold) and
// again (memo hits), timing both passes; with a tracer the two passes are
// recorded as roll-up spans.
func buildOracle(tr *tracer, size int) (*oracle, error) {
	d, err := mesh.NewDim(size, size)
	if err != nil {
		return nil, err
	}
	o := &oracle{dim: d, nodes: d.AllNodes()}
	n := len(o.nodes)
	var cold, warm time.Duration
	queries := 0
	for _, name := range serveDesigns {
		design, err := scenario.ParseDesign(name)
		if err != nil {
			return nil, err
		}
		m, err := analysis.NewModel(analysis.DefaultParams(d))
		if err != nil {
			return nil, err
		}
		var perPayload [][]uint64
		for _, wire := range servePayloads {
			payload := wire
			if payload == 0 {
				payload = traffic.RequestPayloadBits
			}
			table := make([]uint64, n*n)
			for pass := 0; pass < 2; pass++ {
				start := time.Now()
				for si, src := range o.nodes {
					for di, dst := range o.nodes {
						if si == di {
							continue
						}
						c, err := m.MessageWCTT(design, src, dst, payload)
						if err != nil {
							return nil, err
						}
						table[si*n+di] = c
					}
				}
				if pass == 0 {
					cold += time.Since(start)
					queries += n * (n - 1)
				} else {
					warm += time.Since(start)
				}
			}
			perPayload = append(perPayload, table)
		}
		o.bounds = append(o.bounds, perPayload)
	}
	o.coldNS = float64(cold) / float64(queries)
	o.warmNS = float64(warm) / float64(queries)
	tr.rollup("analysis", "message_wctt_cold", -1, int64(queries), int64(cold))
	tr.rollup("analysis", "message_wctt_warm", -1, int64(queries), int64(warm))
	return o, nil
}

// lines renders one connection's request lines and expected responses from
// the seed. Lines alternate designs, and payloads every second line, so both
// designs' memos and both payload keys stay in play.
func (o *oracle) lines(sz serveSizing, seed int64, conn int) []serveLine {
	rng := rand.New(rand.NewSource(seed*7919 + int64(conn)))
	n := len(o.nodes)
	pair := func() (int, int) {
		si := rng.Intn(n)
		di := rng.Intn(n - 1)
		if di >= si {
			di++
		}
		return si, di
	}
	out := make([]serveLine, sz.distinct)
	for i := range out {
		di, pi := i%2, i/2%2
		var req, want []byte
		head := func(op string) {
			req = append(req, `{"id":`...)
			req = strconv.AppendInt(req, int64(i+1), 10)
			req = append(req, `,"op":"`+op+`","design":"`+serveDesigns[di]+`","width":`...)
			req = strconv.AppendInt(req, int64(o.dim.Width), 10)
			req = append(req, `,"height":`...)
			req = strconv.AppendInt(req, int64(o.dim.Height), 10)
			if p := servePayloads[pi]; p != 0 {
				req = append(req, `,"payload_bits":`...)
				req = strconv.AppendInt(req, int64(p), 10)
			}
			want = append(want, `{"id":`...)
			want = strconv.AppendInt(want, int64(i+1), 10)
			want = append(want, `,"ok":true,"cycles":`...)
		}
		table := o.bounds[di][pi]
		if sz.perLine == 1 {
			head("wctt")
			s, d := pair()
			req = fmt.Appendf(req, `,"src":{"x":%d,"y":%d},"dst":{"x":%d,"y":%d}}`,
				o.nodes[s].X, o.nodes[s].Y, o.nodes[d].X, o.nodes[d].Y)
			want = strconv.AppendUint(want, table[s*n+d], 10)
			want = append(want, '}')
		} else {
			head("batch")
			req = append(req, `,"queries":[`...)
			want = append(want, '[')
			for q := 0; q < sz.perLine; q++ {
				if q > 0 {
					req = append(req, ',')
					want = append(want, ',')
				}
				s, d := pair()
				req = fmt.Appendf(req, "[%d,%d,%d,%d]", o.nodes[s].X, o.nodes[s].Y, o.nodes[d].X, o.nodes[d].Y)
				want = strconv.AppendUint(want, table[s*n+d], 10)
			}
			req = append(req, "]}"...)
			want = append(want, "]}"...)
		}
		out[i] = serveLine{req: append(req, '\n'), want: want}
	}
	return out
}

// caller is one closed-loop connection of the load generator. It writes
// pre-rendered bytes on a raw TCP connection and compares response bytes:
// no serve.Client and no encoding/json in the timed path, which would make
// the generator the thing measured.
type caller struct {
	conn  net.Conn
	rd    *bufio.Reader
	lines []serveLine
	next  int
	lat   []int64 // ns, one per line answered in the last send
	bad   int     // lines lost, refused or answered with other bytes

	timeout time.Duration // of one send; sendTimeout outside tests
}

func dialCaller(addr string, lines []serveLine) (*caller, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("bench: dial daemon: %w", err)
	}
	// The longest response is a batch line of 4032 bounds (about 30 KiB);
	// ReadSlice needs the whole line in the buffer.
	return &caller{conn: conn, rd: bufio.NewReaderSize(conn, 1<<18), lines: lines, timeout: sendTimeout}, nil
}

// sendTimeout bounds one send (at most a few seconds of round trips): a
// daemon that loses or never answers a line fails the run instead of hanging
// it. One deadline per send keeps timer updates out of the timed round trips.
const sendTimeout = 30 * time.Second

// send runs n closed-loop round trips: write one line, read its whole
// response line, compare, repeat. A transport error or the deadline ends the
// send and counts every unanswered line as bad.
func (c *caller) send(n int) {
	c.lat = slices.Grow(c.lat[:0], n)
	if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
		c.bad += n
		return
	}
	for i := 0; i < n; i++ {
		ln := &c.lines[c.next]
		c.next = (c.next + 1) % len(c.lines)
		start := time.Now()
		if _, err := c.conn.Write(ln.req); err != nil {
			c.bad += n - i
			return
		}
		got, err := c.rd.ReadSlice('\n')
		if err != nil {
			c.bad += n - i
			return
		}
		c.lat = append(c.lat, int64(time.Since(start)))
		if !bytes.Equal(got[:len(got)-1], ln.want) {
			c.bad++
		}
	}
}

// serveRig is a daemon with its warmed callers: what set-up builds.
type serveRig struct {
	d       *daemon
	callers []*caller
}

func (rig *serveRig) close() error {
	for _, c := range rig.callers {
		c.conn.Close()
	}
	return rig.d.stop()
}

// setupServe starts the daemon, computes the oracle, renders the lines,
// connects and sends every distinct line once, untimed, which fills the
// daemon's model cache and bound memo.
func (r *runner) setupServe(sz serveSizing) (*serveRig, error) {
	d, err := startDaemon(r.ctx, r.noctool)
	if err != nil {
		return nil, err
	}
	rig := &serveRig{d: d}
	orc, err := buildOracle(nil, sz.dim)
	if err != nil {
		rig.close()
		return nil, err
	}
	for i := 0; i < serveConns; i++ {
		c, err := dialCaller(d.addr, orc.lines(sz, r.seed, i))
		if err != nil {
			rig.close()
			return nil, err
		}
		rig.callers = append(rig.callers, c)
		if c.send(len(c.lines)); c.bad > 0 {
			rig.close()
			return nil, fmt.Errorf("bench: %d warm-up lines were lost or differ from the oracle", c.bad)
		}
	}
	return rig, nil
}

// repetition sends lines request lines on every connection at once. It
// returns the wall time until the last caller is done and the round-trip
// times of every answered line, sorted.
func (rig *serveRig) repetition(lines int) (time.Duration, []int64) {
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range rig.callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.send(lines)
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	var lat []int64
	for _, c := range rig.callers {
		lat = append(lat, c.lat...)
	}
	slices.Sort(lat)
	return wall, lat
}

// badLines sums the callers' failed lines.
func (rig *serveRig) badLines() int {
	n := 0
	for _, c := range rig.callers {
		n += c.bad
	}
	return n
}

// measureServe is the untraced run of a serve workload. Every time is
// corrected by the host probes around it (hostspeed.go).
func (r *runner) measureServe(name string) (*result, error) {
	res := newResult(false)
	sz := serveSizes(name, r.mini)
	clock, err := newHostClock(r.probe)
	if err != nil {
		return nil, err
	}

	// Set up several times and keep the last rig.
	var setupS []float64
	var rig *serveRig
	defer func() {
		if rig != nil {
			rig.close()
		}
	}()
	for i := 0; i < r.setups(); i++ {
		if rig != nil {
			err := rig.close()
			if rig = nil; err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if rig, err = r.setupServe(sz); err != nil {
			return nil, err
		}
		wall := time.Since(start).Seconds()
		f, err := clock.factor()
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, wall*f)
	}

	// Percentiles are taken per repetition and the median over repetitions
	// reported: a slow spell of the host then spoils some repetitions, not
	// the run's figure.
	var perS, p50MS, p99MS, rawPerS, rawP50MS, rawP99MS []float64
	start := time.Now()
	for res.Attempted == 0 || time.Since(start).Seconds() < r.seconds {
		wall, lat := rig.repetition(sz.linesPerRep)
		if r.ctx.Err() != nil {
			return nil, r.ctx.Err()
		}
		lines := serveConns * sz.linesPerRep
		bad := rig.badLines()
		res.Attempted += lines
		res.Failed += bad
		if bad > 0 {
			res.fail("%d lines lost, refused or different from the oracle", bad)
			break
		}
		f, err := clock.factor()
		if err != nil {
			return nil, err
		}
		rawPerS = append(rawPerS, float64(lines*sz.perLine)/wall.Seconds())
		rawP50MS = append(rawP50MS, float64(percentile(lat, 50))/1e6)
		rawP99MS = append(rawP99MS, float64(percentile(lat, 99))/1e6)
		perS = append(perS, rawPerS[len(rawPerS)-1]/f)
		p50MS = append(p50MS, rawP50MS[len(rawP50MS)-1]*f)
		p99MS = append(p99MS, rawP99MS[len(rawP99MS)-1]*f)
	}
	rss, err := rig.d.peakRSSKiB()
	if err != nil {
		return nil, err
	}
	err = rig.close()
	rig = nil
	if err != nil {
		if len(res.notes) > 0 { // a daemon that stopped answering does not drain either: say both
			err = fmt.Errorf("%s; %w", strings.Join(res.notes, "; "), err)
		}
		return nil, err
	}
	if len(perS) == 0 {
		return res, nil
	}
	slow := summarize(clock.slowdown)
	res.HostSlowdown = &slow
	setMedian(res, "setup_s", setupS)
	setMedian(res, "latency_p50_ms", p50MS)
	setMedian(res, "latency_tail_ms", p99MS)
	setMedian(res, "throughput_per_s", perS)
	res.set("peak_rss_mb", float64(rss)/1024)
	res.Raw["latency_p50_ms"], res.Raw["latency_tail_ms"] = median(rawP50MS), median(rawP99MS)
	res.Raw["throughput_per_s"] = median(rawPerS)
	return res, nil
}
