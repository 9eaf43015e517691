// Servebench: the load harness of the NoC timing daemon. It drives
// analytical WCTT queries through the serve layer — vectorised batch-verb
// lines over multiple concurrent connections — and reports the sustained
// queries/sec plus the daemon's own counters (bounds answered, latency
// quantiles) and the resilience columns: protocol errors, client
// retries and reconnects, and lost responses. A lost response — a request
// that never received a trustworthy answer — fails the run with a non-zero
// exit, so CI can treat the harness as an end-to-end liveness check.
//
// By default the daemon runs in-process (the connections are in-memory
// pipes, so the number measures the serving stack, not the kernel's TCP
// path). With -tcp ADDR the harness dials an external daemon started with
// `noctool serve -listen ADDR` through serve.Client — per-attempt
// deadlines, transparent reconnect, jittered idempotent retries — so a
// flaky link degrades the retry column instead of the result.
//
// Run with:
//
//	go run ./examples/servebench
//	go run ./examples/servebench -queries 2000000 -conns 4 -batch 8192
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/mesh"
	"repro/internal/serve"
)

// connReport is one connection's resilience accounting.
type connReport struct {
	responses  int
	errors     int // answered protocol rejections (ok:false)
	retries    uint64
	reconnects uint64
	lost       int // requests with no trustworthy answer
}

func main() {
	queries := flag.Int("queries", 1_000_000, "total WCTT queries to fire")
	batch := flag.Int("batch", 8192, "queries per batch-verb line")
	conns := flag.Int("conns", 2, "concurrent connections")
	size := flag.Int("size", 8, "square mesh size the queries target")
	design := flag.String("design", "waw+wap", "design point to query")
	tcp := flag.String("tcp", "", "dial an external daemon at this address instead of serving in-process")
	retries := flag.Int("retries", 5, "client retry budget per request (-tcp mode)")
	flag.Parse()

	d := mesh.MustDim(*size, *size)
	pairs := allPairs(d)
	fmt.Printf("servebench: %d queries (%s, %dx%d, %d flows), %d/conn-batch, %d conns\n",
		*queries, *design, *size, *size, len(pairs), *batch, *conns)

	// Pre-build each connection's batch requests so the timed section
	// measures serving, not request generation.
	perConn := (*queries + *conns - 1) / *conns
	batches := make([][]*serve.Request, *conns)
	for c := range batches {
		batches[c] = buildBatches(pairs, *design, d, perConn, *batch, c)
	}

	var srv *serve.Server
	var fire func(c int) connReport
	if *tcp == "" {
		srv = serve.NewServer(serve.Config{})
		defer srv.Close()
		// Build the shared model through the same protocol path the timed
		// queries use, so the timed section measures serving only.
		warm := renderLines(buildBatches(pairs, *design, d, len(pairs), *batch, 0))
		if err := srv.ServeLines(context.Background(), bytes.NewReader(warm), io.Discard); err != nil {
			log.Fatal(err)
		}
		streams := make([][]byte, *conns)
		for c := range streams {
			streams[c] = renderLines(batches[c])
		}
		fire = func(c int) connReport {
			var count countWriter
			rep := connReport{}
			err := srv.ServeLines(context.Background(), bytes.NewReader(streams[c]), &count)
			rep.responses = count.lines
			rep.errors = count.failed
			if err != nil {
				log.Printf("conn %d: %v", c, err)
			}
			if lost := len(batches[c]) - count.lines; lost > 0 {
				rep.lost = lost
			}
			return rep
		}
	} else {
		warmClient := newClient(*tcp, *retries, 0)
		for _, req := range buildBatches(pairs, *design, d, len(pairs), *batch, 0) {
			if _, err := warmClient.Do(context.Background(), req); err != nil {
				log.Fatalf("warmup: %v", err)
			}
		}
		warmClient.Close()
		fire = func(c int) connReport {
			client := newClient(*tcp, *retries, int64(c)+1)
			defer client.Close()
			rep := connReport{}
			for _, req := range batches[c] {
				resp, err := client.Do(context.Background(), req)
				switch {
				case err != nil:
					rep.lost++
				case !resp.OK:
					rep.responses++
					rep.errors++
				default:
					rep.responses++
				}
			}
			st := client.Stats()
			rep.retries, rep.reconnects = st.Retries, st.Reconnects
			return rep
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	reports := make([]connReport, *conns)
	for c := 0; c < *conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			reports[c] = fire(c)
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var total connReport
	for _, r := range reports {
		total.responses += r.responses
		total.errors += r.errors
		total.retries += r.retries
		total.reconnects += r.reconnects
		total.lost += r.lost
	}

	qps := float64(*conns*perConn) / elapsed.Seconds()
	fmt.Printf("servebench: %d responses in %s — %.0f queries/s\n", total.responses, elapsed.Round(time.Millisecond), qps)
	fmt.Printf("servebench: errors %d, retries %d, reconnects %d, lost %d\n",
		total.errors, total.retries, total.reconnects, total.lost)
	if srv != nil {
		st := srv.Stats()
		fmt.Printf("servebench: daemon answered %d bounds on %d lines\n", st.Queries, st.Requests)
		fmt.Printf("servebench: per-line latency p50 <= %s, p99 <= %s\n",
			time.Duration(st.Latency.P50NS), time.Duration(st.Latency.P99NS))
	}
	if total.lost > 0 {
		fmt.Fprintf(os.Stderr, "servebench: FAIL — %d requests lost their response\n", total.lost)
		os.Exit(1)
	}
}

// newClient builds the resilient protocol client of the -tcp path.
func newClient(addr string, retries int, seed int64) *serve.Client {
	return serve.NewClient(serve.ClientConfig{
		Dial:           func() (net.Conn, error) { return net.Dial("tcp", addr) },
		RequestTimeout: 30 * time.Second,
		MaxRetries:     retries,
		BackoffBase:    5 * time.Millisecond,
		Seed:           seed,
	})
}

// allPairs enumerates every distinct (src, dst) flow of the mesh.
func allPairs(d mesh.Dim) [][2]mesh.Node {
	nodes := d.AllNodes()
	pairs := make([][2]mesh.Node, 0, len(nodes)*(len(nodes)-1))
	for _, s := range nodes {
		for _, t := range nodes {
			if s != t {
				pairs = append(pairs, [2]mesh.Node{s, t})
			}
		}
	}
	return pairs
}

// buildBatches renders `queries` WCTT tuples (cycling through pairs, offset
// so connections disagree about order) into batch-verb requests.
func buildBatches(pairs [][2]mesh.Node, design string, d mesh.Dim, queries, batch, offset int) []*serve.Request {
	var reqs []*serve.Request
	id := int64(1)
	for q := 0; q < queries; {
		n := min(batch, queries-q)
		var tuples bytes.Buffer
		tuples.WriteByte('[')
		for i := 0; i < n; i++ {
			p := pairs[(offset+q+i)%len(pairs)]
			if i > 0 {
				tuples.WriteByte(',')
			}
			fmt.Fprintf(&tuples, "[%d,%d,%d,%d]", p[0].X, p[0].Y, p[1].X, p[1].Y)
		}
		tuples.WriteByte(']')
		reqs = append(reqs, &serve.Request{
			ID: id, Op: "batch", Design: design,
			Width: d.Width, Height: d.Height,
			Queries: json.RawMessage(tuples.Bytes()),
		})
		q += n
		id++
	}
	return reqs
}

// renderLines marshals requests into a newline-delimited protocol stream.
func renderLines(reqs []*serve.Request) []byte {
	var buf bytes.Buffer
	for _, req := range reqs {
		line, err := json.Marshal(req)
		if err != nil {
			log.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// countWriter counts response lines (and ok:false rejections among them)
// without retaining them.
type countWriter struct {
	lines  int
	failed int
	tail   []byte
}

func (c *countWriter) Write(p []byte) (int, error) {
	data := p
	if len(c.tail) > 0 {
		data = append(c.tail, p...)
	}
	for {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			break
		}
		c.lines++
		if bytes.Contains(data[:nl], []byte(`"ok":false`)) {
			c.failed++
		}
		data = data[nl+1:]
	}
	c.tail = append(c.tail[:0], data...)
	return len(p), nil
}
