package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/lineio"
	"repro/internal/retry"
)

// ClientConfig tunes a Client. Only Dial is required.
type ClientConfig struct {
	// Dial opens a connection to the server; the client calls it lazily on
	// first use and again after any connection is dropped.
	Dial func() (net.Conn, error)
	// RequestTimeout bounds one attempt (write + read); 0 means no
	// per-attempt deadline (the call's context still applies).
	RequestTimeout time.Duration
	// MaxRetries is the number of additional attempts after the first.
	// Retries are restricted to idempotent verbs and to failures that
	// cannot have a divergent server-side effect anyway (transport errors,
	// desyncs, and coded retryable protocol errors).
	MaxRetries int
	// BackoffBase and BackoffMax shape the jittered exponential backoff
	// between retries (0 = 100ms base, 64x base ceiling — the retry
	// package defaults).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed seeds the backoff jitter, keeping chaos runs replayable.
	Seed int64
}

// ClientStats counts a client's activity. Retries and Reconnects are the
// resilience columns a load harness reports; Failures counts Do calls that
// exhausted their attempts.
type ClientStats struct {
	Requests   uint64 // Do calls
	Attempts   uint64 // wire round trips (>= Requests)
	Retries    uint64 // attempts after the first
	Reconnects uint64 // redials after a dropped connection
	Failures   uint64 // Do calls returning a transport-level error
}

// errDesync marks a response whose id does not match the in-flight request:
// the stream's framing can no longer be trusted, so the connection is
// dropped and — the request being idempotent — the attempt is retried on a
// fresh one.
var errDesync = errors.New("serve client: response id mismatch")

// Client is a sequential protocol client with per-attempt deadlines,
// transparent reconnect, and jittered exponential retries restricted to
// idempotent verbs. It keeps at most one request in flight (calls are
// serialised), which is what makes its retry loop exactly-once at the API
// level: a request is either answered by the response bearing its id, or
// retried on a fresh connection with a fresh id after the old one was
// abandoned — no response can ever be attributed to the wrong call.
//
// A Client is safe for concurrent use (calls queue on an internal lock);
// throughput-oriented callers run one Client per goroutine and share
// nothing.
type Client struct {
	cfg     ClientConfig
	backoff *retry.Backoff

	mu     sync.Mutex
	conn   net.Conn
	sc     *bufio.Scanner
	dialed bool // a connection has been established at least once
	nextID int64
	stats  ClientStats
}

// NewClient builds a client. The zero backoff configuration uses the retry
// package defaults.
func NewClient(cfg ClientConfig) *Client {
	return &Client{
		cfg:     cfg,
		backoff: retry.New(cfg.BackoffBase, cfg.BackoffMax, cfg.Seed),
		nextID:  1,
	}
}

// Close drops the connection. The client can be used again afterwards (it
// redials).
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropConn()
}

// Stats snapshots the client counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// idempotentOp reports whether a verb can be safely resubmitted. Every
// current verb is a pure query over immutable inputs, so all are
// idempotent; unknown verbs are conservatively not (a future mutating verb
// added to the server must not be silently retried by an old client).
func idempotentOp(op string) bool {
	switch op {
	case "ping", "wctt", "batch", "wcet", "wcet-batch", "scenario", "stats":
		return true
	}
	return false
}

// Do submits one request and returns its response. The request's ID is
// assigned by the client (a fresh id per attempt); the caller's value is
// ignored. A returned *Response may still carry ok:false — protocol-level
// rejections the server answered are results, not transport errors — but
// coded retryable rejections are retried first if the verb allows it. A
// non-nil error means no trustworthy response was obtained.
func (c *Client) Do(ctx context.Context, req *Request) (*Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Requests++
	c.backoff.Reset()
	retriable := idempotentOp(req.Op)
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			c.stats.Retries++
			if err := c.sleep(ctx); err != nil {
				c.stats.Failures++
				return nil, fmt.Errorf("%w (after %v)", err, lastErr)
			}
		}
		c.stats.Attempts++
		resp, err := c.roundTrip(ctx, req)
		if err == nil {
			if resp.OK || !resp.Retryable || !retriable || attempt >= c.cfg.MaxRetries {
				return resp, nil
			}
			lastErr = fmt.Errorf("server rejection %q", resp.Code)
			continue
		}
		lastErr = err
		_ = c.dropConn()
		if !retriable || attempt >= c.cfg.MaxRetries || ctx.Err() != nil {
			c.stats.Failures++
			return nil, lastErr
		}
	}
}

// sleep waits one backoff step or until the context ends.
func (c *Client) sleep(ctx context.Context) error {
	t := time.NewTimer(c.backoff.Next())
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// roundTrip performs one attempt: ensure a connection, write the request
// under the attempt deadline, read exactly one response line and match its
// id. Any failure poisons the connection (the caller drops it).
func (c *Client) roundTrip(ctx context.Context, req *Request) (*Response, error) {
	if err := c.ensureConn(); err != nil {
		return nil, err
	}
	id := c.nextID
	c.nextID++
	attempt := *req
	attempt.ID = id
	body, err := json.Marshal(&attempt)
	if err != nil {
		return nil, fmt.Errorf("serve client: marshal: %w", err)
	}
	deadline := time.Time{}
	if c.cfg.RequestTimeout > 0 {
		deadline = time.Now().Add(c.cfg.RequestTimeout)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	if err := c.conn.SetDeadline(deadline); err != nil {
		return nil, err
	}
	if err := lineio.WriteLine(c.conn, body); err != nil {
		return nil, err
	}
	if !c.sc.Scan() {
		if err := c.sc.Err(); err != nil {
			return nil, err
		}
		return nil, io.ErrUnexpectedEOF
	}
	var resp Response
	if err := json.Unmarshal(c.sc.Bytes(), &resp); err != nil {
		return nil, fmt.Errorf("serve client: bad response line: %w", err)
	}
	if resp.ID != id {
		return nil, fmt.Errorf("%w: got %d, want %d", errDesync, resp.ID, id)
	}
	if !resp.OK && resp.Error == "" {
		// The server never writes ok:false without an error message; this
		// line was corrupted in flight into something that still parses
		// (e.g. a damaged key name). Treat it like a desync, not a result.
		return nil, fmt.Errorf("serve client: corrupt response (ok=false without error)")
	}
	return &resp, nil
}

// ensureConn dials if no connection is live.
func (c *Client) ensureConn() error {
	if c.conn != nil {
		return nil
	}
	conn, err := c.cfg.Dial()
	if err != nil {
		return err
	}
	if c.dialed {
		c.stats.Reconnects++
	}
	c.dialed = true
	c.conn = conn
	c.sc = lineio.NewScanner(conn)
	return nil
}

// dropConn closes and forgets the connection.
func (c *Client) dropConn() error {
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	c.sc = nil
	return err
}

// Response is one decoded protocol response line. Cycles/Result/Stats are
// populated by the verbs that produce them; Code and Retryable only by the
// coded serving-condition errors of the taxonomy in PROTOCOL.md.
type Response struct {
	ID        int64           `json:"id"`
	OK        bool            `json:"ok"`
	Cycles    json.RawMessage `json:"cycles,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
	Stats     *Stats          `json:"stats,omitempty"`
	Error     string          `json:"error,omitempty"`
	Code      string          `json:"code,omitempty"`
	Retryable bool            `json:"retryable,omitempty"`
}
