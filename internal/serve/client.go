package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/lineio"
)

// ClientConfig configures a Client.
type ClientConfig struct {
	// Dial opens a connection to the server; the client calls it lazily on
	// first use and again after any connection is dropped.
	Dial func() (net.Conn, error)
}

// Client is a sequential protocol client: each Do is one attempt — write
// one request line, read one response line — and retrying is the caller's
// job. Any failure drops the connection, so the next call redials on a
// fresh stream and no response can be attributed to the wrong call.
//
// A Client is safe for concurrent use (calls queue on an internal lock);
// throughput-oriented callers run one Client per goroutine and share
// nothing.
type Client struct {
	cfg ClientConfig

	mu     sync.Mutex
	conn   net.Conn
	sc     *bufio.Scanner
	nextID int64
}

// NewClient builds a client; it dials on first use.
func NewClient(cfg ClientConfig) *Client {
	return &Client{cfg: cfg, nextID: 1}
}

// Close drops the connection. The client can be used again afterwards (it
// redials).
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropConn()
}

// Do submits one request and returns its response. The request's ID is
// assigned by the client; the caller's value is ignored. A returned
// *Response may still carry ok:false — rejections the server answered,
// retryable ones included, are results, not transport errors. A non-nil
// error means no trustworthy response was obtained; ctx's deadline and its
// cancellation both end the attempt.
func (c *Client) Do(ctx context.Context, req *Request) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, err := c.roundTrip(ctx, req)
	if err != nil {
		_ = c.dropConn()
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, fmt.Errorf("%w: %w", ctxErr, err)
		}
		return nil, err
	}
	return resp, nil
}

// roundTrip performs one attempt: ensure a connection, write the request
// under ctx's deadline, read exactly one response line and match its id.
// Any failure poisons the connection (the caller drops it).
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
	// ctx ending — its deadline or its cancellation — moves the connection's
	// deadline into the past, which ends a blocked write or read. Doing it
	// only after ctx is done means a timed-out attempt always reports
	// ctx.Err().
	conn := c.conn
	stop := context.AfterFunc(ctx, func() { _ = conn.SetDeadline(time.Unix(1, 0)) })
	defer func() {
		if !stop() {
			// The cancellation raced the attempt and its deadline may land
			// after this call returns: the connection is not reused.
			_ = c.dropConn()
		}
	}()
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
		return nil, fmt.Errorf("serve client: response id mismatch: got %d, want %d", resp.ID, id)
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
