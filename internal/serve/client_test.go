package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/lineio"
)

// The typed verbs below are what the client and chaos tests speak through;
// callers outside the tests build a Request and call Do.

// Err converts a protocol-level rejection into a Go error (nil when OK).
func (r *Response) Err() error {
	if r.OK {
		return nil
	}
	if r.Code != "" {
		return fmt.Errorf("server error %s (code %s, retryable %v)", r.Error, r.Code, r.Retryable)
	}
	return fmt.Errorf("server error %s", r.Error)
}

// Ping performs a liveness round trip.
func (c *Client) Ping(ctx context.Context) error {
	resp, err := c.Do(ctx, &Request{Op: "ping"})
	if err != nil {
		return err
	}
	return resp.Err()
}

// WCTT fetches one analytical bound.
func (c *Client) WCTT(ctx context.Context, design string, width, height int, src, dst Coord, payloadBits int) (uint64, error) {
	resp, err := c.Do(ctx, &Request{
		Op: "wctt", Design: design, Width: width, Height: height,
		Src: &src, Dst: &dst, PayloadBits: payloadBits,
	})
	if err != nil {
		return 0, err
	}
	if err := resp.Err(); err != nil {
		return 0, err
	}
	var cycles uint64
	if err := json.Unmarshal(resp.Cycles, &cycles); err != nil {
		return 0, fmt.Errorf("serve client: bad cycles payload: %w", err)
	}
	return cycles, nil
}

// scriptedServer is a line server whose per-request behaviour follows a
// script: "ok" answers correctly, "overloaded" answers the coded retryable
// rejection, "wrongid" answers with a desynced id, "drop" severs the
// connection without answering, "stall" swallows the request silently.
// Requests beyond the script get "ok".
func scriptedServer(t *testing.T, actions ...string) (addr string, done func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	idx := 0
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				sc := lineio.NewScanner(c)
				for sc.Scan() {
					var req Request
					if err := json.Unmarshal(sc.Bytes(), &req); err != nil {
						return
					}
					mu.Lock()
					act := "ok"
					if idx < len(actions) {
						act = actions[idx]
						idx++
					}
					mu.Unlock()
					switch act {
					case "drop":
						return
					case "stall":
						continue
					case "wrongid":
						fmt.Fprintf(c, `{"id":%d,"ok":true}`+"\n", req.ID+1000)
					case "overloaded":
						_ = lineio.WriteLine(c, errorResponse(req.ID, errOverloaded))
					default:
						fmt.Fprintf(c, `{"id":%d,"ok":true}`+"\n", req.ID)
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String(), func() { _ = ln.Close() }
}

func dialer(addr string) func() (net.Conn, error) {
	return func() (net.Conn, error) { return net.Dial("tcp", addr) }
}

// TestClientAgainstRealServer runs the client against a live Server:
// liveness, a real bound, and the WCTT helper's value stability.
func TestClientAgainstRealServer(t *testing.T) {
	s := NewServer(Config{Workers: 2})
	defer s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.ServeListener(context.Background(), ln) }()

	c := NewClient(ClientConfig{Dial: dialer(ln.Addr().String()), RequestTimeout: 10 * time.Second})
	defer c.Close()
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("ping: %v", err)
	}
	a, err := c.WCTT(context.Background(), "regular", 4, 4, Coord{0, 0}, Coord{3, 3}, 0)
	if err != nil {
		t.Fatalf("wctt: %v", err)
	}
	b, err := c.WCTT(context.Background(), "regular", 4, 4, Coord{0, 0}, Coord{3, 3}, 0)
	if err != nil || a != b || a == 0 {
		t.Fatalf("wctt unstable: %d vs %d (err %v)", a, b, err)
	}
	st := c.Stats()
	if st.Requests != 3 || st.Retries != 0 || st.Reconnects != 0 {
		t.Fatalf("unexpected stats on the clean path: %+v", st)
	}
}

// TestClientRetriesOnConnDrop: severed connections are retried on fresh
// ones, transparently, for idempotent verbs.
func TestClientRetriesOnConnDrop(t *testing.T) {
	addr, done := scriptedServer(t, "drop", "drop", "ok")
	defer done()
	c := NewClient(ClientConfig{
		Dial: dialer(addr), RequestTimeout: 5 * time.Second,
		MaxRetries: 3, BackoffBase: time.Millisecond, Seed: 1,
	})
	defer c.Close()
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("ping through two drops: %v", err)
	}
	st := c.Stats()
	if st.Attempts != 3 || st.Retries != 2 || st.Reconnects != 2 || st.Failures != 0 {
		t.Fatalf("stats after two drops: %+v", st)
	}
}

// TestClientRetriesCodedRejection: a coded retryable rejection is retried
// on the same connection (the server answered; the link is healthy).
func TestClientRetriesCodedRejection(t *testing.T) {
	addr, done := scriptedServer(t, "overloaded", "ok")
	defer done()
	c := NewClient(ClientConfig{
		Dial: dialer(addr), RequestTimeout: 5 * time.Second,
		MaxRetries: 2, BackoffBase: time.Millisecond, Seed: 1,
	})
	defer c.Close()
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("ping through overload: %v", err)
	}
	st := c.Stats()
	if st.Retries != 1 || st.Reconnects != 0 {
		t.Fatalf("stats after overload retry: %+v", st)
	}
}

// TestClientDesyncDropsConn: an id mismatch is a poisoned stream — the
// connection is dropped and the attempt retried on a fresh one.
func TestClientDesyncDropsConn(t *testing.T) {
	addr, done := scriptedServer(t, "wrongid", "ok")
	defer done()
	c := NewClient(ClientConfig{
		Dial: dialer(addr), RequestTimeout: 5 * time.Second,
		MaxRetries: 2, BackoffBase: time.Millisecond, Seed: 1,
	})
	defer c.Close()
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("ping through desync: %v", err)
	}
	if st := c.Stats(); st.Reconnects != 1 || st.Retries != 1 {
		t.Fatalf("stats after desync: %+v", st)
	}
}

// TestClientNoRetryNonIdempotent: unknown (potentially mutating) verbs are
// never retried after a transport failure.
func TestClientNoRetryNonIdempotent(t *testing.T) {
	addr, done := scriptedServer(t, "drop")
	defer done()
	c := NewClient(ClientConfig{
		Dial: dialer(addr), RequestTimeout: 5 * time.Second,
		MaxRetries: 3, BackoffBase: time.Millisecond, Seed: 1,
	})
	defer c.Close()
	if _, err := c.Do(context.Background(), &Request{Op: "mutate"}); err == nil {
		t.Fatal("transport failure on a non-idempotent verb did not error")
	}
	if st := c.Stats(); st.Attempts != 1 || st.Retries != 0 || st.Failures != 1 {
		t.Fatalf("stats after non-idempotent failure: %+v", st)
	}
}

// TestClientRetriesExhausted: persistent failure surfaces after the
// configured attempts, counted as one failure.
func TestClientRetriesExhausted(t *testing.T) {
	addr, done := scriptedServer(t, "drop", "drop", "drop")
	defer done()
	c := NewClient(ClientConfig{
		Dial: dialer(addr), RequestTimeout: 5 * time.Second,
		MaxRetries: 2, BackoffBase: time.Millisecond, Seed: 1,
	})
	defer c.Close()
	if err := c.Ping(context.Background()); err == nil {
		t.Fatal("ping against an always-dropping server succeeded")
	}
	if st := c.Stats(); st.Attempts != 3 || st.Failures != 1 {
		t.Fatalf("stats after exhaustion: %+v", st)
	}
}

// TestClientBackoffFloor: retry delays respect the jitter floor (half of
// each exponential ceiling), so a retry storm cannot hammer the server.
func TestClientBackoffFloor(t *testing.T) {
	addr, done := scriptedServer(t, "drop", "drop", "ok")
	defer done()
	const base = 40 * time.Millisecond
	c := NewClient(ClientConfig{
		Dial: dialer(addr), RequestTimeout: 5 * time.Second,
		MaxRetries: 2, BackoffBase: base, Seed: 7,
	})
	defer c.Close()
	start := time.Now()
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("ping: %v", err)
	}
	// Sleeps before the two retries draw from [base/2, base) and
	// [base, 2*base): at least 20ms + 40ms.
	if floor := base/2 + base; time.Since(start) < floor {
		t.Fatalf("two retries took %v, want >= %v", time.Since(start), floor)
	}
}

// TestClientRequestTimeout: a stalled server trips the per-attempt
// deadline instead of hanging the caller.
func TestClientRequestTimeout(t *testing.T) {
	addr, done := scriptedServer(t, "stall")
	defer done()
	c := NewClient(ClientConfig{Dial: dialer(addr), RequestTimeout: 50 * time.Millisecond})
	defer c.Close()
	start := time.Now()
	if err := c.Ping(context.Background()); err == nil {
		t.Fatal("ping against a stalled server succeeded")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("timeout took %v", time.Since(start))
	}
}
