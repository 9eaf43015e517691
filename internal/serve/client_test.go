package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/lineio"
)

// scriptedServer is a line server whose per-request behaviour follows a
// script: "ok" answers correctly, "overloaded" answers the coded retryable
// rejection, "wrongid" answers with a desynced id, "corrupt" answers
// ok:false without an error, "drop" severs the connection without
// answering, "stall" swallows the request silently. Requests beyond the
// script get "ok". It returns a dialer and a snapshot of how many requests
// and connections the server has seen.
func scriptedServer(t *testing.T, actions ...string) (dial func() (net.Conn, error), counts func() (requests, conns int)) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	var mu sync.Mutex
	requests, conns := 0, 0
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns++
			mu.Unlock()
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
					if requests < len(actions) {
						act = actions[requests]
					}
					requests++
					mu.Unlock()
					switch act {
					case "drop":
						return
					case "stall":
						continue
					case "wrongid":
						fmt.Fprintf(c, `{"id":%d,"ok":true}`+"\n", req.ID+1000)
					case "corrupt":
						fmt.Fprintf(c, `{"id":%d,"ok":false}`+"\n", req.ID)
					case "overloaded":
						_ = lineio.WriteLine(c, errorResponse(req.ID, errOverloaded))
					default:
						fmt.Fprintf(c, `{"id":%d,"ok":true}`+"\n", req.ID)
					}
				}
			}(conn)
		}
	}()
	addr := ln.Addr().String()
	dial = func() (net.Conn, error) { return net.Dial("tcp", addr) }
	counts = func() (int, int) {
		mu.Lock()
		defer mu.Unlock()
		return requests, conns
	}
	return dial, counts
}

// TestClientAgainstRealServer runs the client against a live Server:
// liveness, a real bound, and the same bound on the next call.
func TestClientAgainstRealServer(t *testing.T) {
	s := NewServer(Config{Workers: 2})
	defer s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.ServeListener(context.Background(), ln) }()

	c := NewClient(ClientConfig{Dial: func() (net.Conn, error) { return net.Dial("tcp", ln.Addr().String()) }})
	defer c.Close()
	ctx := context.Background()
	if resp, err := c.Do(ctx, &Request{Op: "ping"}); err != nil || !resp.OK {
		t.Fatalf("ping: %+v, %v", resp, err)
	}
	req := &Request{Op: "wctt", Design: "regular", Width: 4, Height: 4, Src: &Coord{0, 0}, Dst: &Coord{3, 3}}
	var bounds [2]uint64
	for i := range bounds {
		resp, err := c.Do(ctx, req)
		if err != nil || !resp.OK {
			t.Fatalf("wctt: %+v, %v", resp, err)
		}
		if err := json.Unmarshal(resp.Cycles, &bounds[i]); err != nil {
			t.Fatalf("cycles %q: %v", resp.Cycles, err)
		}
	}
	if bounds[0] != bounds[1] || bounds[0] == 0 {
		t.Fatalf("wctt unstable: %v", bounds)
	}
}

// TestClientDesyncDropsConn: an answer the client cannot trust — a wrong
// id, a severed connection, ok:false without an error — is an error, never
// a result, and the next call redials and succeeds.
func TestClientDesyncDropsConn(t *testing.T) {
	for _, act := range []string{"wrongid", "drop", "corrupt"} {
		t.Run(act, func(t *testing.T) {
			dial, counts := scriptedServer(t, act)
			c := NewClient(ClientConfig{Dial: dial})
			defer c.Close()
			if resp, err := c.Do(context.Background(), &Request{Op: "ping"}); err == nil {
				t.Fatalf("%s answer returned a result: %+v", act, resp)
			}
			if resp, err := c.Do(context.Background(), &Request{Op: "ping"}); err != nil || !resp.OK {
				t.Fatalf("call after %s: %+v, %v", act, resp, err)
			}
			if requests, conns := counts(); requests != 2 || conns != 2 {
				t.Fatalf("server saw %d requests on %d connections, want 2 on 2", requests, conns)
			}
		})
	}
}

// TestClientCodedRejectionNotRetried: a coded retryable rejection is a
// result the caller decides about; the client sends the request once and
// keeps the connection.
func TestClientCodedRejectionNotRetried(t *testing.T) {
	dial, counts := scriptedServer(t, "overloaded")
	c := NewClient(ClientConfig{Dial: dial})
	defer c.Close()
	resp, err := c.Do(context.Background(), &Request{Op: "ping"})
	if err != nil || resp.OK || resp.Code != "overloaded" || !resp.Retryable {
		t.Fatalf("overloaded answer: %+v, %v", resp, err)
	}
	if requests, _ := counts(); requests != 1 {
		t.Fatalf("server saw %d requests, want 1", requests)
	}
	if resp, err := c.Do(context.Background(), &Request{Op: "ping"}); err != nil || !resp.OK {
		t.Fatalf("call after the rejection: %+v, %v", resp, err)
	}
	if requests, conns := counts(); requests != 2 || conns != 1 {
		t.Fatalf("server saw %d requests on %d connections, want 2 on 1", requests, conns)
	}
}

// TestClientContextEndsAttempt: against a stalled server, the call's context
// is the only bound — cancelling it ends the attempt even without a
// deadline, and so does its deadline — and the next call redials.
func TestClientContextEndsAttempt(t *testing.T) {
	for _, tc := range []struct {
		name string
		ctx  func() (context.Context, context.CancelFunc)
		want error
	}{
		{"cancel", func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(50*time.Millisecond, cancel)
			return ctx, cancel
		}, context.Canceled},
		{"timeout", func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 50*time.Millisecond)
		}, context.DeadlineExceeded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dial, _ := scriptedServer(t, "stall")
			c := NewClient(ClientConfig{Dial: dial})
			defer c.Close()
			ctx, cancel := tc.ctx()
			defer cancel()
			start := time.Now()
			_, err := c.Do(ctx, &Request{Op: "ping"})
			if !errors.Is(err, tc.want) {
				t.Fatalf("stalled call returned %v, want %v", err, tc.want)
			}
			if d := time.Since(start); d > time.Second {
				t.Fatalf("stalled call returned after %v", d)
			}
			if resp, err := c.Do(context.Background(), &Request{Op: "ping"}); err != nil || !resp.OK {
				t.Fatalf("call after the stall: %+v, %v", resp, err)
			}
		})
	}
}
