package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/lineio"
	"repro/internal/scenario"
)

// The worker wire protocol (PROTOCOL.md, "Sweep worker protocol"): the
// coordinator writes one JSON request per line to the worker's stdin and
// reads one JSON response per line from its stdout — the same framing the
// serve daemon speaks, shared via internal/lineio. Two verbs exist:
//
//	{"id":7,"verb":"run","index":12,"spec":{...}}  → execute one scenario
//	{"id":8,"verb":"ping"}                         → liveness probe
//
// Responses are matched to requests by id and may arrive in any order
// relative to other requests: pings are answered immediately from the
// reader goroutine even while a scenario executes, so a *busy* worker is
// distinguishable from a *hung* one — only the latter trips the
// coordinator's heartbeat timeout.

// workerRequest is one coordinator → worker line.
type workerRequest struct {
	ID    int64          `json:"id"`
	Verb  string         `json:"verb"`
	Index int            `json:"index,omitempty"`
	Spec  *scenario.Spec `json:"spec,omitempty"`
}

// workerResponse is one worker → coordinator line.
type workerResponse struct {
	ID     int64           `json:"id"`
	OK     bool            `json:"ok"`
	Pong   bool            `json:"pong,omitempty"`
	Index  int             `json:"index,omitempty"`
	Name   string          `json:"name,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// WorkerHooks are fault seams for the worker loop; the zero value is
// production behaviour.
type WorkerHooks struct {
	// AfterRespond, when non-nil, runs after every run-response is written
	// (n counts them from 1). The crash-injection harness SIGKILLs the
	// process here to exercise coordinator restart and resume paths at
	// exact, reproducible points.
	AfterRespond func(n int)
	// BeforeRun, when non-nil, runs as each run request is accepted, with
	// its grid index — the poison-task seam: a harness SIGKILLs here on a
	// chosen index, before any work happens, so the task reliably kills
	// every worker it is dispatched to.
	BeforeRun func(index int)
	// PongDelay postpones every heartbeat pong — a clock-skewed (slow but
	// live) worker the coordinator must tolerate as long as the skew stays
	// inside its liveness timeout.
	PongDelay time.Duration
	// GarbleEvery replaces every k-th run response with a garbage line —
	// wire corruption the coordinator must treat as a worker crash (the
	// stream's framing can no longer be trusted).
	GarbleEvery int
	// Hang, when true, makes the worker stop reading and responding
	// entirely after the first run request — a *hung* worker (as opposed
	// to a busy one), which the coordinator's heartbeat must detect.
	Hang bool
}

// ServeWorker runs the worker side of the protocol over r/w until r hits
// EOF (the coordinator closing stdin is the shutdown signal) or ctx is
// cancelled. Scenarios execute one at a time, in arrival order — the
// coordinator owns all scheduling policy; the worker is deliberately dumb
// so every parallelism decision lives in one place. The reader goroutine
// keeps servicing pings while a scenario runs.
func ServeWorker(ctx context.Context, r io.Reader, w io.Writer, hooks WorkerHooks) error {
	var wmu sync.Mutex // serialises response lines from reader + executor
	writeLine := func(line []byte) error {
		wmu.Lock()
		defer wmu.Unlock()
		return lineio.WriteLine(w, line)
	}
	respond := func(resp workerResponse) error {
		line, err := json.Marshal(resp)
		if err != nil {
			line, _ = json.Marshal(workerResponse{ID: resp.ID, Index: resp.Index,
				Name: resp.Name, Error: fmt.Sprintf("worker: marshal response: %v", err)})
		}
		return writeLine(line)
	}

	// The run queue between reader and executor. The coordinator bounds
	// in-flight requests by its window, so a modest buffer never blocks
	// the reader (which must stay responsive to pings).
	runs := make(chan workerRequest, 64)
	execDone := make(chan error, 1)
	ectx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		n := 0
		for req := range runs {
			resp := workerResponse{ID: req.ID, Index: req.Index}
			if req.Spec == nil {
				resp.Error = "worker: run request without spec"
			} else {
				resp.Name = req.Spec.Name
				res, err := scenario.ExecuteContext(ectx, *req.Spec)
				if err != nil {
					resp.Error = err.Error()
				} else if raw, merr := json.Marshal(res); merr != nil {
					resp.Error = fmt.Sprintf("worker: marshal result: %v", merr)
				} else {
					resp.OK, resp.Result = true, raw
				}
			}
			var werr error
			if hooks.GarbleEvery > 0 && (n+1)%hooks.GarbleEvery == 0 {
				// Scripted wire corruption: a well-framed but unparsable line
				// in place of the response. The result is lost; the
				// coordinator must treat this worker as crashed and retry.
				werr = writeLine([]byte("#### garbled worker output ####"))
			} else {
				werr = respond(resp)
			}
			if werr != nil {
				execDone <- werr
				return
			}
			n++
			if hooks.AfterRespond != nil {
				hooks.AfterRespond(n)
			}
		}
		execDone <- nil
	}()

	sc := lineio.NewScanner(r)
	var readErr error
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var req workerRequest
		if err := json.Unmarshal(line, &req); err != nil {
			readErr = fmt.Errorf("worker: bad request line: %w", err)
			break
		}
		switch req.Verb {
		case "ping":
			if hooks.PongDelay > 0 {
				// A skewed liveness clock: the pong arrives, just late. While
				// the delay stays inside the coordinator's heartbeat timeout
				// the worker must be treated as alive.
				time.Sleep(hooks.PongDelay)
			}
			if err := respond(workerResponse{ID: req.ID, OK: true, Pong: true}); err != nil {
				readErr = err
			}
		case "run":
			if hooks.BeforeRun != nil {
				hooks.BeforeRun(req.Index)
			}
			for hooks.Hang {
				// Simulate a wedged worker: no reads, no responses. A sleep
				// loop rather than select{}, so the runtime's deadlock
				// detector does not helpfully kill the "hung" process.
				time.Sleep(time.Hour)
			}
			select {
			case runs <- req:
			case <-ctx.Done():
				readErr = ctx.Err()
			}
		default:
			if err := respond(workerResponse{ID: req.ID,
				Error: fmt.Sprintf("worker: unknown verb %q", req.Verb)}); err != nil {
				readErr = err
			}
		}
		if readErr != nil {
			break
		}
	}
	if readErr == nil {
		readErr = sc.Err() // nil on clean EOF
	}
	close(runs)
	if err := <-execDone; readErr == nil {
		readErr = err
	}
	return readErr
}
