package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one traced interval at a layer boundary, recorded from this
// package around a call into the layer's public functions. Layer is the
// internal/ module name the call enters ("bench" for the harness's own
// glue). Op is the identifier every span of one grid point or request line
// shares. A span with Calls > 1 is a roll-up of a hot-loop call (tick, send,
// step, leap): Start/End are the enclosing grid point's, BusyNS is the summed
// time inside the calls.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int64  `json:"calls"`
	BusyNS int64  `json:"busy_ns"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine; a nil tracer records nothing, so the untraced replay runs the
// same code without the clock reads.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(layer, name string, op int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Op: op, Calls: 1})
	t.stack = append(t.stack, id)
	t.spans[id].Start = t.now() // last, so the bookkeeping above is outside the span
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := t.now()
	if n := len(t.stack); n == 0 || t.stack[n-1] != id {
		panic(fmt.Sprintf("bench: span %d closed out of order", id))
	}
	t.stack = t.stack[:len(t.stack)-1]
	s := &t.spans[id]
	s.End = now
	s.BusyNS = s.End - s.Start
}

// rollup records calls hot-loop calls that together took busyNS as one child
// of the innermost open span.
func (t *tracer) rollup(layer, name string, op int, calls, busyNS int64) {
	if t == nil || calls == 0 {
		return
	}
	parent := t.stack[len(t.stack)-1]
	p := t.spans[parent]
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Layer: layer, Name: name, Op: op,
		Start: p.Start, End: t.now(), Calls: calls, BusyNS: busyNS})
}

// layerTotals is what one layer's spans add up to.
type layerTotals struct {
	Calls  int64
	SelfNS int64
}

// selfTimes returns each span's self time: its busy time minus the busy time
// of its direct children (never below zero: clock reads around children can
// add up to slightly more than the parent saw).
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.BusyNS
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			self[s.Parent] -= s.BusyNS
		}
	}
	for i := range self {
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// byLayer folds the spans under root (inclusive) into per-layer call counts
// and self time.
func byLayer(spans []span, root int) map[string]layerTotals {
	self := selfTimes(spans)
	under := make([]bool, len(spans))
	out := map[string]layerTotals{}
	for i, s := range spans { // parents precede children
		under[i] = i == root || (s.Parent >= 0 && under[s.Parent])
		if under[i] {
			lt := out[s.Layer]
			lt.Calls += s.Calls
			lt.SelfNS += self[i]
			out[s.Layer] = lt
		}
	}
	return out
}

// busyOf sums the busy time and calls of the spans with the given layer and
// name (all spans when op < 0, else those of one op).
func busyOf(spans []span, layer, name string, op int) (calls, busyNS int64) {
	for _, s := range spans {
		if s.Layer == layer && s.Name == name && (op < 0 || s.Op == op) {
			calls += s.Calls
			busyNS += s.BusyNS
		}
	}
	return calls, busyNS
}

// writeTrace writes the spans as one JSON document.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Note  string `json:"note"`
		Spans []span `json:"spans"`
	}{"times are ns since the tracer started; calls>1 marks a hot-loop roll-up whose busy_ns is summed call time", spans}); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}
