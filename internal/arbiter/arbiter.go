// Package arbiter implements the output-port arbitration policies compared in
// the paper: the time-analyzable round-robin arbiter used by regular wormhole
// mesh NoCs and the WCTT-aware Weighted round-robin arbiter (WaW) that
// balances the guaranteed bandwidth of all flows.
//
// Arbiters are per-output-port values. Every cycle the router presents the
// set of input ports requesting the output as a bitmask; the arbiter picks at
// most one winner and updates its internal state. Both arbiters are
// deterministic and therefore time-analyzable, and both are pointer-free
// structs of a few bytes, so a router holds its arbiters inside its own
// struct and calls them on their concrete types. Which one a router uses is
// not configured here: it follows the design point (network.Design), and a
// router built with WaW port counts arbitrates with Weighted.
package arbiter

import (
	"fmt"
	"math"
	"math/bits"
)

// MaxInputs is the largest number of input ports an arbiter serves: a
// request set is one uint8 bitmask (bit i = input i requests) and the WaW
// counters live in fixed arrays, so an arbiter is a plain value the router
// embeds in its own struct.
const MaxInputs = 8

// maskOf packs one-bool-per-input requests into a request bitmask for an
// arbiter over n inputs.
func maskOf(requests []bool, n uint8) uint8 {
	if len(requests) != int(n) {
		panic(fmt.Sprintf("arbiter: got %d requests, expected %d", len(requests), n))
	}
	var mask uint8
	for i, r := range requests {
		if r {
			mask |= 1 << uint(i)
		}
	}
	return mask
}

// maskError is the panic of a GrantMask handed inputs beyond the n its
// arbiter was built for, formatted only when printed so that GrantMask
// inlines.
type maskError struct{ requests, n uint8 }

func (e maskError) Error() string {
	return fmt.Sprintf("arbiter: request mask %#b names inputs beyond %d", e.requests, e.n)
}

// checkInputs panics unless 1 <= n <= MaxInputs.
func checkInputs(n int) {
	if n <= 0 || n > MaxInputs {
		panic(fmt.Sprintf("arbiter: need 1..%d inputs, got %d", MaxInputs, n))
	}
}

// RoundRobin is the conventional rotating-priority round-robin arbiter used
// by regular wormhole mesh NoCs (assumption (3) of the paper). After a grant
// the priority pointer moves to the input after the winner, so over any
// window every requesting input is served once per round.
type RoundRobin struct {
	n    uint8
	next uint8 // index with the highest priority next cycle
}

// NewRoundRobin returns a round-robin arbiter over n input ports. It panics
// unless 1 <= n <= MaxInputs.
func NewRoundRobin(n int) *RoundRobin {
	checkInputs(n)
	return &RoundRobin{n: uint8(n)}
}

// Reset restores the power-on priority (input 0 first).
func (a *RoundRobin) Reset() { a.next = 0 }

// Grant is GrantMask for a request set given as one bool per input; it panics
// when len(requests) differs from the number of inputs.
func (a *RoundRobin) Grant(requests []bool) int {
	return a.GrantMask(maskOf(requests, a.n))
}

// GrantMask returns the requesting input (bit i of requests set = input i
// requests) with the highest current priority, or -1 when none request. The
// priority pointer rotates past the winner. It panics when the mask names an
// input beyond the ones the arbiter was built for.
func (a *RoundRobin) GrantMask(requests uint8) int {
	if requests>>a.n != 0 {
		panic(maskError{requests, a.n})
	}
	if requests == 0 {
		return -1
	}
	// The requesters at or after the priority pointer come first; when there
	// are none the scan wraps around to the lowest requester.
	ahead := requests >> a.next << a.next
	if ahead == 0 {
		ahead = requests
	}
	winner := bits.TrailingZeros8(ahead)
	a.next = uint8(winner + 1)
	if a.next == a.n {
		a.next = 0
	}
	return winner
}

// Weighted implements the WaW arbitration scheme of Section III of the paper.
//
// Each input port holds a flit counter bounded by its weight (the number of
// per-destination flows arriving through that input for this output port,
// see the flows package). The arbitration rule is exactly the hardware rule
// described in the paper:
//
//   - When several input ports contend for the output port, the input with
//     the largest flit count wins and decrements its count by one. Ties are
//     broken with a conventional round-robin policy.
//   - When no input port demands the output port, every input's flit count is
//     incremented, saturating at its weight.
//   - When a single input port is the unique candidate, its flit count is
//     left unaltered (it gets the slot "for free" without consuming budget).
//
// Over a congested interval this allocates the output bandwidth to input i in
// proportion weight_i / sum(weights), i.e. W(I,O) = I/O of Equation 1.
type Weighted struct {
	rr RoundRobin // tie-break among the inputs sharing the largest count

	// deficits counts the inputs whose flit counter sits below its weight.
	// It makes the saturated steady state O(1): IdleStable and Replenish —
	// the operations the simulator issues every idle cycle — return
	// immediately once every counter is full.
	deficits uint8

	counts  [MaxInputs]int32
	weights [MaxInputs]int32
}

// NewWeighted returns a WaW arbiter with the given per-input weights
// (non-negative integers). A weight of zero is clamped to one so that an
// input that can legally request the output — even if the static flow
// analysis expects no flows through it — still receives one slot per frame
// and can never be starved. It panics unless 1 <= len(weights) <= MaxInputs
// and every weight lies in [0, math.MaxInt32].
func NewWeighted(weights []int) *Weighted {
	checkInputs(len(weights))
	w := &Weighted{rr: RoundRobin{n: uint8(len(weights))}}
	for i, wt := range weights {
		if wt < 0 || wt > math.MaxInt32 {
			panic(fmt.Sprintf("arbiter: weight %d for input %d outside [0, %d]", wt, i, math.MaxInt32))
		}
		if wt == 0 {
			wt = 1
		}
		w.weights[i] = int32(wt)
		w.counts[i] = int32(wt)
	}
	return w
}

// Reset restores every counter to its weight and the tie-break round-robin
// pointer to input 0.
func (a *Weighted) Reset() {
	a.counts = a.weights
	a.deficits = 0
	a.rr.Reset()
}

// IdleStable reports whether a grant with no requesting inputs would leave
// the arbiter unchanged: exactly when every flit counter sits at its weight.
func (a *Weighted) IdleStable() bool { return a.deficits == 0 }

// Replenish applies cycles request-less grants in one step, so the simulator
// can advance an idle arbiter over a whole idle window: each raises every
// flit counter by one, saturating at the input's weight. Once saturated (the
// steady state of an idle port) the call returns in O(1).
func (a *Weighted) Replenish(cycles uint64) {
	if cycles == 0 || a.deficits == 0 {
		return
	}
	for i := range a.counts[:a.rr.n] {
		deficit := a.weights[i] - a.counts[i]
		if deficit <= 0 {
			continue
		}
		if cycles < uint64(deficit) {
			a.counts[i] += int32(cycles)
		} else {
			a.counts[i] = a.weights[i]
			a.deficits--
		}
	}
}

// Grant is GrantMask for a request set given as one bool per input; it panics
// when len(requests) differs from the number of inputs.
func (a *Weighted) Grant(requests []bool) int {
	return a.GrantMask(maskOf(requests, a.rr.n))
}

// GrantMask applies the WaW arbitration rule described above to a request
// mask as RoundRobin.GrantMask takes it.
func (a *Weighted) GrantMask(requests uint8) int {
	if requests>>a.rr.n != 0 {
		panic(maskError{requests, a.rr.n})
	}
	if requests == 0 {
		// No demand: replenish every counter up to its weight.
		a.Replenish(1)
		return -1
	}
	if requests&(requests-1) == 0 {
		// Unique candidate: granted, counter unaltered.
		return bits.TrailingZeros8(requests)
	}
	// Several candidates: the largest flit count wins; ties are resolved
	// with the conventional round-robin policy restricted to the tied inputs.
	// When every candidate has exhausted its flit budget the arbitration
	// frame ends and all counters are reloaded to their weights (the
	// weighted round-robin frame boundary of Park & Choi [18]); without this
	// reload a permanently congested port would degenerate to plain
	// round-robin.
	best, tied := a.largest(requests)
	if best == 0 {
		a.counts = a.weights
		a.deficits = 0
		best, tied = a.largest(requests)
	}
	// Weights are at least one, so the winner's counter (== best) is positive.
	winner := a.rr.GrantMask(tied)
	if a.counts[winner] == a.weights[winner] {
		a.deficits++
	}
	a.counts[winner]--
	return winner
}

// largest returns the largest flit count among the requesting inputs and the
// mask of the requesters holding it.
func (a *Weighted) largest(requests uint8) (best int32, tied uint8) {
	best = -1
	for m := requests; m != 0; m &= m - 1 {
		i := bits.TrailingZeros8(m)
		switch c := a.counts[i]; {
		case c > best:
			best, tied = c, 1<<uint(i)
		case c == best:
			tied |= 1 << uint(i)
		}
	}
	return best, tied
}
