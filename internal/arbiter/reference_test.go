package arbiter

import "testing"

// The oracle: both arbitration rules written the obvious way — one bool per
// input, slices, scans — exactly as the hardware description reads. The
// production arbiters (bitmask requests, fixed arrays) are pinned to it
// state by state below; nothing outside the tests uses it.

type refRoundRobin struct {
	n    int
	next int
}

func (a *refRoundRobin) grant(requests []bool) int {
	for k := 0; k < a.n; k++ {
		if idx := (a.next + k) % a.n; requests[idx] {
			a.next = (idx + 1) % a.n
			return idx
		}
	}
	return -1
}

type refWeighted struct {
	weights []int
	counts  []int
	rr      refRoundRobin
}

func (a *refWeighted) grant(requests []bool) int {
	var candidates []int
	for i, r := range requests {
		if r {
			candidates = append(candidates, i)
		}
	}
	switch len(candidates) {
	case 0:
		// No demand: every counter replenishes by one up to its weight.
		for i := range a.counts {
			if a.counts[i] < a.weights[i] {
				a.counts[i]++
			}
		}
		return -1
	case 1:
		// Unique candidate: granted, counter unaltered.
		return candidates[0]
	}
	best := func() int {
		b := 0
		for _, c := range candidates {
			if a.counts[c] > b {
				b = a.counts[c]
			}
		}
		return b
	}
	top := best()
	if top == 0 {
		// Every candidate exhausted its budget: the frame ends.
		copy(a.counts, a.weights)
		top = best()
	}
	tied := make([]bool, len(requests))
	for _, c := range candidates {
		tied[c] = a.counts[c] == top
	}
	winner := a.rr.grant(tied)
	if a.counts[winner] > 0 {
		a.counts[winner]--
	}
	return winner
}

func maskBools(mask uint8, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = mask&(1<<uint(i)) != 0
	}
	return out
}

// TestRoundRobinGrantMaskMatchesReference: every request mask from every
// pointer position of a five-input arbiter, winner and next pointer.
func TestRoundRobinGrantMaskMatchesReference(t *testing.T) {
	const n = 5
	for next := 0; next < n; next++ {
		for mask := 0; mask < 1<<n; mask++ {
			a := RoundRobin{n: n, next: uint8(next)}
			ref := refRoundRobin{n: n, next: next}
			got, want := a.GrantMask(uint8(mask)), ref.grant(maskBools(uint8(mask), n))
			if got != want || int(a.next) != ref.next {
				t.Fatalf("next=%d mask=%05b: winner %d pointer %d, reference winner %d pointer %d",
					next, mask, got, a.next, want, ref.next)
			}
		}
	}
}

// wawState is a complete Weighted state: the counters and the tie-break
// pointer (the weights are fixed per exploration).
type wawState struct {
	counts [MaxInputs]int32
	next   uint8
}

// TestWeightedGrantMaskMatchesReference explores every state a five-input
// WaW arbiter can reach from power-on under any request sequence and, from
// each, applies all 32 request masks to the arbiter and to the oracle:
// winner, counters, tie-break pointer, the deficit count behind IdleStable
// and the bool-slice Grant adapter must all agree.
func TestWeightedGrantMaskMatchesReference(t *testing.T) {
	for _, weights := range [][]int{{3, 1, 2, 1, 2}, {1, 1, 1, 1, 1}, {4, 0, 1, 2, 1}, {2, 5, 1, 1, 3}} {
		const n = 5
		first := NewWeighted(weights)
		seen := map[wawState]bool{{counts: first.counts}: true}
		queue := []wawState{{counts: first.counts}}
		for len(queue) > 0 {
			st := queue[0]
			queue = queue[1:]
			for mask := 0; mask < 1<<n; mask++ {
				a := NewWeighted(weights)
				a.counts, a.rr.next = st.counts, st.next
				ref := refWeighted{weights: make([]int, n), counts: make([]int, n), rr: refRoundRobin{n: n, next: int(st.next)}}
				for i := 0; i < n; i++ {
					ref.weights[i], ref.counts[i] = int(a.weights[i]), int(st.counts[i])
					if a.counts[i] < a.weights[i] {
						a.deficits++
					}
				}
				twin := *a

				got, want := a.GrantMask(uint8(mask)), ref.grant(maskBools(uint8(mask), n))
				if got != want || int(a.rr.next) != ref.rr.next {
					t.Fatalf("weights %v state %v mask %05b: winner %d pointer %d, reference winner %d pointer %d",
						weights, st, mask, got, a.rr.next, want, ref.rr.next)
				}
				deficits := 0
				for i := 0; i < n; i++ {
					if int(a.counts[i]) != ref.counts[i] {
						t.Fatalf("weights %v state %v mask %05b: counters %v, reference %v",
							weights, st, mask, a.counts[:n], ref.counts)
					}
					if a.counts[i] < a.weights[i] {
						deficits++
					}
				}
				if int(a.deficits) != deficits {
					t.Fatalf("weights %v state %v mask %05b: deficits %d, counters say %d",
						weights, st, mask, a.deficits, deficits)
				}
				if twin.Grant(maskBools(uint8(mask), n)) != got || twin != *a {
					t.Fatalf("weights %v state %v mask %05b: Grant([]bool) diverges from GrantMask", weights, st, mask)
				}
				if next := (wawState{counts: a.counts, next: a.rr.next}); !seen[next] {
					seen[next] = true
					queue = append(queue, next)
				}
			}
		}
		if len(seen) < 2 {
			t.Fatalf("weights %v: exploration never left power-on", weights)
		}
	}
}

// TestWeightedReplenishMatchesIdleGrants: the bulk form equals that many
// request-less grants from any reachable state.
func TestWeightedReplenishMatchesIdleGrants(t *testing.T) {
	a := NewWeighted([]int{7, 3, 12, 1, 5})
	for i := 0; i < 40; i++ {
		a.GrantMask(0b10111)
		for cycles := uint64(0); cycles < 15; cycles++ {
			bulk, stepped := *a, *a
			bulk.Replenish(cycles)
			for c := uint64(0); c < cycles; c++ {
				stepped.GrantMask(0)
			}
			if bulk != stepped {
				t.Fatalf("after %d grants, Replenish(%d) = %+v, %d idle grants = %+v", i+1, cycles, bulk, cycles, stepped)
			}
		}
	}
}

func TestInputLimits(t *testing.T) {
	for name, fn := range map[string]func(){
		"round-robin over 9 inputs":  func() { NewRoundRobin(MaxInputs + 1) },
		"weighted over 9 inputs":     func() { NewWeighted(make([]int, MaxInputs+1)) },
		"round-robin mask beyond n":  func() { NewRoundRobin(3).GrantMask(0b1000) },
		"weighted mask beyond n":     func() { NewWeighted([]int{1, 1, 1}).GrantMask(0b1000) },
		"weight beyond the counters": func() { NewWeighted([]int{1 << 40}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			fn()
		}()
	}
	if got := NewRoundRobin(MaxInputs).GrantMask(0x80); got != 7 {
		t.Errorf("8-input round-robin granted %d, want 7", got)
	}
	if got := NewWeighted([]int{1, 1, 1, 1, 1, 1, 1, 9}).GrantMask(0xFF); got != 7 {
		t.Errorf("8-input WaW granted %d, want 7", got)
	}
}
