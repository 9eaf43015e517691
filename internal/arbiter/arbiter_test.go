package arbiter

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRoundRobinSingleRequester(t *testing.T) {
	a := NewRoundRobin(4)
	req := []bool{false, false, true, false}
	for i := 0; i < 5; i++ {
		if got := a.Grant(req); got != 2 {
			t.Fatalf("grant = %d, want 2", got)
		}
	}
}

func TestRoundRobinNoRequesters(t *testing.T) {
	a := NewRoundRobin(3)
	if got := a.Grant([]bool{false, false, false}); got != -1 {
		t.Errorf("grant with no requests = %d, want -1", got)
	}
}

func TestRoundRobinRotation(t *testing.T) {
	a := NewRoundRobin(3)
	req := []bool{true, true, true}
	var got []int
	for i := 0; i < 6; i++ {
		got = append(got, a.Grant(req))
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grant sequence %v, want %v", got, want)
		}
	}
}

func TestRoundRobinSkipsIdle(t *testing.T) {
	a := NewRoundRobin(4)
	// Only inputs 1 and 3 request; they must alternate.
	req := []bool{false, true, false, true}
	var got []int
	for i := 0; i < 4; i++ {
		got = append(got, a.Grant(req))
	}
	want := []int{1, 3, 1, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grant sequence %v, want %v", got, want)
		}
	}
}

func TestRoundRobinFairnessUnderSaturation(t *testing.T) {
	a := NewRoundRobin(5)
	req := []bool{true, true, true, true, true}
	grants := make([]int, 5)
	const rounds = 1000
	for i := 0; i < rounds; i++ {
		grants[a.Grant(req)]++
	}
	for i, g := range grants {
		if g != rounds/5 {
			t.Errorf("input %d granted %d times, want %d", i, g, rounds/5)
		}
	}
}

func TestRoundRobinReset(t *testing.T) {
	a := NewRoundRobin(3)
	a.Grant([]bool{true, true, true})
	a.Reset()
	if got := a.Grant([]bool{true, true, true}); got != 0 {
		t.Errorf("grant after reset = %d, want 0", got)
	}
}

func TestRoundRobinPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewRoundRobin(0) should panic")
			}
		}()
		NewRoundRobin(0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("mismatched request width should panic")
			}
		}()
		NewRoundRobin(3).Grant([]bool{true})
	}()
}

func TestRoundRobinNumInputs(t *testing.T) {
	if NewRoundRobin(7).n != 7 {
		t.Error("input count mismatch")
	}
}

// Worst-case service interval property for round-robin: a continuously
// requesting input is granted at least once every n cycles (n inputs) under
// arbitrary behaviour of the other inputs. This is the time-analyzability
// property relied upon by the regular-mesh WCTT analysis.
func TestRoundRobinWorstCaseInterval(t *testing.T) {
	const n = 5
	f := func(pattern []uint8) bool {
		a := NewRoundRobin(n)
		waiting := 0
		for _, p := range pattern {
			req := make([]bool, n)
			req[0] = true // our input always requests
			for i := 1; i < n; i++ {
				req[i] = p&(1<<uint(i)) != 0
			}
			if a.Grant(req) == 0 {
				waiting = 0
			} else {
				waiting++
				if waiting >= n {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestWeightedSingleCandidateKeepsCounter(t *testing.T) {
	a := NewWeighted([]int{3, 1})
	before := a.counts[0]
	if got := a.Grant([]bool{true, false}); got != 0 {
		t.Fatalf("unique candidate not granted: %d", got)
	}
	if a.counts[0] != before {
		t.Errorf("unique candidate counter changed: %d -> %d", before, a.counts[0])
	}
}

func TestWeightedNoCandidatesReplenishes(t *testing.T) {
	a := NewWeighted([]int{2, 3})
	// Drain input 1 a bit by making it lose... first force decrements:
	// contend twice; the largest counter wins and decrements.
	a.Grant([]bool{true, true}) // input 1 (count 3) wins -> 2
	a.Grant([]bool{true, true}) // tie at 2, RR picks 0 -> count0 1
	c0, c1 := int(a.counts[0]), int(a.counts[1])
	a.Grant([]bool{false, false})
	if int(a.counts[0]) != min(c0+1, 2) || int(a.counts[1]) != min(c1+1, 3) {
		t.Errorf("counters after idle cycle = %d,%d want %d,%d", a.counts[0], a.counts[1], min(c0+1, 2), min(c1+1, 3))
	}
	// Replenishment saturates at the weight.
	for i := 0; i < 10; i++ {
		a.Grant([]bool{false, false})
	}
	if a.counts[0] != 2 || a.counts[1] != 3 {
		t.Errorf("counters should saturate at weights, got %d,%d", a.counts[0], a.counts[1])
	}
}

func TestWeightedLargestCounterWins(t *testing.T) {
	a := NewWeighted([]int{1, 4})
	if got := a.Grant([]bool{true, true}); got != 1 {
		t.Fatalf("largest counter should win, got %d", got)
	}
	if a.counts[1] != 3 {
		t.Errorf("winner counter = %d, want 3", a.counts[1])
	}
	if a.counts[0] != 1 {
		t.Errorf("loser counter = %d, want 1", a.counts[0])
	}
}

func TestWeightedTieBreakRoundRobin(t *testing.T) {
	a := NewWeighted([]int{2, 2})
	first := a.Grant([]bool{true, true})
	second := a.Grant([]bool{true, true})
	if first == second {
		t.Errorf("tied inputs should alternate, got %d then %d", first, second)
	}
}

func TestWeightedZeroWeightInputStillServed(t *testing.T) {
	// An input with weight 0 (no statically expected flows) must still be
	// served when it is the only requester and must not deadlock when
	// contending (it is served via the tie-break once the other counters are
	// exhausted).
	a := NewWeighted([]int{0, 2})
	if got := a.Grant([]bool{true, false}); got != 0 {
		t.Errorf("unique zero-weight candidate not granted: %d", got)
	}
	granted0 := false
	for i := 0; i < 10; i++ {
		if a.Grant([]bool{true, true}) == 0 {
			granted0 = true
			break
		}
	}
	if !granted0 {
		t.Error("zero-weight input starved under contention")
	}
}

func TestWeightedBandwidthShares(t *testing.T) {
	// Under permanent contention the long-run grant shares must match the
	// weights: this is the property that equalises flow bandwidth and makes
	// the WaW WCTT bounds tight.
	weights := []int{1, 2, 4}
	a := NewWeighted(weights)
	grants := make([]int, len(weights))
	const rounds = 7000
	req := []bool{true, true, true}
	for i := 0; i < rounds; i++ {
		g := a.Grant(req)
		if g < 0 {
			t.Fatal("no grant under full contention")
		}
		grants[g]++
	}
	total := 0
	for _, w := range weights {
		total += w
	}
	for i, w := range weights {
		wantShare := float64(w) / float64(total)
		gotShare := float64(grants[i]) / float64(rounds)
		if math.Abs(gotShare-wantShare) > 0.02 {
			t.Errorf("input %d share = %.3f, want %.3f (weights %v, grants %v)", i, gotShare, wantShare, weights, grants)
		}
	}
}

// Property: for random weight vectors, long-run shares under saturation are
// proportional to the weights (within a tolerance that accounts for the
// tie-break rounding).
func TestWeightedShareProperty(t *testing.T) {
	f := func(w1, w2, w3 uint8) bool {
		weights := []int{1 + int(w1)%5, 1 + int(w2)%5, 1 + int(w3)%5}
		a := NewWeighted(weights)
		grants := make([]int, 3)
		req := []bool{true, true, true}
		const rounds = 3000
		for i := 0; i < rounds; i++ {
			g := a.Grant(req)
			if g < 0 {
				return false
			}
			grants[g]++
		}
		total := 0
		for _, w := range weights {
			total += w
		}
		for i, w := range weights {
			wantShare := float64(w) / float64(total)
			gotShare := float64(grants[i]) / float64(rounds)
			if math.Abs(gotShare-wantShare) > 0.05 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Worst-case service interval property for the WaW arbiter: a continuously
// requesting input with weight w_i out of a total weight W is granted at
// least once every 2*W cycles (the factor 2 covers the worst counter
// phasing). This bound is what the WaW WCTT analysis uses.
func TestWeightedWorstCaseInterval(t *testing.T) {
	weights := []int{1, 3, 4}
	total := 0
	for _, w := range weights {
		total += w
	}
	a := NewWeighted(weights)
	req := []bool{true, true, true}
	waiting := 0
	for i := 0; i < 5000; i++ {
		if a.Grant(req) == 0 {
			waiting = 0
			continue
		}
		waiting++
		if waiting >= 2*total {
			t.Fatalf("input 0 waited %d cycles, bound is %d", waiting, 2*total)
		}
	}
}

func TestWeightedReset(t *testing.T) {
	a := NewWeighted([]int{2, 2})
	a.Grant([]bool{true, true})
	a.Grant([]bool{true, true})
	a.Reset()
	if a.counts[0] != 2 || a.counts[1] != 2 {
		t.Errorf("counters after reset = %d,%d, want 2,2", a.counts[0], a.counts[1])
	}
	if a.weights[0] != 2 || a.weights[1] != 2 {
		t.Error("weights changed by reset")
	}
}

func TestWeightedPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty weights should panic")
			}
		}()
		NewWeighted(nil)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative weight should panic")
			}
		}()
		NewWeighted([]int{1, -2})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("mismatched request width should panic")
			}
		}()
		NewWeighted([]int{1, 1}).Grant([]bool{true})
	}()
}

func TestWeightedNumInputs(t *testing.T) {
	if NewWeighted([]int{1, 2, 3}).rr.n != 3 {
		t.Error("input count mismatch")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
