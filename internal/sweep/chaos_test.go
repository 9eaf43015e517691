package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// chaosSeeds returns the fault-schedule seeds of a chaos run: the CI matrix
// pins {1, 2, 3}; CHAOS_SEED overrides with a single seed so a failing
// schedule replays exactly.
func chaosSeeds(t *testing.T) []int64 {
	t.Helper()
	if v := os.Getenv("CHAOS_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%q: %v", v, err)
		}
		return []int64{n}
	}
	return []int64{1, 2, 3}
}

// TestChaosCoordinator drives the multi-process executor through seeded
// worker fault plans — crashes after a few responses, garbled response
// lines, delayed responses — all survivable, and asserts the end-to-end
// resilience contract: every grid index reaches the sink exactly once, with
// no errors, and the aggregated output is byte-identical to the fault-free
// golden. The plan is drawn deterministically from the seed, so a failing
// schedule replays exactly via CHAOS_SEED.
func TestChaosCoordinator(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	specs := coordGrid(t)
	want, err := runToJSON(t, specs, InProcess{}, Options{})
	if err != nil {
		t.Fatalf("in-process error: %v", err)
	}
	for _, seed := range chaosSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			s := faultinject.New(seed).Stream("worker-plan")
			wf := faultinject.Faults()
			// Every fault here is survivable by construction: CrashAfter >= 1
			// guarantees each worker delivers at least one result before
			// dying, GarbleEvery >= 2 lets a quarantined solo retry (one
			// response per process) through ungarbled, and the reply delay
			// stays far inside the stall timeout.
			wf.CrashAfter = 1 + s.Intn(4)
			if s.Hit(0.5) {
				wf.GarbleEvery = 2 + s.Intn(3)
			}
			wf.ReplyDelay = time.Duration(s.Intn(50)) * time.Millisecond
			co := testCoordinator(1+s.Intn(3), wf.Env()...)
			co.MaxRestarts = 1000
			co.MaxAttempts = 1000
			co.RestartBackoff = time.Millisecond
			co.RestartBackoffMax = 10 * time.Millisecond
			co.BackoffSeed = seed

			rec := newRecordingSink()
			coll := NewCollector(len(specs))
			if err := Stream(context.Background(), Tasks(specs), Options{}, co, Tee(coll, rec)); err != nil {
				t.Fatalf("seed %d (plan %+v): stream: %v", seed, wf, err)
			}
			if err := coll.Err(); err != nil {
				t.Fatalf("seed %d (plan %+v): collector error: %v", seed, wf, err)
			}
			for i := range specs {
				if rec.count[i] != 1 {
					t.Errorf("seed %d: index %d reached the sink %d times, want exactly once", seed, i, rec.count[i])
				}
				if rec.errs[i] != nil {
					t.Errorf("seed %d: index %d failed under survivable faults: %v", seed, i, rec.errs[i])
				}
			}
			got, err := json.Marshal(coll.Results())
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("seed %d (plan %+v): merged output differs from fault-free golden", seed, wf)
			}
		})
	}
}
