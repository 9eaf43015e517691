package serve

import (
	"bytes"
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

// chaosRequestLines builds a mixed request script (pings + WCTT queries,
// unique ids) and its fault-free golden responses.
func chaosRequestLines(t *testing.T, n int) (lines [][]byte, golden [][]byte) {
	t.Helper()
	for i := 0; i < n; i++ {
		var line string
		if i%5 == 4 {
			line = fmt.Sprintf(`{"id":%d,"op":"ping"}`, i+1)
		} else {
			line = fmt.Sprintf(
				`{"id":%d,"op":"wctt","design":"regular","width":4,"height":4,"src":{"x":%d,"y":%d},"dst":{"x":%d,"y":%d}}`,
				i+1, i%4, (i/4)%4, (i+1)%4, (i/2)%4)
		}
		lines = append(lines, []byte(line))
	}
	s := NewServer(Config{Workers: 2})
	defer s.Close()
	var in, out bytes.Buffer
	for _, l := range lines {
		in.Write(l)
		in.WriteByte('\n')
	}
	if err := s.ServeLines(context.Background(), &in, &out); err != nil {
		t.Fatalf("fault-free pass: %v", err)
	}
	golden = splitLines(out.Bytes())
	if len(golden) != n {
		t.Fatalf("fault-free pass answered %d/%d lines", len(golden), n)
	}
	return lines, golden
}

func splitLines(data []byte) [][]byte {
	var out [][]byte
	for _, l := range bytes.Split(data, []byte("\n")) {
		if len(l) > 0 {
			out = append(out, l)
		}
	}
	return out
}

// TestChaosServeLinesGarble feeds the stdin transport a garbled-but-framed
// request stream: every line still arrives as one frame, so the server must
// answer every line in order — corrupted lines with an error line (the
// contract a checksum-less wire can honour), intact lines byte-identically
// to the fault-free run.
func TestChaosServeLinesGarble(t *testing.T) {
	const n = 60
	lines, golden := chaosRequestLines(t, n)
	for _, seed := range chaosSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			var in bytes.Buffer
			for _, l := range lines {
				in.Write(l)
				in.WriteByte('\n')
			}
			inj := faultinject.New(seed)
			fr := faultinject.Lines(&in, inj.Stream("stdin-lines"), faultinject.LineFaults{GarbleProb: 0.3})

			s := NewServer(Config{Workers: 2})
			defer s.Close()
			var out bytes.Buffer
			if err := s.ServeLines(context.Background(), fr, &out); err != nil {
				t.Fatalf("serve: %v", err)
			}
			got := splitLines(out.Bytes())
			if len(got) != n || fr.Frames() != n {
				t.Fatalf("seed %d: %d responses to %d frames of %d lines", seed, len(got), fr.Frames(), n)
			}
			for i := range lines {
				if fr.Corrupt(i) {
					if !json.Valid(got[i]) {
						t.Errorf("seed %d line %d: response to garbled line is not JSON: %q", seed, i, got[i])
					}
					continue
				}
				if !bytes.Equal(got[i], golden[i]) {
					t.Errorf("seed %d line %d: intact line answered %q, want %q", seed, i, got[i], golden[i])
				}
			}
		})
	}
}

// TestChaosServeLinesTruncation feeds the stdin transport torn lines — the
// mid-byte truncations a killed or preempted writer leaves, which fuse with
// the following line into one corrupt frame — plus garbling and delays, and
// asserts the frame accounting contract: exactly one response per frame the
// scanner observes, every response well-formed, and every intact line's
// response byte-identical to the fault-free run, in order.
func TestChaosServeLinesTruncation(t *testing.T) {
	const n = 60
	lines, golden := chaosRequestLines(t, n)
	for _, seed := range chaosSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			var in bytes.Buffer
			for _, l := range lines {
				in.Write(l)
				in.WriteByte('\n')
			}
			inj := faultinject.New(seed)
			fr := faultinject.Lines(&in, inj.Stream("stdin-torn"), faultinject.LineFaults{
				GarbleProb:   0.1,
				TruncateProb: 0.25,
				DelayProb:    0.2,
				DelayMax:     time.Millisecond,
			})

			s := NewServer(Config{Workers: 2})
			defer s.Close()
			var out bytes.Buffer
			if err := s.ServeLines(context.Background(), fr, &out); err != nil {
				t.Fatalf("serve: %v", err)
			}
			got := splitLines(out.Bytes())
			if len(got) != fr.Frames() {
				t.Fatalf("seed %d: %d responses to %d frames (%d source lines)",
					seed, len(got), fr.Frames(), fr.LinesRead())
			}
			for _, g := range got {
				if !json.Valid(g) {
					t.Fatalf("seed %d: malformed response line %q", seed, g)
				}
			}
			// Intact lines pass through as whole frames in order, so their
			// golden responses must appear as an ordered subsequence of the
			// response stream (corrupt frames' error lines interleave).
			k := 0
			for i := range lines {
				if fr.Corrupt(i) {
					continue
				}
				found := false
				for ; k < len(got); k++ {
					if bytes.Equal(got[k], golden[i]) {
						found = true
						k++
						break
					}
				}
				if !found {
					t.Fatalf("seed %d: intact line %d's response missing from the stream", seed, i)
				}
			}
		})
	}
}
