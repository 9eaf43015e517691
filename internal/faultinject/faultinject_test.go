package faultinject

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/lineio"
)

// TestStreamsDeterministicAndIndependent: the same (seed, name) replays the
// same decisions; distinct names decorrelate.
func TestStreamsDeterministicAndIndependent(t *testing.T) {
	draw := func(s *Stream) []int {
		out := make([]int, 64)
		for i := range out {
			out[i] = s.Intn(1000)
		}
		return out
	}
	a := draw(New(7).Stream("conn"))
	b := draw(New(7).Stream("conn"))
	c := draw(New(7).Stream("lines"))
	d := draw(New(8).Stream("conn"))
	if !equalInts(a, b) {
		t.Error("same (seed, name) produced different decisions")
	}
	if equalInts(a, c) {
		t.Error("distinct stream names produced identical decisions")
	}
	if equalInts(a, d) {
		t.Error("distinct seeds produced identical decisions")
	}
}

func equalInts(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestLinesFrameAccounting: the FaultReader's frame count matches what a
// downstream lineio scanner actually tokenises, across garble and torn
// schedules, and corrupt marks cover exactly the mutated lines.
func TestLinesFrameAccounting(t *testing.T) {
	var src strings.Builder
	for i := 0; i < 200; i++ {
		src.WriteString(`{"id":`)
		src.WriteString(strings.Repeat("7", 1+i%5))
		src.WriteString(`,"op":"ping"}` + "\n")
	}
	for _, f := range []LineFaults{
		{GarbleProb: 0.3},
		{TruncateProb: 0.3},
		{GarbleProb: 0.2, TruncateProb: 0.2},
	} {
		fr := Lines(strings.NewReader(src.String()), New(3).Stream("lines"), f)
		data, err := io.ReadAll(fr)
		if err != nil {
			t.Fatal(err)
		}
		sc := lineio.NewScanner(bytes.NewReader(data))
		frames := 0
		for sc.Scan() {
			frames++
		}
		if frames != fr.Frames() {
			t.Errorf("faults %+v: scanner saw %d frames, reader reported %d", f, frames, fr.Frames())
		}
		if fr.LinesRead() != 200 {
			t.Errorf("faults %+v: consumed %d source lines, want 200", f, fr.LinesRead())
		}
	}

	// A fault-free schedule is the identity.
	fr := Lines(strings.NewReader(src.String()), New(3).Stream("clean"), LineFaults{})
	data, err := io.ReadAll(fr)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != src.String() {
		t.Error("fault-free LineReader mutated the stream")
	}
	for i := 0; i < 200; i++ {
		if fr.Corrupt(i) {
			t.Fatalf("fault-free LineReader marked line %d corrupt", i)
		}
	}
}

// TestFileCorruptionShapes pins the three mangler shapes against a small
// JSONL image.
func TestFileCorruptionShapes(t *testing.T) {
	src := []byte("{\"index\":0}\n{\"index\":1}\n{\"index\":2}\n")
	s := New(11).Stream("files")

	torn := TornTail(src, s)
	if len(torn) >= len(src) || bytes.HasSuffix(torn, []byte("\n")) {
		t.Errorf("TornTail did not cut inside the final line: %q", torn)
	}
	if !bytes.HasPrefix(torn, []byte("{\"index\":0}\n{\"index\":1}\n")) {
		t.Errorf("TornTail mutated earlier lines: %q", torn)
	}

	tear := TearLine(src, 1, s)
	if bytes.Count(tear, []byte("\n")) != 2 {
		t.Errorf("TearLine kept the torn line's newline: %q", tear)
	}
	if !bytes.HasPrefix(tear, []byte("{\"index\":0}\n{")) || !bytes.HasSuffix(tear, []byte("{\"index\":2}\n")) {
		t.Errorf("TearLine touched the wrong line: %q", tear)
	}

	gar := GarbleLine(src, 2, s)
	if len(gar) != len(src) || bytes.Count(gar, []byte("\n")) != 3 {
		t.Errorf("GarbleLine changed framing: %q", gar)
	}
	if !bytes.Contains(gar[24:], []byte{garbleByte}) {
		t.Errorf("GarbleLine left line 2 intact: %q", gar)
	}
	if !bytes.Equal(gar[:24], src[:24]) {
		t.Errorf("GarbleLine mutated other lines: %q", gar)
	}
}

// TestWorkerFaultsEnvRoundTrip: plans survive the Env/FromEnv round trip
// and an empty environment decodes to the empty plan.
func TestWorkerFaultsEnvRoundTrip(t *testing.T) {
	plan := Faults()
	plan.CrashAfter = 3
	plan.CrashIndex = 12
	plan.PongDelay = 40 * time.Millisecond
	plan.GarbleEvery = 5
	plan.Hang = true

	env := map[string]string{}
	for _, kv := range plan.Env() {
		k, v, _ := strings.Cut(kv, "=")
		env[k] = v
	}
	got := WorkerFaultsFromEnv(func(k string) string { return env[k] })
	if got != plan {
		t.Errorf("round trip: got %+v, want %+v", got, plan)
	}

	empty := WorkerFaultsFromEnv(func(string) string { return "" })
	if empty != Faults() {
		t.Errorf("empty env decoded to %+v, want the empty plan", empty)
	}
	if len(Faults().Env()) != 0 {
		t.Errorf("empty plan rendered env entries: %v", Faults().Env())
	}
}
