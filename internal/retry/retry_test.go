package retry

import (
	"testing"
	"time"
)

// TestBackoffSchedule pins the policy envelope: attempt n draws from
// [base·2ⁿ/2, base·2ⁿ), capped at max.
func TestBackoffSchedule(t *testing.T) {
	b := New(10*time.Millisecond, 80*time.Millisecond, 1)
	ceil := []time.Duration{10, 20, 40, 80, 80, 80}
	for i, c := range ceil {
		c *= time.Millisecond
		d := b.Next()
		if d < c/2 || d >= c {
			t.Errorf("attempt %d: delay %v outside [%v, %v)", i, d, c/2, c)
		}
	}
	if b.attempt != len(ceil) {
		t.Errorf("attempt = %d, want %d", b.attempt, len(ceil))
	}
	b.Reset()
	if d := b.Next(); d < 5*time.Millisecond || d >= 10*time.Millisecond {
		t.Errorf("post-Reset delay %v outside first-attempt window", d)
	}
}

// TestBackoffDeterministic: the same seed yields the same delay sequence —
// the property the chaos harnesses lean on.
func TestBackoffDeterministic(t *testing.T) {
	a := New(3*time.Millisecond, time.Second, 7)
	b := New(3*time.Millisecond, time.Second, 7)
	c := New(3*time.Millisecond, time.Second, 8)
	same, diff := true, false
	for i := 0; i < 32; i++ {
		av := a.Next()
		if av != b.Next() {
			same = false
		}
		if av != c.Next() {
			diff = true
		}
	}
	if !same {
		t.Error("identical seeds produced different delay sequences")
	}
	if !diff {
		t.Error("distinct seeds produced identical delay sequences")
	}
}

// TestBackoffDefaults: zero-ish inputs select sane bounds.
func TestBackoffDefaults(t *testing.T) {
	b := New(0, 0, 1)
	d := b.Next()
	if d < 50*time.Millisecond || d >= 100*time.Millisecond {
		t.Errorf("default first delay %v outside [50ms, 100ms)", d)
	}
	for i := 0; i < 40; i++ {
		d = b.Next()
	}
	if d >= 6400*time.Millisecond {
		t.Errorf("delay %v exceeds default cap", d)
	}
}
