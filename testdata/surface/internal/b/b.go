// Package b spells a's method names on its own types.
package b

// U has a method named like a.T's dead one.
type U struct{}

// HasOutput is called from main.
func (U) HasOutput() bool { return true }

// Shaper is the interface main calls through.
type Shaper interface{ Shape() int }
