//go:build !race

package nic

// raceEnabled reports whether the race detector instruments this build; the
// allocation-regression assertions are skipped under -race because the
// instrumentation itself allocates.
const raceEnabled = false
