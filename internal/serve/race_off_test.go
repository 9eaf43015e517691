//go:build !race

package serve

// raceEnabled reports whether the race detector instruments this build; the
// zero-allocation assertion is skipped under -race because the
// instrumentation itself allocates.
const raceEnabled = false
