//go:build race

package nic

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
