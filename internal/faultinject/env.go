package faultinject

import (
	"fmt"
	"strconv"
	"time"
)

// Environment keys of the worker fault plan. The sweep coordinator's
// Command/Env hook is the injection seam for worker processes: a chaos
// test appends these to the worker environment and the re-exec'd sweep test
// binary (HooksFromEnv in internal/sweep's tests) turns them into scripted
// crashes, garbled output, skewed heartbeats or hangs. The production worker
// (noctool sweep -worker) never reads them.
const (
	// EnvCrashAfter SIGKILLs the worker after its n-th run response — the
	// classic crash-restart schedule.
	EnvCrashAfter = "NOCTOOL_FAULT_CRASH_AFTER"
	// EnvCrashIndex SIGKILLs the worker when it is asked to run this grid
	// index — a poison task that reliably kills every worker it touches.
	EnvCrashIndex = "NOCTOOL_FAULT_CRASH_INDEX"
	// EnvPongDelayMS delays heartbeat pongs by this many milliseconds — a
	// clock-skewed (slow but live) worker the coordinator must tolerate
	// while the skew stays inside its liveness timeout.
	EnvPongDelayMS = "NOCTOOL_FAULT_PONG_DELAY_MS"
	// EnvGarbleEvery replaces every k-th run response with a garbage line —
	// wire corruption the coordinator must treat as a crash.
	EnvGarbleEvery = "NOCTOOL_FAULT_GARBLE_EVERY"
	// EnvHang makes the worker stop reading and responding after the first
	// run request — a hung (not busy) worker for the heartbeat to kill.
	EnvHang = "NOCTOOL_FAULT_HANG"
)

// WorkerFaults is one worker process's scripted fault plan. Construct via
// Faults() (or WorkerFaultsFromEnv); the literal zero value would read
// CrashIndex 0 as "poison grid index 0".
type WorkerFaults struct {
	CrashAfter  int           // >0: SIGKILL after the n-th run response
	CrashIndex  int           // >=0: SIGKILL on dispatch of this grid index
	PongDelay   time.Duration // >0: delay heartbeat pongs
	GarbleEvery int           // >0: garble every k-th run response
	Hang        bool          // stop responding after the first run request
}

// Faults returns the empty plan (no faults).
func Faults() WorkerFaults { return WorkerFaults{CrashIndex: -1} }

// Env renders the plan as KEY=VALUE entries for the coordinator's worker
// environment; zero-valued faults are omitted.
func (f WorkerFaults) Env() []string {
	var env []string
	if f.CrashAfter > 0 {
		env = append(env, fmt.Sprintf("%s=%d", EnvCrashAfter, f.CrashAfter))
	}
	if f.CrashIndex >= 0 {
		env = append(env, fmt.Sprintf("%s=%d", EnvCrashIndex, f.CrashIndex))
	}
	if f.PongDelay > 0 {
		env = append(env, fmt.Sprintf("%s=%d", EnvPongDelayMS, f.PongDelay.Milliseconds()))
	}
	if f.GarbleEvery > 0 {
		env = append(env, fmt.Sprintf("%s=%d", EnvGarbleEvery, f.GarbleEvery))
	}
	if f.Hang {
		env = append(env, EnvHang+"=1")
	}
	return env
}

// WorkerFaultsFromEnv decodes the plan from an environment lookup
// (typically os.Getenv). Unset or unparsable keys fall back to the empty
// plan's values, so a production environment decodes to no faults.
func WorkerFaultsFromEnv(getenv func(string) string) WorkerFaults {
	f := Faults()
	atoi := func(key string, fallback int) int {
		v := getenv(key)
		if v == "" {
			return fallback
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return fallback
		}
		return n
	}
	f.CrashAfter = atoi(EnvCrashAfter, 0)
	f.CrashIndex = atoi(EnvCrashIndex, -1)
	if ms := atoi(EnvPongDelayMS, 0); ms > 0 {
		f.PongDelay = time.Duration(ms) * time.Millisecond
	}
	f.GarbleEvery = atoi(EnvGarbleEvery, 0)
	f.Hang = getenv(EnvHang) == "1"
	return f
}
