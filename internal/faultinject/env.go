package faultinject

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"repro/internal/lineio"
)

// Environment keys of the worker fault plan. The sweep coordinator's
// Command/Env hook is the injection seam for worker processes: a chaos
// test appends these to the worker environment, and the re-exec'd test
// binary (the TestMain of internal/sweep or cmd/noctool) wraps the worker's
// stdio with WorkerFaults.Wrap before it runs the worker. The production
// worker (noctool sweep -worker) never reads them.
const (
	// EnvCrashAfter SIGKILLs the worker after its n-th response line — the
	// classic crash-restart schedule.
	EnvCrashAfter = "NOCTOOL_FAULT_CRASH_AFTER"
	// EnvCrashIndex SIGKILLs the worker before it reads the request whose
	// id is this grid index — a poison task that reliably kills every
	// worker it touches.
	EnvCrashIndex = "NOCTOOL_FAULT_CRASH_INDEX"
	// EnvReplyDelayMS delays every response line by this many milliseconds
	// — a slow but live worker the coordinator must tolerate while the
	// delay stays inside its stall timeout.
	EnvReplyDelayMS = "NOCTOOL_FAULT_REPLY_DELAY_MS"
	// EnvGarbleEvery replaces every k-th response line with a garbage line —
	// wire corruption the coordinator must treat as a crash.
	EnvGarbleEvery = "NOCTOOL_FAULT_GARBLE_EVERY"
	// EnvHang makes the worker stop reading and writing at its first
	// request line — a hung (not busy) worker for the stall timer to kill.
	EnvHang = "NOCTOOL_FAULT_HANG"
)

// WorkerFaults is one worker process's scripted fault plan. Construct via
// Faults() (or WorkerFaultsFromEnv); the literal zero value would read
// CrashIndex 0 as "poison grid index 0".
type WorkerFaults struct {
	CrashAfter  int           // >0: SIGKILL after the n-th response line
	CrashIndex  int           // >=0: SIGKILL before reading the request with this id
	ReplyDelay  time.Duration // >0: delay every response line
	GarbleEvery int           // >0: garble every k-th response line
	Hang        bool          // stop reading and writing at the first request line
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
	if f.ReplyDelay > 0 {
		env = append(env, fmt.Sprintf("%s=%d", EnvReplyDelayMS, f.ReplyDelay.Milliseconds()))
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
	if ms := atoi(EnvReplyDelayMS, 0); ms > 0 {
		f.ReplyDelay = time.Duration(ms) * time.Millisecond
	}
	f.GarbleEvery = atoi(EnvGarbleEvery, 0)
	f.Hang = getenv(EnvHang) == "1"
	return f
}

// Wrap applies the plan to a worker's stdio: the returned reader hangs or
// SIGKILLs the process at the request lines the plan names, and the
// returned writer delays, garbles or SIGKILLs at the response lines it
// names. Both are line-aware whatever the worker's buffering; the empty
// plan returns r and w themselves.
func (f WorkerFaults) Wrap(r io.Reader, w io.Writer) (io.Reader, io.Writer) {
	if f.Hang || f.CrashIndex >= 0 {
		r = &faultIn{sc: lineio.NewScanner(r), f: f}
	}
	if f.CrashAfter > 0 || f.ReplyDelay > 0 || f.GarbleEvery > 0 {
		w = &faultOut{w: w, f: f}
	}
	return r, w
}

// faultIn passes request lines on one at a time, checking each first.
type faultIn struct {
	sc  *bufio.Scanner
	f   WorkerFaults
	buf []byte
}

func (in *faultIn) Read(p []byte) (int, error) {
	for len(in.buf) == 0 {
		if !in.sc.Scan() {
			if err := in.sc.Err(); err != nil {
				return 0, err
			}
			return 0, io.EOF
		}
		line := in.sc.Bytes()
		if in.f.Hang {
			hang()
		}
		var hdr struct {
			ID *int64 `json:"id"`
		}
		if in.f.CrashIndex >= 0 && json.Unmarshal(line, &hdr) == nil && hdr.ID != nil && *hdr.ID == int64(in.f.CrashIndex) {
			die()
		}
		in.buf = append(append(in.buf[:0], line...), '\n')
	}
	n := copy(p, in.buf)
	in.buf = in.buf[n:]
	return n, nil
}

// faultOut writes response lines one at a time, applying the plan to each.
type faultOut struct {
	w       io.Writer
	f       WorkerFaults
	partial []byte // the start of a line not yet terminated
	lines   int
}

func (o *faultOut) Write(p []byte) (int, error) {
	n := len(p)
	for {
		nl := bytes.IndexByte(p, '\n')
		if nl < 0 {
			o.partial = append(o.partial, p...)
			return n, nil
		}
		o.partial = append(o.partial, p[:nl+1]...)
		p = p[nl+1:]
		if err := o.line(o.partial); err != nil {
			return 0, err
		}
		o.partial = o.partial[:0]
	}
}

// line writes one complete response line under the plan.
func (o *faultOut) line(l []byte) error {
	o.lines++
	time.Sleep(o.f.ReplyDelay)
	if o.f.GarbleEvery > 0 && o.lines%o.f.GarbleEvery == 0 {
		// Well framed but unparsable: the answer is lost, and the
		// coordinator must treat the worker as crashed and retry.
		l = []byte("#### garbled worker output ####\n")
	}
	if _, err := o.w.Write(l); err != nil {
		return err
	}
	if o.f.CrashAfter > 0 && o.lines >= o.f.CrashAfter {
		die()
	}
	return nil
}

// die SIGKILLs the process: no deferred function, flush or exit code runs.
func die() {
	if p, err := os.FindProcess(os.Getpid()); err == nil {
		_ = p.Kill()
	}
	hang()
}

// hang blocks the calling goroutine for good. A sleep loop rather than
// select{}, so the runtime's deadlock detector does not end a worker that
// is meant to look hung.
func hang() {
	for {
		time.Sleep(time.Hour)
	}
}
