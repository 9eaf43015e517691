package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os/exec"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lineio"
	"repro/internal/scenario"
	"repro/internal/sweep/pool"
)

// Coordinator is the multi-process Executor: it fans tasks out to worker
// subprocesses (`noctool sweep -worker`) over the JSON-line protocol, with
// a bounded in-flight window per worker, out-of-band ping heartbeats that
// kill hung (not merely busy) workers, and restart-on-crash with
// requeueing of the dead worker's in-flight tasks. Because scenario
// execution is deterministic and every result carries its grid index, the
// sink receives exactly the outcomes the InProcess executor would deliver
// — byte-identical aggregated output for every worker count and every
// crash/restart schedule, pinned by the coordinator goldens.
type Coordinator struct {
	// Command is the argv spawning one worker process (e.g.
	// [noctool, sweep, -worker]). Required.
	Command []string
	// Env is the child environment; nil inherits this process's.
	Env []string
	// Procs is the number of worker processes; <1 selects
	// AutoSplit(GOMAXPROCS, -1, points).Procs.
	Procs int
	// Window bounds in-flight tasks per worker; <1 selects the AutoSplit
	// default (one executing + one queued).
	Window int
	// HeartbeatInterval is the ping cadence; 0 selects 500ms.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout kills a worker that produced no output (not even a
	// pong) for this long; 0 selects 30s. Busy workers answer pings from
	// their reader goroutine, so long scenarios do not trip this.
	HeartbeatTimeout time.Duration
	// MaxRestarts bounds how many times one worker slot is respawned
	// after crashes; 0 selects 3. When every slot has exhausted its
	// restarts, remaining tasks fail (they are never silently dropped).
	MaxRestarts int
	// MaxAttempts bounds executions of one task across worker crashes (a
	// poison task that reliably kills workers must not retry forever);
	// 0 selects 3.
	MaxAttempts int
	// RestartBackoff is the base of the jittered exponential delay before
	// respawning a crashed worker slot, so a fast crash loop cannot become
	// a process-spawn storm; 0 selects 100ms, <0 disables backoff.
	RestartBackoff time.Duration
	// RestartBackoffMax caps the respawn delay; 0 selects 2s.
	RestartBackoffMax time.Duration
	// BackoffSeed seeds the respawn jitter (per-slot streams are derived
	// from it), keeping chaos schedules replayable.
	BackoffSeed int64
	// Stderr receives the workers' stderr; nil discards it.
	Stderr io.Writer
}

func (c *Coordinator) heartbeatInterval() time.Duration {
	if c.HeartbeatInterval > 0 {
		return c.HeartbeatInterval
	}
	return 500 * time.Millisecond
}

func (c *Coordinator) heartbeatTimeout() time.Duration {
	if c.HeartbeatTimeout > 0 {
		return c.HeartbeatTimeout
	}
	return 30 * time.Second
}

func (c *Coordinator) maxRestarts() int {
	if c.MaxRestarts > 0 {
		return c.MaxRestarts
	}
	return 3
}

func (c *Coordinator) maxAttempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return 3
}

// slotBackoff builds one slot's respawn backoff; nil when disabled. Slots
// derive decorrelated jitter streams from the shared seed so they do not
// respawn in lockstep.
func (c *Coordinator) slotBackoff(slot int) *backoff {
	if c.RestartBackoff < 0 {
		return nil
	}
	base := c.RestartBackoff
	if base == 0 {
		base = 100 * time.Millisecond
	}
	max := c.RestartBackoffMax
	if max == 0 {
		max = 2 * time.Second
	}
	return &backoff{base: base, max: max, rng: rand.New(rand.NewSource(c.BackoffSeed + int64(slot)*1000003))}
}

// backoff is one slot's jittered exponential respawn delay: respawn n
// (0-based) draws uniformly from [d/2, d] where d = min(base·2ⁿ, max). The
// half-width jitter keeps slots from respawning in lockstep while every
// delay stays within a factor of two of the deterministic schedule, and
// the seeded jitter keeps chaos runs replayable.
type backoff struct {
	base, max time.Duration
	attempt   int
	rng       *rand.Rand
}

// next returns the delay before the next respawn and advances the schedule.
func (b *backoff) next() time.Duration {
	d := b.base << uint(min(b.attempt, 62))
	if d <= 0 || d > b.max {
		d = b.max
	}
	b.attempt++
	return d/2 + time.Duration(b.rng.Int63n(int64(d/2)+1))
}

// backoffSleep waits one backoff step, cut short when the run ends.
func backoffSleep(st *coordState, b *backoff) {
	if b == nil {
		return
	}
	t := time.NewTimer(b.next())
	defer t.Stop()
	select {
	case <-t.C:
	case <-st.done:
	}
}

// coordState is the shared scheduling state: a queue of runnable tasks
// (initial grid order, then requeued crash victims), per-task attempt
// counts, and the exactly-once reporting guard. One condition variable
// wakes idle worker slots when tasks are requeued, the run ends, or a
// session dies.
type coordState struct {
	mu   sync.Mutex
	cond *sync.Cond
	// queue holds never-crashed runnable tasks in grid order; suspects
	// holds tasks whose worker crashed while they were in flight. Suspects
	// are quarantined: each is dispatched alone to a dedicated worker
	// process, so one poison task can no longer take a batch of innocent
	// neighbours down with it on every retry.
	queue       []Task
	suspects    []Task
	attempts    map[int]int
	reported    map[int]bool
	outstanding int   // tasks not yet reported to the sink
	liveSlots   int   // worker slots still able to execute
	cancelCause error // non-nil once the run context expired
	sinkErr     error

	sink     ResultSink
	done     chan struct{} // closed when outstanding hits 0 or the sink fails
	doneOnce sync.Once
}

func newCoordState(tasks []Task, slots int, sink ResultSink) *coordState {
	st := &coordState{
		queue:       append([]Task(nil), tasks...),
		attempts:    make(map[int]int, len(tasks)),
		reported:    make(map[int]bool, len(tasks)),
		outstanding: len(tasks),
		liveSlots:   slots,
		sink:        sink,
		done:        make(chan struct{}),
	}
	st.cond = sync.NewCond(&st.mu)
	return st
}

func (st *coordState) closeDone() { st.doneOnce.Do(func() { close(st.done) }) }

// pop blocks until a task is runnable, the run is over, or stop (an extra
// caller-side wake condition, e.g. "this session died") reports true. solo
// reports that the task is a quarantined suspect and must run alone on a
// fresh worker. Only slot top-levels pass takeSuspects; a live session's
// feeder must not (a suspect fed into a shared session would defeat the
// quarantine), and instead winds its session down — returning !ok — when
// only suspects remain, so its slot can come back for them solo.
func (st *coordState) pop(stop func() bool, takeSuspects bool) (t Task, solo, ok bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for {
		if st.cancelCause != nil || st.outstanding == 0 || st.sinkErr != nil {
			return Task{}, false, false
		}
		if stop != nil && stop() {
			return Task{}, false, false
		}
		if len(st.suspects) > 0 {
			if !takeSuspects {
				return Task{}, false, false
			}
			t := st.suspects[0]
			st.suspects = st.suspects[1:]
			return t, true, true
		}
		if len(st.queue) > 0 {
			t := st.queue[0]
			st.queue = st.queue[1:]
			return t, false, true
		}
		st.cond.Wait()
	}
}

// finish reports one task's outcome to the sink, exactly once per index.
func (st *coordState) finish(t Task, r scenario.Result, err error) {
	st.mu.Lock()
	if st.reported[t.Index] || st.sinkErr != nil {
		st.mu.Unlock()
		return
	}
	st.reported[t.Index] = true
	st.outstanding--
	last := st.outstanding == 0
	st.mu.Unlock()

	if serr := st.sink.Put(t.Index, r, err); serr != nil {
		st.mu.Lock()
		if st.sinkErr == nil {
			st.sinkErr = serr
		}
		st.mu.Unlock()
		st.closeDone()
		st.cond.Broadcast()
		return
	}
	if last {
		st.closeDone()
		st.cond.Broadcast()
	}
}

// requeue returns a task to the queue, or retires it: as skipped when the
// run was cancelled, as failed when its attempt budget is spent. charge
// marks an execution attempt actually consumed — true only when the task
// was dispatched to a worker that then crashed (a poison task must not
// retry forever), false when the worker died before ever seeing it.
func (st *coordState) requeue(t Task, maxAttempts int, cause error, charge bool) {
	st.mu.Lock()
	cancelled := st.cancelCause
	if charge {
		st.attempts[t.Index]++
	}
	attempts := st.attempts[t.Index]
	exhausted := attempts >= maxAttempts
	if cancelled == nil && !exhausted {
		if charge {
			// The task was in flight on a worker that crashed — it may be
			// the reason. Quarantine it: it retries alone on a dedicated
			// process, never sharing a session with innocent tasks again.
			st.suspects = append(st.suspects, t)
		} else {
			st.queue = append(st.queue, t)
		}
	}
	st.mu.Unlock()
	st.cond.Broadcast()
	if cancelled != nil {
		r, serr := skip(t, cancelled)
		st.finish(t, r, serr)
		return
	}
	if exhausted {
		st.finish(t, scenario.Result{Name: t.Spec.Name},
			fmt.Errorf("sweep: scenario %d failed after %d attempts: %w", t.Index, attempts, cause))
	}
}

// slotExit retires a worker slot; when the last slot retires with work
// still queued, that work fails (never hangs, never drops silently).
func (st *coordState) slotExit(cause error) {
	st.mu.Lock()
	st.liveSlots--
	var orphans []Task
	if st.liveSlots == 0 {
		orphans = append(st.queue, st.suspects...)
		st.queue, st.suspects = nil, nil
	}
	cancelled := st.cancelCause
	st.mu.Unlock()
	if cause == nil {
		cause = fmt.Errorf("worker slots exhausted")
	}
	for _, t := range orphans {
		if cancelled != nil {
			r, serr := skip(t, cancelled)
			st.finish(t, r, serr)
			continue
		}
		st.finish(t, scenario.Result{Name: t.Spec.Name},
			fmt.Errorf("sweep: scenario %d: no live workers: %w", t.Index, cause))
	}
}

// cancel marks the run cancelled and drains the queue as skipped; tasks
// in flight on live workers are retired by their sessions' requeue path.
func (st *coordState) cancel(cause error) {
	st.mu.Lock()
	if st.cancelCause == nil {
		st.cancelCause = cause
	}
	orphans := append(st.queue, st.suspects...)
	st.queue, st.suspects = nil, nil
	st.mu.Unlock()
	st.cond.Broadcast()
	for _, t := range orphans {
		r, serr := skip(t, cause)
		st.finish(t, r, serr)
	}
}

// session is one live worker process: its pipes, the in-flight task map
// keyed by request id, and the liveness clock the heartbeat reads.
type session struct {
	cmd      *exec.Cmd
	stdin    io.WriteCloser
	stdout   io.ReadCloser
	wmu      sync.Mutex // serialises request lines (tasks + pings)
	imu      sync.Mutex
	inflight map[int64]Task
	lastRead atomic.Int64 // unix nanos of the last line read from the worker
	broken   atomic.Bool  // heartbeat expiry, write failure, or garbled output
}

func (s *session) send(req workerRequest) error {
	line, err := json.Marshal(req)
	if err != nil {
		return err
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return lineio.WriteLine(s.stdin, line)
}

// Execute implements Executor.
func (c *Coordinator) Execute(ctx context.Context, tasks []Task, opts Options, sink ResultSink) error {
	if len(tasks) == 0 {
		return nil
	}
	if len(c.Command) == 0 {
		return fmt.Errorf("sweep: coordinator has no worker command")
	}
	split := AutoSplit(pool.Jobs(0), c.Procs, len(tasks))
	window := c.Window
	if window < 1 {
		window = split.Window
	}
	st := newCoordState(tasks, split.Procs, sink)
	var ids atomic.Int64

	// Cancellation watcher: wake every pop and drain pending work. Worker
	// processes die when their slots notice and kill them.
	cancelDone := make(chan struct{})
	go func() {
		defer close(cancelDone)
		select {
		case <-ctx.Done():
			st.cancel(context.Cause(ctx))
		case <-st.done:
		}
	}()

	var wg sync.WaitGroup
	for slot := 0; slot < split.Procs; slot++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.runSlot(ctx, st, slot, window, &ids)
		}()
	}
	wg.Wait()
	// Every slot has exited, so every task has been reported (finished,
	// requeued-then-drained, or skipped). Release the watcher.
	st.closeDone()
	<-cancelDone

	st.mu.Lock()
	defer st.mu.Unlock()
	return st.sinkErr
}

// runSlot is one worker slot's lifetime: spawn a process, feed it tasks
// through the window, and on crash requeue its in-flight work and respawn
// — after a jittered backoff — up to the restart budget. Quarantined
// suspects run one per process; their crashes charge the task's attempt
// budget (consumed by requeue), not the slot's restart budget, so a poison
// task cannot burn down a healthy slot's restarts.
func (c *Coordinator) runSlot(ctx context.Context, st *coordState, slot, window int, ids *atomic.Int64) {
	bo := c.slotBackoff(slot)
	restarts := 0
	for {
		// Wait for work before paying a process spawn. Suspects are taken
		// here — and only here — so each gets a dedicated fresh process.
		t, solo, ok := st.pop(nil, true)
		if !ok {
			st.slotExit(nil)
			return
		}
		s, err := c.spawn()
		if err != nil {
			st.requeue(t, c.maxAttempts(), err, false)
			if restarts >= c.maxRestarts() {
				st.slotExit(err)
				return
			}
			restarts++
			backoffSleep(st, bo)
			continue
		}
		crashErr := c.drive(ctx, st, s, window, ids, t, solo)
		// Collect the dead session's in-flight tasks. The reader has
		// exited, so no response can race these requeues.
		s.imu.Lock()
		victims := make([]Task, 0, len(s.inflight))
		for _, vt := range s.inflight {
			victims = append(victims, vt)
		}
		s.inflight = nil
		s.imu.Unlock()
		if len(victims) == 0 && crashErr == nil {
			// Clean end: the run may be over, or only suspects remain (the
			// feeder refuses them, winding its session down). Loop: the
			// top-of-loop pop either hands this slot a suspect to run solo
			// or reports the run complete.
			continue
		}
		for _, vt := range victims {
			st.requeue(vt, c.maxAttempts(), crashErr, true)
		}
		if solo {
			// A quarantined task killed its dedicated worker: charged to
			// the task above, not to this healthy slot's restart budget.
			backoffSleep(st, bo)
			continue
		}
		if restarts >= c.maxRestarts() {
			st.slotExit(crashErr)
			return
		}
		restarts++
		backoffSleep(st, bo)
	}
}

// spawn starts one worker process and its session bookkeeping.
func (c *Coordinator) spawn() (*session, error) {
	cmd := exec.Command(c.Command[0], c.Command[1:]...)
	cmd.Env = c.Env
	cmd.Stderr = c.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("sweep: worker stdin: %w", err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("sweep: worker stdout: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("sweep: start worker: %w", err)
	}
	s := &session{cmd: cmd, stdin: stdin, stdout: stdout, inflight: make(map[int64]Task)}
	s.lastRead.Store(time.Now().UnixNano())
	return s, nil
}

// drive feeds one live session until it crashes, the run ends, or ctx is
// cancelled. firstTask is the task popped before spawning; solo marks it a
// quarantined suspect, in which case nothing else is fed to this process.
// Returns nil on a clean end and the crash cause otherwise; either way the
// session's process is dead and reaped when drive returns, and whatever
// remains in s.inflight is the caller's to requeue.
func (c *Coordinator) drive(ctx context.Context, st *coordState, s *session, window int, ids *atomic.Int64, firstTask Task, solo bool) error {
	tokens := make(chan struct{}, window)
	readerDone := make(chan struct{})
	dead := func() bool { return s.broken.Load() }

	// Reader: every line from the worker refreshes the liveness clock;
	// run-responses retire their in-flight entry and report to the sink.
	go func() {
		defer close(readerDone)
		// Wake the feeder out of pop() once this session stops reading:
		// its in-flight work can no longer complete, so waiting slots
		// must requeue it rather than sleep on the condvar.
		defer st.cond.Broadcast()
		sc := lineio.NewScanner(s.stdout)
		for sc.Scan() {
			s.lastRead.Store(time.Now().UnixNano())
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			var resp workerResponse
			if err := json.Unmarshal(line, &resp); err != nil {
				s.broken.Store(true)
				return // garbled output: treat the worker as crashed
			}
			if resp.Pong {
				continue
			}
			s.imu.Lock()
			t, ok := s.inflight[resp.ID]
			delete(s.inflight, resp.ID)
			s.imu.Unlock()
			if !ok {
				continue // response to a request we no longer track
			}
			if resp.OK {
				var r scenario.Result
				if err := json.Unmarshal(resp.Result, &r); err != nil {
					st.finish(t, scenario.Result{Name: t.Spec.Name},
						fmt.Errorf("sweep: scenario %d: bad worker result: %w", t.Index, err))
				} else {
					st.finish(t, r, nil)
				}
			} else {
				st.finish(t, scenario.Result{Name: resp.Name},
					fmt.Errorf("scenario %q: %s", resp.Name, resp.Error))
			}
			select {
			case <-tokens:
			default:
			}
		}
		s.broken.Store(s.broken.Load() || stdoutClosedEarly(s))
	}()

	// Heartbeat: ping on a cadence; kill the process when it has produced
	// no output (not even a pong) for the timeout. A busy worker's reader
	// goroutine still pongs, so only a genuinely wedged worker dies here.
	hbStop := make(chan struct{})
	var hbWg sync.WaitGroup
	hbWg.Add(1)
	go func() {
		defer hbWg.Done()
		ticker := time.NewTicker(c.heartbeatInterval())
		defer ticker.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-ticker.C:
				idle := time.Since(time.Unix(0, s.lastRead.Load()))
				if idle > c.heartbeatTimeout() {
					s.broken.Store(true)
					s.cmd.Process.Kill()
					st.cond.Broadcast()
					return
				}
				s.send(workerRequest{ID: ids.Add(1), Verb: "ping"})
			}
		}
	}()

	// Feeder: push tasks through the window until the queue drains for
	// good or the session breaks. The window token is taken before the
	// task is sent, so at most `window` requests are ever in flight.
	var sendErr error
	t, have := firstTask, true
	for have {
		select {
		case tokens <- struct{}{}:
		case <-readerDone:
		}
		if dead() {
			st.requeue(t, c.maxAttempts(), fmt.Errorf("sweep: worker died before dispatch"), false)
			break
		}
		id := ids.Add(1)
		s.imu.Lock()
		s.inflight[id] = t
		s.imu.Unlock()
		if err := s.send(workerRequest{ID: id, Verb: "run", Index: t.Index, Spec: &t.Spec}); err != nil {
			// The write failed, so the worker never saw this task; pull it
			// back out so requeueing (not the reader) owns it.
			s.imu.Lock()
			delete(s.inflight, id)
			s.imu.Unlock()
			st.requeue(t, c.maxAttempts(), err, false)
			sendErr = err
			break
		}
		if solo {
			// Quarantine: one suspect per process, nothing rides along.
			break
		}
		t, _, have = st.pop(dead, false)
	}

	// Shut the session down: closing stdin tells a healthy worker to
	// finish its queue and exit; the reader then sees EOF after the last
	// response. A broken worker is killed outright.
	s.stdin.Close()
	if dead() || sendErr != nil || ctx.Err() != nil {
		s.cmd.Process.Kill()
	}
	<-readerDone
	close(hbStop)
	hbWg.Wait()
	waitErr := s.cmd.Wait()

	s.imu.Lock()
	pending := len(s.inflight)
	s.imu.Unlock()
	if pending == 0 && sendErr == nil && !s.broken.Load() {
		return nil
	}
	cause := sendErr
	if cause == nil {
		cause = waitErr
	}
	if cause == nil {
		cause = fmt.Errorf("worker exited with %d tasks in flight", pending)
	}
	return fmt.Errorf("sweep: worker crashed: %w", cause)
}

// stdoutClosedEarly reports whether the worker's stdout ended while tasks
// were still in flight — a crash, since a healthy worker only exits after
// answering everything and seeing stdin EOF.
func stdoutClosedEarly(s *session) bool {
	s.imu.Lock()
	defer s.imu.Unlock()
	return len(s.inflight) > 0
}
