package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// findRoot locates the checkout root (the directory holding cmd/noctool)
// from the working directory: the root itself when started through
// bench/run.sh, its parent when started with `go run -C bench .`.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if st, err := os.Stat(filepath.Join(dir, "cmd", "noctool")); err == nil && st.IsDir() {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("bench: cmd/noctool not found from the working directory; run from the repository root or bench/")
}

// buildNoctool compiles the program under test from the checkout's sources
// into the checkout's build directory.
func buildNoctool(ctx context.Context, root, buildDir string) (string, error) {
	out := filepath.Join(buildDir, "noctool")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, "./cmd/noctool")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("bench: build noctool: %w\n%s", err, msg)
	}
	return out, nil
}

// childRun is what one finished child process cost.
type childRun struct {
	Stdout []byte
	Wall   time.Duration
	CPU    time.Duration // user + system, the child's reaped descendants included
	MaxRSS int64         // KiB, the largest of the child and its reaped descendants
}

// runChild runs argv to completion. A non-zero exit is an error carrying the
// child's stderr.
func runChild(ctx context.Context, argv ...string) (childRun, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return childRun{}, fmt.Errorf("%s: %w\n%s", strings.Join(argv, " "), err, stderr.Bytes())
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return childRun{
		Stdout: stdout.Bytes(),
		Wall:   wall,
		CPU:    cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime(),
		MaxRSS: ru.Maxrss,
	}, nil
}

// daemon is one running `noctool serve` process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	logs *bytes.Buffer
}

// startDaemon launches `noctool serve -no-stdin -listen 127.0.0.1:0` and
// waits for the address it prints on stderr. A port that cannot be bound or
// a daemon that dies first is an error.
func startDaemon(ctx context.Context, noctool string) (*daemon, error) {
	cmd := exec.CommandContext(ctx, noctool, "serve", "-no-stdin", "-listen", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("bench: start daemon: %w", err)
	}
	d := &daemon{cmd: cmd, logs: &bytes.Buffer{}}
	const marker = "listening on "
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(d.logs, line)
		if i := strings.Index(line, marker); i >= 0 {
			d.addr = strings.TrimSpace(line[i+len(marker):])
			break
		}
	}
	if d.addr == "" {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, fmt.Errorf("bench: daemon exited before listening:\n%s", d.logs)
	}
	// Keep draining stderr so the daemon never blocks on a full pipe; Wait
	// (in stop) closes the pipe and ends the goroutine.
	go func() {
		for sc.Scan() {
		}
	}()
	return d, nil
}

// stop asks the daemon to drain (SIGTERM), waits for it to exit and kills it
// if it does not within five seconds.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("bench: daemon exit: %w", err)
		}
		return nil
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
		return errors.New("bench: daemon did not drain within 5s; killed")
	}
}

// peakRSSKiB reads the daemon's resident-set high-water mark.
func (d *daemon) peakRSSKiB() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, errors.New("bench: no VmHWM in /proc status")
}

// cpuTime reads the daemon's consumed user+system time from /proc/<pid>/stat
// (clock ticks of 10 ms, so only differences over a second or more mean
// anything).
func (d *daemon) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the line, i.e. index 11 and 12 after the ") ".
	i := bytes.LastIndexByte(data, ')')
	fields := strings.Fields(string(data[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, errors.New("bench: malformed /proc stat")
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bench: malformed /proc stat times")
	}
	const tick = 10 * time.Millisecond // USER_HZ is 100 on every Linux ABI
	return time.Duration(utime+stime) * tick, nil
}

// selfCPU is this process's consumed user+system time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// loadavg1 is the host's one-minute load average (0 when unreadable).
func loadavg1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	v, _ := strconv.ParseFloat(strings.Fields(string(data))[0], 64)
	return v
}
