package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"autodbaas/internal/shard"
)

// cleanup is the exit-path ledger: every child process and temp dir
// registers its release here, and run executes them once, newest first
// — on normal return, on a signal, and when a parent's death closes
// this process's stdin.
type cleanup struct {
	mu   sync.Mutex
	fns  []func()
	done bool

	// running is held while the releases execute, so a second caller
	// (a signal arriving during a normal exit) waits for them to finish
	// instead of exiting the process halfway through.
	running sync.Mutex
}

func (c *cleanup) add(fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done {
		fn()
		return
	}
	c.fns = append(c.fns, fn)
}

func (c *cleanup) run() {
	c.running.Lock()
	defer c.running.Unlock()
	c.mu.Lock()
	fns := c.fns
	c.fns, c.done = nil, true
	c.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// onSignal runs the cleanup and exits when the process is interrupted.
func (c *cleanup) onSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		c.run()
		os.Exit(130)
	}()
}

// onParentDeath exits when stdin reaches EOF. Every re-exec'd process
// gets a pipe as stdin whose write end only its parent holds, so the
// kernel closes it however the parent dies — panic and SIGKILL
// included — and no process of the tree outlives the harness.
func (c *cleanup) onParentDeath() {
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		c.run()
		os.Exit(3)
	}()
}

// lockedBuffer collects a child's stderr while the harness may read it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// proc is one re-exec'd child: started with a parent-death pipe, and
// killed and reaped exactly once.
type proc struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stderr *lockedBuffer
	exited chan struct{} // closed once Wait has returned
	once   sync.Once
}

// startSelf re-execs this binary with args. stdout is captured when out
// is non-nil.
func startSelf(out io.Writer, args ...string) (*proc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, args...)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	p := &proc{cmd: cmd, stdin: stdin, stderr: &lockedBuffer{}, exited: make(chan struct{})}
	cmd.Stdout = out
	cmd.Stderr = p.stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		_ = cmd.Wait() // the exit status is read from ProcessState
		close(p.exited)
	}()
	return p, nil
}

// stopGrace is how long a child gets to release its own workers and
// scratch files after SIGTERM before it is killed.
const stopGrace = 2 * time.Second

// stop ends the child (if still running) and waits until it has ended:
// SIGTERM first, so a pass can run its own cleanup, then SIGKILL.
func (p *proc) stop() {
	p.once.Do(func() {
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // already-exited is fine
		_ = p.stdin.Close()
		select {
		case <-p.exited:
		case <-time.After(stopGrace):
			_ = p.cmd.Process.Kill()
			<-p.exited
		}
	})
}

// workerUpTimeout bounds how long a worker may take to start listening.
const workerUpTimeout = 10 * time.Second

// workerSet is the shard worker processes of one service.
type workerSet struct {
	procs []*proc
}

// spawnWorkers starts n worker processes on unix sockets under dir and
// dials them. dir is relative to the working directory so the socket
// path stays under the 108-byte sun_path limit wherever the checkout
// lives. A worker that exits early or never listens fails the call
// within workerUpTimeout, with its stderr in the error.
func spawnWorkers(cl *cleanup, dir, tag string, n int) (*workerSet, []*shard.Remote, error) {
	ws := &workerSet{}
	cl.add(ws.stop)
	var remotes []*shard.Remote
	for i := 0; i < n; i++ {
		sock := filepath.Join(dir, fmt.Sprintf("%s-w%d.sock", tag, i))
		p, err := startSelf(nil, "-worker", sock)
		if err != nil {
			ws.stop()
			return nil, nil, fmt.Errorf("start worker %d: %w", i, err)
		}
		ws.procs = append(ws.procs, p)
		r, err := dialWorker(p, sock)
		if err != nil {
			ws.stop()
			return nil, nil, fmt.Errorf("worker %d: %w", i, err)
		}
		remotes = append(remotes, r)
	}
	return ws, remotes, nil
}

func dialWorker(p *proc, sock string) (*shard.Remote, error) {
	deadline := time.Now().Add(workerUpTimeout)
	for {
		r, err := shard.Dial("unix", sock)
		if err == nil {
			return r, nil
		}
		select {
		case <-p.exited:
			return nil, fmt.Errorf("exited before listening (%v); stderr:\n%s", p.cmd.ProcessState, p.stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("never came up within %v: %v; stderr:\n%s", workerUpTimeout, err, p.stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop kills and reaps every worker; it is safe to call twice.
func (ws *workerSet) stop() {
	for _, p := range ws.procs {
		p.stop()
	}
}

// cpu is the user+system time the live workers have used so far.
func (ws *workerSet) cpu() (time.Duration, error) {
	var total time.Duration
	for _, p := range ws.procs {
		d, err := procCPU(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

// peakRSS is the largest worker's peak resident set, in bytes.
func (ws *workerSet) peakRSS() (int64, error) {
	var peak int64
	for _, p := range ws.procs {
		v, err := procPeakRSS(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		peak = max(peak, v)
	}
	return peak, nil
}

// runWorker is the -worker mode: serve one shard on a unix socket until
// killed or orphaned.
func runWorker(sock string) error {
	var cl cleanup
	cl.onParentDeath()
	l, err := net.Listen("unix", sock)
	if err != nil {
		return err
	}
	return shard.NewServer().Serve(l)
}

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat.
// It is 100 on every Linux ABI Go supports.
const clockTick = 100

// procCPU reads a live process's user+system CPU time from /proc.
// getrusage(RUSAGE_CHILDREN) only covers children already reaped, and
// the workers are alive while the windows are measured.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: no command field", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64) // field 14
	stime, err2 := strconv.ParseInt(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields %q %q", pid, f[11], f[12])
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// procPeakRSS reads a live process's peak resident set (VmHWM).
func procPeakRSS(pid int) (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) < 1 {
			break
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			break
		}
		return kb << 10, nil
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// selfCPU is this process's user+system time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// selfPeakRSS is this process's peak resident set, in bytes.
func selfPeakRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss << 10 // Linux reports KiB
}
