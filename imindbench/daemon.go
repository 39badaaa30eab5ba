package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one imind child process. It runs in its own process group so
// that stop reaches everything it started, and it is registered in live so
// that the benchmark's signal handler can kill it on an interrupted exit.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	dir  string // private data and state directory, removed by stop

	mu     sync.Mutex
	stderr bytes.Buffer // tail of the daemon's log, for error reports

	stopOnce sync.Once
	drained  chan struct{} // closed when the stderr reader has finished
}

var live struct {
	sync.Mutex
	ds map[*daemon]bool
}

// killAll stops every daemon still running; the signal handler's exit path.
func killAll() {
	live.Lock()
	ds := make([]*daemon, 0, len(live.ds))
	for d := range live.ds {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// freePort asks the kernel for an unused loopback port and then makes sure
// nothing answers on it: a daemon leaked by an earlier run must never be
// mistaken for the one this run starts.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("pick a port: %w", err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	if err := l.Close(); err != nil {
		return 0, fmt.Errorf("release port %d: %w", port, err)
	}
	if c, err := net.DialTimeout("tcp", fmt.Sprintf("127.0.0.1:%d", port), time.Second); err == nil {
		c.Close()
		return 0, fmt.Errorf("port %d is already bound", port)
	}
	return port, nil
}

// startDaemon execs imind on a fresh port with a fresh data directory
// under workDir, holding graphFile under -data, and returns once the
// daemon has logged that it is listening. Tracing is off (-trace-ring -1).
func startDaemon(bin, workDir, graphFile string, durable bool) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "daemon-")
	if err != nil {
		return nil, err
	}
	data := dir + "/data"
	if err := os.Mkdir(data, 0o755); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if err := os.Link(graphFile, data+"/serve.bin"); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("stage graph file: %w", err)
	}
	d := &daemon{addr: fmt.Sprintf("127.0.0.1:%d", port), dir: dir, drained: make(chan struct{})}
	args := []string{"-addr", d.addr, "-data", data, "-trace-ring", "-1", "-log-level", "info"}
	if durable {
		args = append(args, "-data-dir", dir+"/state")
	}
	d.cmd = exec.Command(bin, args...)
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	pipe, err := d.cmd.StderrPipe()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	live.Lock()
	if live.ds == nil {
		live.ds = make(map[*daemon]bool)
	}
	live.ds[d] = true
	live.Unlock()

	// The daemon logs "imind listening" just before it binds; the client
	// retries a refused connection from there, so set-up never sleeps.
	ready := make(chan struct{})
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(pipe)
		signaled := false
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			if d.stderr.Len() > 8<<10 {
				d.stderr.Reset()
			}
			d.stderr.WriteString(line + "\n")
			d.mu.Unlock()
			if !signaled && strings.Contains(line, "imind listening") {
				signaled = true
				close(ready)
			}
		}
		if !signaled {
			close(ready)
		}
		io.Copy(io.Discard, pipe)
	}()
	select {
	case <-ready:
	case <-time.After(60 * time.Second):
	}
	select {
	case <-d.drained:
		err := fmt.Errorf("imind exited during start-up: %s", d.log())
		d.stop()
		return nil, err
	default:
	}
	return d, nil
}

// log returns the tail of the daemon's standard error.
func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.TrimSpace(d.stderr.String())
}

// stop kills the daemon's process group, waits for it to exit and removes
// its directory. Safe to call more than once and from any goroutine.
func (d *daemon) stop() {
	d.stopOnce.Do(func() {
		if d.cmd.Process != nil {
			syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL)
			<-d.drained // Wait closes the pipe, so the reader must finish first
			d.cmd.Wait()
		}
		os.RemoveAll(d.dir)
		live.Lock()
		delete(live.ds, d)
		live.Unlock()
	})
}

// cpuTicks returns the daemon's user+system CPU time in clock ticks
// (1/100 s) from /proc/<pid>/stat, counting exited threads too.
func (d *daemon) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after its ')'.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	// After ')': state is field 3 of the full line, utime 14, stime 15.
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return ut + st, nil
}

// peakRSSMB returns the daemon's peak resident set (VmHWM) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
