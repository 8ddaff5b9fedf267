package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// opResult is one subprocess op as its parent saw it.
type opResult struct {
	Wall     time.Duration
	CPU      time.Duration // child user+sys from rusage
	MaxRSSKB int64
	Err      error
}

// runOp runs one program to completion with stdout captured into out
// (reset first) and reports its wall time and rusage. The wall time
// spans fork/exec to reap, which is what a user of the CLI pays.
func runOp(out *bytes.Buffer, bin string, args ...string) opResult {
	out.Reset()
	var stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout = out
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	r := opResult{Wall: time.Since(start)}
	if ps := cmd.ProcessState; ps != nil {
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			r.CPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
			r.MaxRSSKB = ru.Maxrss
		}
	}
	if err != nil {
		r.Err = fmt.Errorf("%s %s: %v: %s", bin, strings.Join(args, " "), err, firstLine(stderr.String()))
	}
	return r
}

func firstLine(s string) string {
	s, _, _ = strings.Cut(strings.TrimSpace(s), "\n")
	return s
}

// daemon is a running entobenchd.
type daemon struct {
	cmd    *exec.Cmd
	addr   string // host:port it listens on
	stderr *lineSink
	exited chan error // receives Wait's result once
}

// startDaemon starts entobenchd on an ephemeral loopback port and waits
// for its readiness line. The daemon logs one stderr line per sweep
// request; that stream is drained continuously by a counting sink, so
// a full pipe can never stall a request.
func startDaemon(bin string, args ...string) (*daemon, error) {
	ready := &readyWatch{ready: make(chan string, 1)}
	d := &daemon{stderr: &lineSink{}, exited: make(chan error, 1)}
	d.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	d.cmd.Stdout = ready
	d.cmd.Stderr = d.stderr
	// If perfbench itself is killed, the daemon goes with it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { d.exited <- d.cmd.Wait() }()
	select {
	case d.addr = <-ready.ready:
		return d, nil
	case err := <-d.exited:
		return nil, fmt.Errorf("entobenchd exited before ready: %v: %s", err, firstLine(d.stderr.head()))
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return nil, errors.New("entobenchd not ready within 30s")
	}
}

// stop sends SIGTERM, waits for the graceful drain, and kills the
// daemon if it has not exited within 15 s. It returns once the process
// is reaped.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.exited:
		return err
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return errors.New("entobenchd did not stop within 15s; killed")
	}
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux ABI Go supports.
const clockTicks = 100

// cpuTime reads the daemon's cumulative user+sys CPU time.
func (d *daemon) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the full line, 12 and 13 after the name.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat: %v %v", err1, err2)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSSKB reads the daemon's high-water resident set size (VmHWM).
func (d *daemon) peakRSSKB() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// readyWatch is the daemon's stdout: it reports the address from the
// "entobenchd listening on http://ADDR" line and discards the rest.
type readyWatch struct {
	mu    sync.Mutex
	buf   []byte
	done  bool
	ready chan string
}

func (w *readyWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := string(w.buf[:i])
		w.buf = w.buf[i+1:]
		if _, addr, ok := strings.Cut(line, "listening on http://"); ok {
			w.done = true
			w.ready <- strings.TrimSpace(addr)
			return len(p), nil
		}
	}
}

// lineSink drains a stream, counting lines and keeping the first few KB
// for error messages.
type lineSink struct {
	mu    sync.Mutex
	lines int
	first []byte
}

func (s *lineSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lines += bytes.Count(p, []byte{'\n'})
	if room := 4096 - len(s.first); room > 0 {
		s.first = append(s.first, p[:min(room, len(p))]...)
	}
	return len(p), nil
}

func (s *lineSink) head() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return string(s.first)
}

func (s *lineSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lines
}

// syncFS commits pending file writes and deletes (sync(2)), so work
// left by set-up or by an earlier run does not land in a timed phase as
// journal and discard activity.
func syncFS() { syscall.Sync() }

// stealMeter measures the share of the machine's CPU time the
// hypervisor gave to other guests (the steal column of /proc/stat)
// over an interval. On a shared VM this is the main source of
// run-to-run spread, so every run reports it beside its metrics.
type stealMeter struct{ steal, total uint64 }

func readStealTicks() (m stealMeter) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return m
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		m.total += v
		if i == 8 {
			m.steal = v
		}
	}
	return m
}

// since returns the steal share, in percent, since m was read.
func (m stealMeter) since() float64 {
	now := readStealTicks()
	if now.total <= m.total {
		return 0
	}
	return 100 * float64(now.steal-m.steal) / float64(now.total-m.total)
}
