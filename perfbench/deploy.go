package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The deployment one run measures is a single ascendd, started fresh
// from the binary built for the commit under test on a free loopback
// port, and stopped (SIGTERM, then SIGKILL) and waited for on every exit
// path. It runs with none of the ASCENDPERF_* variables in its
// environment: no disk cache, no episode store, default workers.

// readyTimeout bounds how long the daemon may take to come up.
const readyTimeout = 30 * time.Second

// proc is one spawned server process.
type proc struct {
	name   string
	cmd    *exec.Cmd
	url    string
	exited chan struct{} // closed once Wait returned
	stderr *tailBuffer
}

// tailBuffer keeps the last few KiB a process wrote, for failure
// reports.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 4096 {
		t.buf = t.buf[len(t.buf)-4096:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// cleanEnv is this process's environment without the ASCENDPERF_*
// variables, which would give the daemon a disk cache, an episode store
// or another worker count.
func cleanEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "ASCENDPERF_") {
			env = append(env, kv)
		}
	}
	return env
}

// startProc launches bin with args and waits for its "listening on
// http://..." line.
func startProc(name, bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = cleanEnv()
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	p := &proc{name: name, cmd: cmd, exited: make(chan struct{}), stderr: &tailBuffer{}}
	cmd.Stderr = p.stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	urls := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on http://"); i >= 0 && !sent {
				f := strings.Fields(line[i+len("listening on "):])
				urls <- f[0]
				sent = true
			}
		}
		// Drained to EOF: the process closed stdout, so Wait may run.
		cmd.Wait()
		close(p.exited)
	}()
	select {
	case p.url = <-urls:
		return p, nil
	case <-p.exited:
		return nil, fmt.Errorf("%s exited before listening: %s", name, p.stderr.String())
	case <-time.After(readyTimeout):
		p.stop()
		return nil, fmt.Errorf("%s did not print its listening address within %v", name, readyTimeout)
	}
}

// stop asks the process to drain and exit, kills it after a grace
// period, and waits until it has ended.
func (p *proc) stop() {
	select {
	case <-p.exited:
		return
	default:
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-p.exited
	}
}

// alive reports whether the process is still running.
func (p *proc) alive() bool {
	select {
	case <-p.exited:
		return false
	default:
		return true
	}
}

// startDaemon starts ascendd with every flag but the surrogate at its
// default and waits until /readyz answers 200. On failure the process
// is stopped.
func startDaemon(cfg *config) (*proc, error) {
	p, err := startProc("ascendd", filepath.Join(cfg.binDir, "ascendd"), "-addr", "127.0.0.1:0", "-surrogate", cfg.surrogatePath)
	if err != nil {
		return nil, err
	}
	if err := waitReady(p, time.Now().Add(readyTimeout)); err != nil {
		p.stop()
		return nil, err
	}
	return p, nil
}

// waitReady polls /readyz until it answers 200.
func waitReady(p *proc, deadline time.Time) error {
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(p.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if !p.alive() {
			return fmt.Errorf("%s exited before becoming ready: %s", p.name, p.stderr.String())
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready within %v (last error: %v)", p.name, readyTimeout, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// checkAlive fails when the process has exited.
func (p *proc) checkAlive() error {
	if !p.alive() {
		return fmt.Errorf("%s exited during the run: %s", p.name, p.stderr.String())
	}
	return nil
}

// procSample is what /proc reports about the daemon.
type procSample struct {
	hwmKiB   int64 // VmHWM
	cpuTicks int64 // utime + stime, in clock ticks
}

// clockTicks is USER_HZ, 100 on every Linux this runs on.
const clockTicks = 100

// sample reads the process's VmHWM and CPU time.
func (p *proc) sample() (procSample, error) {
	var s procSample
	pid := p.cmd.Process.Pid
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return s, fmt.Errorf("read %s status: %w", p.name, err)
	}
	hwm, ok := statusField(status, "VmHWM:")
	if !ok {
		return s, fmt.Errorf("%s: no VmHWM in /proc status", p.name)
	}
	s.hwmKiB = hwm
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return s, fmt.Errorf("read %s stat: %w", p.name, err)
	}
	// Fields after the parenthesised command name: utime and stime are
	// fields 14 and 15 of the whole line.
	rest := stat[bytes.LastIndexByte(stat, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return s, fmt.Errorf("%s: short /proc stat", p.name)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return s, fmt.Errorf("%s: parse /proc stat: %w", p.name, err)
	}
	s.cpuTicks = ut + st
	return s, nil
}

// statusField returns the first integer of a /proc/<pid>/status field.
func statusField(status []byte, field string) (int64, bool) {
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0, false
			}
			v, err := strconv.ParseInt(f[0], 10, 64)
			return v, err == nil
		}
	}
	return 0, false
}

// gomaxprocs reports a process's GOMAXPROCS: the GOMAXPROCS environment
// value when set, otherwise the Go runtime default, the number of CPUs
// in the process's affinity mask.
func (p *proc) gomaxprocs() string {
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		return v
	}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "Cpus_allowed_list:"); ok {
			return strconv.Itoa(countCPUList(strings.TrimSpace(rest)))
		}
	}
	return "unknown"
}

// countCPUList counts the CPUs of a list like "0-3,6".
func countCPUList(s string) int {
	n := 0
	for _, part := range strings.Split(s, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.Atoi(lo)
		if err != nil {
			continue
		}
		b := a
		if isRange {
			if b, err = strconv.Atoi(hi); err != nil {
				continue
			}
		}
		n += b - a + 1
	}
	return n
}

// getJSON fetches a JSON document from the deployment.
func getJSON(url string, v any) error {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
