package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one launched system-under-test process. It runs in its own
// process group so that stopping it also stops the shard workers a
// fan-out supervisor spawns.
type proc struct {
	cmd  *exec.Cmd
	done chan struct{} // closed once Wait returned
	err  error         // Wait's result, valid after done
	rss  *rssTracker
}

// procSet owns every process the benchmark starts; killAll stops and
// reaps whatever is still running on any exit path.
type procSet struct {
	mu    sync.Mutex
	procs []*proc
}

// launch starts bin with args; its stdout and stderr go to logPath.
func (s *procSet) launch(bin string, args []string, logPath string) (*proc, error) {
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = log
	cmd.Stderr = log
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	p := &proc{cmd: cmd, done: make(chan struct{}), rss: startRSS(cmd.Process.Pid)}
	go func() {
		p.err = cmd.Wait()
		log.Close()
		p.rss.stop()
		close(p.done)
	}()
	s.mu.Lock()
	s.procs = append(s.procs, p)
	s.mu.Unlock()
	return p, nil
}

// wait blocks until the process exits or the timeout passes; on timeout
// the process group is killed and reaped and an error returned.
func (p *proc) wait(timeout time.Duration) error {
	select {
	case <-p.done:
		return p.err
	case <-time.After(timeout):
		p.kill()
		return fmt.Errorf("%s did not finish within %v", filepath.Base(p.cmd.Path), timeout)
	}
}

// stop asks the process to shut down (SIGTERM), waits up to timeout and
// kills its whole group after that.
func (p *proc) stop(timeout time.Duration) error {
	select {
	case <-p.done:
		return p.err
	default:
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	return p.wait(timeout)
}

// kill stops the process group and waits until the process is reaped.
func (p *proc) kill() {
	syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
	<-p.done
}

func (s *procSet) killAll() {
	s.mu.Lock()
	procs := s.procs
	s.procs = nil
	s.mu.Unlock()
	for _, p := range procs {
		select {
		case <-p.done:
			// Reaped already; the group may still hold stray workers.
			syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
		default:
			p.kill()
		}
	}
}

// rssTracker samples the peak resident set (VmHWM) of a process and all
// its descendants every 20ms. Peak RSS of the tree is the sum of each
// process's own peak: a fan-out supervisor and its shard workers are
// alive together.
type rssTracker struct {
	root     int
	mu       sync.Mutex
	hwm      map[int]int64 // pid → highest VmHWM seen, kB
	quit     chan struct{}
	finished chan struct{}
	once     sync.Once
}

func startRSS(pid int) *rssTracker {
	t := &rssTracker{root: pid, hwm: map[int]int64{}, quit: make(chan struct{}), finished: make(chan struct{})}
	go func() {
		defer close(t.finished)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			t.sample()
			select {
			case <-t.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return t
}

func (t *rssTracker) sample() {
	for _, pid := range descendants(t.root) {
		kb, ok := vmHWM(pid)
		if !ok {
			continue
		}
		t.mu.Lock()
		if kb > t.hwm[pid] {
			t.hwm[pid] = kb
		}
		t.mu.Unlock()
	}
}

// stop ends the sampling and waits for the sampler to exit.
func (t *rssTracker) stop() {
	t.once.Do(func() { close(t.quit) })
	<-t.finished
}

// peakMB returns the summed per-process peaks seen so far.
func (t *rssTracker) peakMB() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum int64
	for _, kb := range t.hwm {
		sum += kb
	}
	return float64(sum) / 1024
}

// descendants lists pid and every live process below it.
func descendants(pid int) []int {
	out := []int{pid}
	for i := 0; i < len(out); i++ {
		tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/children", out[i]))
		for _, f := range tasks {
			b, err := os.ReadFile(f)
			if err != nil {
				continue
			}
			for _, field := range strings.Fields(string(b)) {
				if c, err := strconv.Atoi(field); err == nil {
					out = append(out, c)
				}
			}
		}
	}
	return out
}

// vmHWM reads a process's peak resident set size in kB.
func vmHWM(pid int) (int64, bool) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0, false
			}
			kb, err := strconv.ParseInt(f[0], 10, 64)
			return kb, err == nil
		}
	}
	return 0, false
}
