package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"sync"
	"syscall"
	"time"
)

// child is one program process the runner started. Every child leads its
// own process group, so killing the group takes anything it forked with it,
// and a goroutine waits for it from the moment it starts, so kill-then-wait
// works on every path out without knowing who else was waiting.
type child struct {
	cmd   *exec.Cmd
	start time.Time
	done  chan struct{}
	err   error
	wall  time.Duration
	// polite marks a child with children of its own (a nested run): an
	// abort asks it to stop with SIGTERM, so that it can stop them, and
	// kills its group only if it does not.
	polite bool
}

// kill sends SIGKILL to the child's whole process group. It is a no-op
// once the child has been reaped (its pid may belong to someone else).
func (c *child) kill() {
	select {
	case <-c.done:
	default:
		_ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL)
	}
}

// rusage is the ended child's resource usage: peak RSS in kB and CPU time.
func (c *child) rusage() (maxRSSKB int64, cpu time.Duration) {
	<-c.done
	if c.cmd.ProcessState == nil {
		return 0, 0
	}
	ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, 0
	}
	return ru.Maxrss, c.cmd.ProcessState.UserTime() + c.cmd.ProcessState.SystemTime()
}

var errAborting = errors.New("runner is aborting; no new children")

// procTable is every child still running. Nothing is started once abort
// has begun, so killAll leaves no process behind.
type procTable struct {
	mu       sync.Mutex
	live     []*child
	aborting bool
}

// start launches cmd in a new process group and begins waiting for it.
func (p *procTable) start(cmd *exec.Cmd) (*child, error) { return p.launch(cmd, false) }

// startNested is start for a child that runs children of its own.
func (p *procTable) startNested(cmd *exec.Cmd) (*child, error) { return p.launch(cmd, true) }

func (p *procTable) launch(cmd *exec.Cmd, polite bool) (*child, error) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.aborting {
		return nil, errAborting
	}
	c := &child{cmd: cmd, start: time.Now(), done: make(chan struct{}), polite: polite}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", cmd.Path, err)
	}
	p.live = append(p.live, c)
	go func() {
		c.err = cmd.Wait()
		c.wall = time.Since(c.start)
		p.mu.Lock()
		p.live = slices.DeleteFunc(p.live, func(o *child) bool { return o == c })
		p.mu.Unlock()
		close(c.done)
	}()
	return c, nil
}

// waitTimeout waits for c, killing its group when it outlives d.
func (p *procTable) waitTimeout(c *child, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-c.done:
		return c.err
	case <-t.C:
		c.kill()
		<-c.done
		return fmt.Errorf("%s: killed after %s", c.cmd.Path, d)
	}
}

// killAll refuses further starts, kills every live child's group and waits
// until each has ended.
func (p *procTable) killAll() {
	p.mu.Lock()
	p.aborting = true
	cs := slices.Clone(p.live)
	p.mu.Unlock()
	for _, c := range cs {
		if c.polite {
			_ = c.cmd.Process.Signal(syscall.SIGTERM)
		} else {
			c.kill()
		}
	}
	for _, c := range cs {
		_ = p.waitTimeout(c, 10*time.Second)
	}
}

// stopGracefully sends SIGTERM to the child itself, gives it d to end, then
// kills the group.
func (p *procTable) stopGracefully(c *child, d time.Duration) {
	select {
	case <-c.done:
		return
	default:
		_ = c.cmd.Process.Signal(syscall.SIGTERM)
	}
	_ = p.waitTimeout(c, d)
}

// selfCPU is the runner's own user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// vmRSSKB reads a live process's resident set from /proc (0 if unreadable).
func vmRSSKB(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	var kb float64
	for _, line := range splitLines(string(data)) {
		if n, _ := fmt.Sscanf(line, "VmRSS: %f kB", &kb); n == 1 {
			return kb
		}
	}
	return 0
}
