//go:build goexperiment.synctest

package service

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"sync"
	"testing"
	"testing/synctest"
	"time"
)

// virtual runs f in a synctest bubble: every goroutine f starts is in it,
// and time.Now, timers and tickers read a clock that advances only when
// they are all blocked, so an idle hour takes as long as the heartbeats in
// it do. Go 1.25's synctest.Test replaces synctest.Run here.
func virtual(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	synctest.Run(func() { f(t) })
}

// TestVirtualIdleDaemonHoldsItsHeap: a daemon idle for ten minutes between
// two small jobs holds the heap it held after one. Each series stores only
// the buckets written; when it kept one per bucket width since t = 0, the
// job after the idle stretch grew every written series by 600 1 s buckets,
// and the heap by 77 kB. The server is driven through ServeHTTP, not a
// socket, whose I/O would not block the bubble durably.
func TestVirtualIdleDaemonHoldsItsHeap(t *testing.T) {
	virtual(t, func(t *testing.T) {
		s, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		// The live heap after a job, once every goroutine is blocked.
		idleThenJob := func(idle time.Duration) uint64 {
			time.Sleep(idle)
			runToDone(t, s, 1, tinyJob)
			synctest.Wait()
			live, _ := settledHeap()
			return live
		}
		runToDone(t, s, 1, tinyJob)
		oneMinute := idleThenJob(time.Minute)
		elevenMinutes := idleThenJob(10 * time.Minute)
		grew := int64(elevenMinutes) - int64(oneMinute)
		t.Logf("heap after the job at 1 idle minute %d B, at 11: %d B (%+d B)", oneMinute, elevenMinutes, grew)
		if grew >= 8<<10 {
			t.Errorf("ten idle minutes grew the heap by %d B, budget 8 kB", grew)
		}
	})
}

// TestVirtualStalledBodyTimesOut: a client that sends a submission's headers
// and half its body, then stalls, is answered 400 once bodyReadTimeout has
// passed, on both submit routes, and the registry takes no submission.
// Without the deadline the handler waits on the body for as long as the
// connection lives. The Server sits behind a real http.Server on in-memory
// net.Pipe connections, so the deadline elapses on the bubble's clock.
func TestVirtualStalledBodyTimesOut(t *testing.T) {
	virtual(t, func(t *testing.T) {
		s, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		ln := newPipeListener()
		hs := &http.Server{Handler: s}
		go hs.Serve(ln)
		defer hs.Close()
		for _, path := range []string{"/v1/jobs", "/v1/scenarios"} {
			conn := ln.dial()
			fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: moon\r\nContent-Length: %d\r\n\r\n%s",
				path, len(tinyJob), tinyJob[:len(tinyJob)/2])
			start := time.Now()
			conn.SetReadDeadline(start.Add(bodyReadTimeout + time.Minute))
			resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
			if err != nil {
				t.Fatalf("%s: no answer to a stalled body: %v", path, err)
			}
			resp.Body.Close()
			conn.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s: stalled body answered %d, want 400", path, resp.StatusCode)
			}
			if waited := time.Since(start); waited != bodyReadTimeout {
				t.Errorf("%s: answered after %v, want the %v body deadline", path, waited, bodyReadTimeout)
			}
		}
		if n := s.reg.count(); n != 0 {
			t.Errorf("registry holds %d submissions after two stalled bodies, want 0", n)
		}
	})
}

// pipeListener hands an http.Server the server ends of net.Pipe
// connections that dial opens.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

// dial returns the client end of a new connection the server accepts.
func (l *pipeListener) dial() net.Conn {
	client, server := net.Pipe()
	l.conns <- server
	return client
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }
