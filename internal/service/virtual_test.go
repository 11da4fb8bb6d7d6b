//go:build goexperiment.synctest

package service

import (
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
