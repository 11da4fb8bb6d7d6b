package engine

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
)

// tinyJob is the smallest real job: 2 splits × 3 words, 2 reduces.
func tinyJob(i int) Job {
	job, _ := wordCountJob(2, 3, 2)
	job.Name = fmt.Sprintf("tiny-%d", i)
	return job
}

// TestFinishedJobsLeaveTheMaster is the structural half of "cost per job is
// a property of the job": after N sequential jobs and Drain, everything the
// master, its sessions and the workers hold is at or under a constant that
// does not mention N. (The time half — µs per job flat over 20 000 jobs of
// history — is BenchmarkTinyJobStream's to report.)
func TestFinishedJobsLeaveTheMaster(t *testing.T) {
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	const jobs = 300
	for i := 0; i < jobs; i++ {
		if _, _, err := c.Run(ctx, tinyJob(i)); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if err := c.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	c.Close()

	m := c.master
	if m.retired != jobs {
		t.Errorf("%d jobs retired balanced, want %d", m.retired, jobs)
	}
	if n := m.queue.Len(); n != 0 {
		t.Errorf("queue holds %d jobs", n)
	}
	if n := len(m.jobsByID); n != 0 {
		t.Errorf("jobsByID holds %d jobs", n)
	}
	if c.cleared.floor != jobs || len(c.cleared.above) != 0 {
		t.Errorf("cleared set: floor %d with %d ids above it, want %d and none", c.cleared.floor, len(c.cleared.above), jobs)
	}
	for _, w := range c.workers {
		if n := len(w.store); n != 0 {
			t.Errorf("worker %d stores %d partitions", w.id, n)
		}
	}
	// Both dedup states are one integer a session (lastEvent here,
	// lastAssign on the worker); what a session awaits acks for is the
	// assignments in flight, none after Drain.
	for w, s := range m.sessions {
		if n := len(s.pending); n != 0 {
			t.Errorf("worker %d's session awaits %d acks", w, n)
		}
	}
}

// TestClearedSetIsALowWaterMark: has answers as a set of every id ever
// marked would, while holding only the ids above the lowest job not yet
// cleared — concurrent jobs clear out of order, a daemon's ids never end.
func TestClearedSetIsALowWaterMark(t *testing.T) {
	s := newClearedSet()
	marked := map[int]bool{}
	for _, job := range []int{1, 2, 0, 5, 4, 3, 7} {
		s.mark(job)
		marked[job] = true
		for id := 0; id < 10; id++ {
			if s.has(id) != marked[id] {
				t.Fatalf("after mark(%d): has(%d) = %v", job, id, s.has(id))
			}
		}
	}
	if s.floor != 6 || len(s.above) != 1 {
		t.Errorf("floor %d with %d ids above it, want 6 and 1 (job 6 is still live)", s.floor, len(s.above))
	}
}

// TestAssignmentDedupIsAHighWaterMark: the worker queues an assignment once
// however often it arrives, and ignores a late copy of one the master has
// since moved past — with one integer of state, not an id per message.
func TestAssignmentDedupIsAHighWaterMark(t *testing.T) {
	tr := transport.NewLoopback()
	lis, err := tr.Listen("m")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	conn, err := tr.Dial("w", "m", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	master, err := lis.Accept(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	s := &workerSession{w: &worker{link: DefaultConfig().link()}, conn: conn, id: 7}
	arrivals := []uint64{1, 1, 2, 3, 2, 3, 3, 5, 4, 5, 6} // 4 was given up on before 5 was issued
	for _, id := range arrivals {
		if !s.handleMsg(msgAssign{id: id, session: 7}) {
			t.Fatalf("assignment %d ended the session", id)
		}
	}
	s.handleMsg(msgAssign{id: 9, session: 6}) // another epoch's: not even acked
	var queued []uint64
	for _, a := range s.queue {
		queued = append(queued, a.id)
	}
	if want := []uint64{1, 2, 3, 5, 6}; !slices.Equal(queued, want) {
		t.Errorf("queued %v, want %v", queued, want)
	}
	// Every arrival of this session is acked, duplicates included: the
	// earlier ack may be the message that was lost.
	for _, id := range arrivals {
		if m, err := master.Recv(0); err != nil || m != (msgAck{id: id}) {
			t.Fatalf("ack for %d: %v, %v", id, m, err)
		}
	}
	if m, err := master.Recv(0); err == nil {
		t.Errorf("a stale epoch's assignment was answered with %v", m)
	}
}

// TestSuspendedWorkerBlocksAtItsNextEmission holds the gate's contract now
// that its open case takes no lock: a worker suspended mid-map stops at the
// next emission, and resumes from there when reopened.
func TestSuspendedWorkerBlocksAtItsNextEmission(t *testing.T) {
	cfg := DefaultConfig()
	cfg.VolatileWorkers, cfg.DedicatedWorkers = 1, 0
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	first, suspended := make(chan struct{}), make(chan struct{})
	var once sync.Once // the master may run the map again; first closes once
	var second atomic.Bool
	job := Job{
		Name: "gated", Inputs: []string{"x"}, Reduces: 1,
		Map: func(_ string, emit func(k, v string)) {
			emit("a", "1")
			once.Do(func() { close(first) })
			<-suspended
			emit("b", "1") // the checkpoint
			second.Store(true)
		},
		Reduce: func(_ string, vs []string) string { return fmt.Sprint(len(vs)) },
	}
	h, err := c.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	<-first
	if err := c.Suspend(0); err != nil {
		t.Fatal(err)
	}
	close(suspended)
	time.Sleep(30 * time.Millisecond)
	if second.Load() {
		t.Fatal("the map emitted through a closed gate")
	}
	if err := c.Resume(0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, _, err := h.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Load() || got["a"] != "1" || got["b"] != "1" {
		t.Errorf("after resume: second emission %v, results %v", second.Load(), got)
	}
}

// BenchmarkTinyJobStream runs b.N tiny jobs one after another on one
// cluster and reports the µs per job of the first and of the last tenth:
// equal when the master's time per job does not depend on the jobs it has
// already run. `-benchtime 20000x` is the README's history table.
func BenchmarkTinyJobStream(b *testing.B) {
	c, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	tenth := max(1, b.N/10)
	var first, last time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, _, err := c.Run(ctx, tinyJob(i)); err != nil {
			b.Fatal(err)
		}
		switch d := time.Since(start); {
		case i < tenth:
			first += d
		case i >= b.N-tenth:
			last += d
		}
	}
	b.ReportMetric(float64(first.Microseconds())/float64(tenth), "first-tenth-us/job")
	if b.N >= 2*tenth {
		b.ReportMetric(float64(last.Microseconds())/float64(tenth), "last-tenth-us/job")
	}
}
