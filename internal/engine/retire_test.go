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
	// lastAssign on the worker); what a worker holds is its one unsettled
	// attempt, none after Drain.
	for w, ref := range m.running {
		if ref != nil {
			t.Errorf("worker %d still holds attempt %d of task %d", w, ref.attempt, ref.task.id)
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
	s := &workerSession{w: &worker{}, conn: conn, id: 7}
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

// bareMaster is a master with no loop, listener or worker goroutines, over
// n volatile workers: a test calls launch, resendPending and handle itself
// and reads the assignments off the sessions' outboxes.
func bareMaster(n int) *master {
	cfg := DefaultConfig()
	cfg.VolatileWorkers, cfg.DedicatedWorkers = n, 0
	c := &Cluster{cfg: cfg, cleared: newClearedSet()}
	for i := 0; i < n; i++ {
		c.workers = append(c.workers, newWorker(i, false, nil, &c.retries, c.cleared))
	}
	return newMaster(c, nil)
}

// join opens worker w's next session as admit does, minus the connection.
func join(m *master, w int) *session {
	m.nextSession++
	s := &session{worker: w, id: m.nextSession, outbox: make(chan any, 128), done: make(chan struct{}), alive: true, lastBeat: time.Now()}
	m.sessions[w] = s
	return s
}

// held names what a worker record holds, for failure messages.
func held(ref *attemptRef) string {
	if ref == nil {
		return "nothing"
	}
	kind := "map"
	if ref.task.isReduce {
		kind = "reduce"
	}
	return fmt.Sprintf("%s %d attempt %d (session %d)", kind, ref.task.id, ref.attempt, ref.session)
}

// TestGivenUpAssignmentSettlesOnlyItself drives the per-worker record
// through an assignment the worker never acks: it is resent maxRetries
// times and then settled, so its task is offered again; the given-up
// attempt's late result decides its task but leaves the worker's newer
// attempt — another task of the same job, with the same attempt number —
// recorded; a result settles only the record of the worker whose session
// delivered it; and a dead session settles nothing recorded under a newer
// one.
func TestGivenUpAssignmentSettlesOnlyItself(t *testing.T) {
	m := bareMaster(2)
	s0, s1 := join(m, 0), join(m, 1)
	if resp := m.submit(tinyJob(0)); resp.err != nil {
		t.Fatal(resp.err)
	}
	j := m.jobsByID[0]
	m.launch(j, j.maps[0], 0)
	lost := m.running[0]
	due := func(ref *attemptRef) { ref.sentAt = ref.sentAt.Add(-time.Hour) }

	for i := 0; i < maxRetries; i++ {
		due(lost)
		m.resendPending()
		m.resendPending() // the next resend waits out its backoff
	}
	if lost.resends != maxRetries || len(s0.outbox) != 1+maxRetries {
		t.Fatalf("%d resends, %d sends, want %d and %d", lost.resends, len(s0.outbox), maxRetries, 1+maxRetries)
	}
	for len(s0.outbox) > 0 {
		if a, ok := (<-s0.outbox).(msgAssign); !ok || a.id != lost.msg.id || a.task.taskID != 0 || a.task.attempt != 0 {
			t.Fatalf("sent %+v, want assignment %d (map 0, attempt 0)", a, lost.msg.id)
		}
	}
	due(lost)
	m.resendPending()
	if m.running[0] != nil || len(s0.outbox) != 0 || j.maps[0].copies != 0 || j.attempts.Live != 0 {
		t.Fatalf("after the last retry: worker 0 holds %s, %d sends, %d copies, %d live", held(m.running[0]), len(s0.outbox), j.maps[0].copies, j.attempts.Live)
	}

	// Map 0 is offered again; worker 0 takes map 1's first attempt, whose
	// number is the given-up one's.
	m.offer(1)
	m.offer(0)
	retry, sibling := m.running[1], m.running[0]
	if retry == nil || retry.task != j.maps[0] || retry.attempt != 1 {
		t.Fatalf("worker 1 holds %s, want map 0 attempt 1", held(retry))
	}
	if sibling == nil || sibling.task != j.maps[1] || sibling.attempt != 0 {
		t.Fatalf("worker 0 holds %s, want map 1 attempt 0", held(sibling))
	}
	m.handleMsg(inMsg{sess: s1, m: msgAck{id: retry.msg.id}})
	due(retry)
	m.resendPending()
	if !retry.acked || len(s1.outbox) != 1 {
		t.Fatalf("acked %v, %d sends to worker 1, want the ack recorded and no resend", retry.acked, len(s1.outbox))
	}

	// A result names no worker: the session that delivers it does.
	deliver := func(s *session, id uint64, task int) {
		ev := workerEvent{kind: evMapDone, jobID: j.id, taskID: task, attempt: 0, holders: []int{s.worker}}
		m.handleMsg(inMsg{sess: s, m: msgEvent{id: id, session: s.id, ev: ev}})
	}
	deliver(s0, 1, 0)
	if !j.maps[0].done || j.mapsDone != 1 {
		t.Fatalf("the late result did not decide map 0 (done %v, %d maps done)", j.maps[0].done, j.mapsDone)
	}
	if m.running[0] != sibling || m.running[1] != retry || j.attempts.Live != 2 {
		t.Fatalf("the late result settled a newer attempt: workers hold %s and %s, %d live", held(m.running[0]), held(m.running[1]), j.attempts.Live)
	}
	deliver(s1, 1, 1) // worker 1's session reports the attempt worker 0 holds
	if !j.maps[1].done || m.running[0] != sibling || m.running[1] != retry {
		t.Fatalf("worker 1's result settled another worker's record: workers hold %s and %s", held(m.running[0]), held(m.running[1]))
	}

	deliver(s0, 2, 1)
	if m.running[0] != nil || j.attempts.Live != 1 {
		t.Fatalf("worker 0's own result left it holding %s, %d live", held(m.running[0]), j.attempts.Live)
	}
	stale, fresh := s0, join(m, 0)
	m.offer(0)
	reduce := m.running[0]
	if reduce == nil || reduce.task != j.reduces[0] || reduce.session != fresh.id {
		t.Fatalf("worker 0 holds %s, want reduce 0 under session %d", held(reduce), fresh.id)
	}
	m.forceRetire(stale)
	if m.running[0] != reduce {
		t.Fatal("a dead session settled the attempt of the worker's newer session")
	}
	m.forceRetire(fresh)
	if m.running[0] != nil || j.attempts.Live != 1 {
		t.Fatalf("the session's own attempt survived it: worker 0 holds %s, %d live", held(m.running[0]), j.attempts.Live)
	}
}
