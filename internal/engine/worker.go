package engine

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// gate is a suspend/resume barrier. Open = the worker runs; closed = every
// checkpoint blocks until reopened. closed is only written under mu, which
// is what the blocking path's cond needs; it is atomic so that the open
// case — every emission of every map — is one load and no lock.
type gate struct {
	mu     sync.Mutex
	cond   *sync.Cond
	closed atomic.Bool
}

func newGate() *gate {
	g := &gate{}
	g.cond = sync.NewCond(&g.mu)
	return g
}

func (g *gate) close() {
	g.mu.Lock()
	g.closed.Store(true)
	g.mu.Unlock()
}

func (g *gate) open() {
	g.mu.Lock()
	g.closed.Store(false)
	g.mu.Unlock()
	g.cond.Broadcast()
}

// wait blocks while the gate is closed (a suspension checkpoint).
func (g *gate) wait() {
	if !g.closed.Load() {
		return
	}
	g.mu.Lock()
	for g.closed.Load() {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

// clearedSet records jobs whose intermediate data has been released, so a
// stale attempt that outlived its session (or sat undelivered through a
// suspension) cannot repopulate a cleared store after the fact. Job ids
// are handed out in order and jobs clear roughly in order, so the record is
// a low-water mark and the few cleared ids above it: bounded by the jobs
// live at once, not by the jobs ever run.
type clearedSet struct {
	mu    sync.Mutex
	floor int          // every job id below floor is cleared
	above map[int]bool // cleared ids at or above floor
}

func newClearedSet() *clearedSet { return &clearedSet{above: make(map[int]bool)} }

func (s *clearedSet) mark(job int) {
	s.mu.Lock()
	s.above[job] = true
	for s.above[s.floor] {
		delete(s.above, s.floor)
		s.floor++
	}
	s.mu.Unlock()
}

func (s *clearedSet) has(job int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return job < s.floor || s.above[job]
}

// worker is one goroutine executing assigned tasks. All its traffic —
// joining the master, heartbeats, assignments, results, intermediate-data
// fetches — crosses the cluster transport, and everything passes through
// the gate so a suspended worker is completely silent. Two deliberate
// exceptions stay off the fabric because they model node-local disk, not
// the network: the hybrid replication write into a dedicated peer's store,
// and the master's end-of-job store sweep.
type worker struct {
	id        int
	dedicated bool
	tr        transport.Transport
	gate      *gate

	// peers indexes every worker in the cluster (read-only after New);
	// the hybrid replication path writes a dedicated peer's store directly.
	peers []*worker

	// fetchLis serves this worker's intermediate data at WorkerAddr(id).
	fetchLis transport.Listener

	// retries counts this worker's protocol retries into the cluster-wide
	// total (transferred to the metrics collector at shutdown).
	retries *atomic.Int64

	// cleared guards putPartition against writes for already-swept jobs.
	cleared *clearedSet

	// store holds map outputs: (job, mapID, attempt, partition) → the
	// grouped run — job-scoped so concurrent jobs never collide. Guarded
	// by storeMu: peers write replicas and the master sweeps finished jobs
	// from other goroutines. A replica and a fetch reply share its slices.
	storeMu sync.Mutex
	store   map[storeKey]partition
}

type storeKey struct {
	job, mapID, attempt, partition int
}

func newWorker(id int, dedicated bool, tr transport.Transport, retries *atomic.Int64, cleared *clearedSet) *worker {
	return &worker{
		id:        id,
		dedicated: dedicated,
		tr:        tr,
		gate:      newGate(),
		retries:   retries,
		cleared:   cleared,
		store:     make(map[storeKey]partition),
	}
}

// run is the worker's main loop: join the master, serve one session until
// it dies, reconnect under a fresh session. A companion goroutine serves
// intermediate-data fetches so a worker busy computing still serves data
// (as a TaskTracker's HTTP server does). Both loops are gated by
// suspension.
func (w *worker) run(closed chan struct{}) {
	go w.serveFetches(closed)
	scratch := newGrouper()
	backoff := retryBackoff
	for {
		if isClosed(closed) {
			return
		}
		w.gate.wait()
		conn, sess, ok := w.connect(closed, &backoff)
		if !ok {
			continue
		}
		backoff = retryBackoff
		s := &workerSession{
			w:       w,
			conn:    conn,
			id:      sess,
			closed:  closed,
			scratch: scratch,
		}
		s.loop()
		conn.Close()
	}
}

// connect performs one join handshake: dial, hello, welcome. On any
// failure it backs off (doubling, capped) so a partitioned worker does not
// spin; the backoff resets once a session is established.
func (w *worker) connect(closed chan struct{}, backoff *time.Duration) (transport.Conn, uint64, bool) {
	conn, err := w.tr.Dial(WorkerAddr(w.id), masterAddr, connectTimeout)
	if err == nil {
		if err = conn.Send(msgHello{worker: w.id}, sendTimeout); err == nil {
			var m any
			if m, err = conn.Recv(recvTimeout); err == nil {
				if wel, ok := m.(msgWelcome); ok {
					return conn, wel.session, true
				}
				err = errors.New("engine: unexpected handshake reply")
			}
		}
		conn.Close()
	}
	w.retries.Add(1)
	sleepOrClosed(closed, *backoff)
	if *backoff < time.Second {
		*backoff *= 2
	}
	return nil, 0, false
}

// workerSession is one epoch of a worker's attachment to the master: its
// connection, the session id every message carries, and the dedup state
// that makes resent or fault-duplicated assignments apply once.
type workerSession struct {
	w       *worker
	conn    transport.Conn
	id      uint64
	closed  chan struct{}
	scratch *grouper // the executing goroutine's, lent to each attempt

	// lastAssign is the highest assignment id queued, and the whole dedup
	// state: the master assigns to a worker only once its previous attempt
	// is settled (idleWorkers), so a lower id is a resend, a fault-injected
	// duplicate or a late copy of an assignment the master gave up on.
	lastAssign  uint64
	queue       []msgAssign // accepted, not yet executed
	nextEventID uint64
}

// loop serves the session: execute queued assignments, heartbeat on
// schedule, receive in between. Heartbeats pause while a task executes —
// exactly like the pre-transport engine, where a busy worker's loop could
// not beat — so a long task still looks frozen to the master and draws
// backups. Any fatal connection error ends the session; the caller
// reconnects under a new one.
func (s *workerSession) loop() {
	w := s.w
	nextBeat := time.Now()
	for {
		if isClosed(s.closed) {
			return
		}
		w.gate.wait()
		if len(s.queue) > 0 {
			a := s.queue[0]
			s.queue = s.queue[1:]
			if !s.execute(a) {
				return
			}
			continue
		}
		now := time.Now()
		if !now.Before(nextBeat) {
			err := s.conn.Send(msgHeartbeat{session: s.id}, sendTimeout)
			if err != nil && !errors.Is(err, transport.ErrTimeout) {
				return // reset or closed: redial
			}
			nextBeat = now.Add(heartbeatInterval)
		}
		m, err := s.conn.Recv(time.Until(nextBeat))
		if err != nil {
			if errors.Is(err, transport.ErrTimeout) {
				continue
			}
			return
		}
		if !s.handleMsg(m) {
			return
		}
	}
}

// handleMsg integrates one inbound message; false means the session must
// end. Assignments are acked immediately (even duplicates — the earlier
// ack may have been lost) and executed in arrival order.
func (s *workerSession) handleMsg(m any) bool {
	switch msg := m.(type) {
	case msgAssign:
		if msg.session != s.id {
			return true // stale epoch; ignore
		}
		if msg.id > s.lastAssign {
			s.lastAssign = msg.id
			s.queue = append(s.queue, msg)
		}
		err := s.conn.Send(msgAck{id: msg.id}, sendTimeout)
		if err != nil && !errors.Is(err, transport.ErrTimeout) {
			return false
		}
	case msgExpired:
		return false // evicted: rejoin under a fresh session
	case msgAck:
		// A late duplicate ack for an already-confirmed event; ignore.
	}
	return true
}

// execute runs one assignment and reliably reports its result.
func (s *workerSession) execute(a msgAssign) bool {
	var ev workerEvent
	if a.task.isReduce {
		ev = s.w.runReduce(a.task, s.scratch)
	} else {
		ev = s.w.runMap(a.task, s.scratch)
	}
	return s.sendEvent(ev)
}

// sendEvent delivers one result event with bounded retries: send, await
// the master's ack, back off and resend on silence. Assignments arriving
// during the ack wait are queued through handleMsg, so a busy link never
// deadlocks the dialogue. Exhausting the retries ends the session — the
// result is abandoned (the master force-retires the attempt) rather than
// committed twice.
func (s *workerSession) sendEvent(ev workerEvent) bool {
	w := s.w
	s.nextEventID++
	msg := msgEvent{id: s.nextEventID, session: s.id, ev: ev}
	backoff := retryBackoff
	for try := 0; ; try++ {
		if isClosed(s.closed) {
			return false
		}
		w.gate.wait()
		err := s.conn.Send(msg, sendTimeout)
		if err != nil && !errors.Is(err, transport.ErrTimeout) {
			return false
		}
		if err == nil {
			deadline := time.Now().Add(recvTimeout)
			for {
				m, rerr := s.conn.Recv(time.Until(deadline))
				if rerr != nil {
					if errors.Is(rerr, transport.ErrTimeout) {
						break // no ack in time: resend
					}
					return false
				}
				if ack, ok := m.(msgAck); ok && ack.id == msg.id {
					return true
				}
				if !s.handleMsg(m) {
					return false
				}
			}
		}
		if try >= maxRetries {
			return false
		}
		w.retries.Add(1)
		sleepOrClosed(s.closed, backoff)
		if backoff < time.Second {
			backoff *= 2
		}
	}
}

// runMap executes one map attempt: record the emissions, lay them out one
// partition per reduce (combined, if the job has a combiner), store those
// locally (plus the hybrid dedicated replica), report the holders.
func (w *worker) runMap(a assignment, g *grouper) workerEvent {
	defer g.reset()
	a.mapFn(a.input, func(key, value string) {
		w.gate.wait() // suspension checkpoint at emission granularity
		g.emit(key, value, a.reduces)
	})
	w.gate.wait()
	var replica *worker
	if a.replicateTo >= 0 && a.replicateTo != w.id {
		replica = w.peers[a.replicateTo]
	}
	for p, data := range g.split(a.reduces, a.combineFn) {
		w.putPartition(a.jobID, a.taskID, a.attempt, p, data)
		if replica != nil {
			replica.putPartition(a.jobID, a.taskID, a.attempt, p, data)
		}
	}
	holders := []int{w.id}
	if replica != nil {
		holders = append(holders, replica.id)
	}
	return workerEvent{kind: evMapDone, jobID: a.jobID, taskID: a.taskID, attempt: a.attempt, holders: holders}
}

// runReduce executes one reduce attempt: shuffle every source partition
// from its holders (local store first, then fetches over the transport),
// merge, reduce in sorted key order. Unreachable map outputs produce a
// reduceStuck event listing them.
func (w *worker) runReduce(a assignment, g *grouper) workerEvent {
	srcs := make([]partition, 0, len(a.sources))
	var missing []int
	for _, src := range a.sources {
		w.gate.wait()
		var data partition
		got := false
		for _, h := range src.holders {
			if h == w.id {
				w.storeMu.Lock()
				data, got = w.store[storeKey{a.jobID, src.mapID, src.attempt, a.taskID}]
				w.storeMu.Unlock()
			} else {
				data, got = w.fetch(h, a.jobID, src.mapID, src.attempt, a.taskID)
			}
			if got {
				break
			}
		}
		if !got {
			missing = append(missing, src.mapID)
			continue
		}
		srcs = append(srcs, data)
	}
	if len(missing) > 0 {
		return workerEvent{kind: evReduceStuck, jobID: a.jobID, taskID: a.taskID, attempt: a.attempt, missing: missing}
	}
	defer g.reset()
	merged := g.merge(srcs)
	out := make(map[string]string, len(merged.keys))
	for _, k := range slices.Sorted(slices.Values(merged.keys)) {
		w.gate.wait()
		out[k] = a.reduceFn(k, merged.values(g.ids[k]))
	}
	return workerEvent{kind: evReduceDone, jobID: a.jobID, taskID: a.taskID, attempt: a.attempt, output: out}
}

// fetch requests one map output partition from a holder over the
// transport. Any failure — dial, partition-swallowed request, timed-out
// reply — reads as a miss; the caller falls through to the next holder or
// reports the map unreachable.
func (w *worker) fetch(holder, job, mapID, attempt, part int) (partition, bool) {
	conn, err := w.tr.Dial(WorkerAddr(w.id), WorkerAddr(holder), connectTimeout)
	if err != nil {
		return partition{}, false
	}
	defer conn.Close()
	if err := conn.Send(msgFetchReq{job: job, mapID: mapID, attempt: attempt, partition: part}, sendTimeout); err != nil {
		return partition{}, false
	}
	m, err := conn.Recv(recvTimeout)
	if err != nil {
		return partition{}, false
	}
	resp, ok := m.(msgFetchResp)
	return resp.data, ok && resp.ok
}

// serveFetches answers intermediate-data requests — one request per
// accepted connection — while the worker is not suspended.
func (w *worker) serveFetches(closed chan struct{}) {
	defer w.fetchLis.Close()
	for {
		if isClosed(closed) {
			return
		}
		w.gate.wait()
		conn, err := w.fetchLis.Accept(recvTimeout)
		if err != nil {
			if errors.Is(err, transport.ErrTimeout) {
				continue
			}
			return
		}
		w.gate.wait() // suspended workers serve nothing
		if m, err := conn.Recv(recvTimeout); err == nil {
			if req, ok := m.(msgFetchReq); ok {
				w.storeMu.Lock()
				data, found := w.store[storeKey{req.job, req.mapID, req.attempt, req.partition}]
				w.storeMu.Unlock()
				_ = conn.Send(msgFetchResp{ok: found, data: data}, sendTimeout)
			}
		}
		conn.Close()
	}
}

// putPartition stores one partition of a map attempt's output — unless the
// job was already swept, which happens when a stale attempt (undelivered
// through a suspension, or orphaned by a dead session) completes after the
// job retired its last accounted attempt.
func (w *worker) putPartition(job, mapID, attempt, part int, data partition) {
	w.storeMu.Lock()
	if !w.cleared.has(job) {
		w.store[storeKey{job, mapID, attempt, part}] = data
	}
	w.storeMu.Unlock()
}

// clearJob drops one finished job's intermediate data (concurrent jobs
// keep theirs: the store is job-scoped).
func (w *worker) clearJob(job int) {
	w.storeMu.Lock()
	for k := range w.store {
		if k.job == job {
			delete(w.store, k)
		}
	}
	w.storeMu.Unlock()
}

// isClosed polls a close-only channel.
func isClosed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// sleepOrClosed sleeps d, waking early if ch closes.
func sleepOrClosed(ch chan struct{}, d time.Duration) {
	if d <= 0 {
		return
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ch:
	case <-timer.C:
	}
}
