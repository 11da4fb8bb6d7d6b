package engine

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/transport"
)

// liveJob is the master's record of one submitted job — the engine's
// implementation of the shared scheduling core's Job view, so the same
// policies that arbitrate the simulator's TaskTracker slots arbitrate the
// live worker pool.
type liveJob struct {
	// id scopes the job's intermediate-store keys; unique for the
	// cluster's lifetime.
	id   int
	spec Job

	maps    []*taskState
	reduces []*taskState

	// mapsDone and reducesDone count the decided tasks of each phase; a
	// re-executed map takes its count back.
	mapsDone, reducesDone int

	stats Stats

	// attempts is the shared live-attempt accounting: Live counts the
	// job's unsettled attempts (maintained at launch/settle), Inactive
	// the subset on silent workers (refreshed before each scheduling
	// pass). Fair-share ranks jobs by the active difference.
	attempts sched.Attempts

	submittedAt time.Time
	launchedAt  time.Time
	makespan    time.Duration // set when the job finishes
	launched    bool
	finished    bool

	handle *JobHandle
}

func (j *liveJob) Name() string        { return j.spec.Name }
func (j *liveJob) Done() bool          { return j.finished }
func (j *liveJob) ActiveAttempts() int { return j.attempts.Active() }
func (j *liveJob) Priority() int       { return j.spec.Priority }

type eventKind int

const (
	evMapDone eventKind = iota
	evReduceDone
	evReduceStuck
)

// attemptRef is a worker's one unsettled attempt: its task, the session it
// was assigned under (if that session dies, the attempt's result can never
// be accepted and the record is force-retired), and the assignment's resend
// clock, which stops once the worker acks it.
type attemptRef struct {
	job     *liveJob
	task    *taskState
	attempt int
	session uint64
	started time.Time

	msg     msgAssign
	acked   bool
	sentAt  time.Time
	resends int
}

// taskState is the master's record of one map or reduce task.
type taskState struct {
	id          int
	isReduce    bool
	done        bool
	winAttempt  int
	holders     []int
	nextAttempt int
	// copies counts the task's unsettled attempts, live the subset on
	// fresh-lease workers as of the last refreshInactive.
	copies, live int
}

// session is the master's side of one worker epoch: the connection, the
// lease clock, and the dedup state that commits each result event at most
// once. Only the master goroutine touches its fields; the read/write loops
// own just the conn, outbox and done channel.
type session struct {
	worker int
	id     uint64
	conn   transport.Conn
	outbox chan any
	done   chan struct{}

	alive    bool
	lastBeat time.Time
	// leaseLapsed latches the lease-expiry metric per silence episode (a
	// fresh heartbeat re-arms it).
	leaseLapsed bool

	// lastEvent is the highest event id committed, and the whole dedup
	// state: a worker sends event n+1 only once n is acked (sendEvent is
	// stop-and-wait), so an id at or below it is a resend or a duplicate.
	lastEvent    uint64
	nextAssignID uint64
}

// inMsg is one message (or connection-death notice) routed into the
// master loop. sess is nil only for the hello of a brand-new connection.
type inMsg struct {
	sess *session
	conn transport.Conn
	m    any
}

// connDead is the in-band notice that a session's connection failed.
type connDead struct{}

// master coordinates the cluster's whole job stream: it owns the shared
// scheduling queue, assigns idle workers to jobs in policy order, detects
// frozen tasks, and completes job handles. It is the only goroutine that
// touches scheduling state, session state and the metrics collector.
type master struct {
	c     *Cluster
	queue *sched.Queue[*liveJob]

	lis  transport.Listener
	msgs chan inMsg

	sessions    map[int]*session
	nextSession uint64
	jobsByID    map[int]*liveJob

	// running holds each worker's unsettled attempt, nil when it has none.
	// A record is pinned to the worker's current session: killing the
	// session settles it.
	running []*attemptRef
	// replicateTo is the dedicated worker every map output is replicated
	// to, -1 without hybrid replication.
	replicateTo int

	nextJobID int
	retired   int // jobs that left through clearJob, each audited balanced

	// drainWaiters are Drain callers blocked until every job finished and
	// every attempt retired.
	drainWaiters []chan struct{}

	// Instrument handles (nil without a collector); series buckets are
	// wall-clock seconds since the master started.
	start         time.Time
	mMapAttempts  *metrics.Counter
	mRedAttempts  *metrics.Counter
	mBackups      *metrics.Counter
	mReexecs      *metrics.Counter
	mFetchFails   *metrics.Counter
	mFrozenChecks *metrics.Counter
	mRunningJobs  *metrics.Series
	mMapDur       *metrics.Histogram
	mReduceDur    *metrics.Histogram
	mLeaseExp     *metrics.Counter
	mSessResets   *metrics.Counter
	mDupDiscards  *metrics.Counter
	mRetries      *metrics.Counter
}

// elapsed returns wall-clock seconds since the master started, the
// engine's series time base.
func (m *master) elapsed() float64 { return time.Since(m.start).Seconds() }

func newMaster(c *Cluster, lis transport.Listener) *master {
	m := &master{
		c:           c,
		lis:         lis,
		msgs:        make(chan inMsg, 4*len(c.workers)+16),
		sessions:    make(map[int]*session),
		jobsByID:    make(map[int]*liveJob),
		running:     make([]*attemptRef, len(c.workers)),
		replicateTo: -1,
		start:       time.Now(),
	}
	if c.cfg.ReplicateToDedicated && c.cfg.DedicatedWorkers > 0 {
		m.replicateTo = c.cfg.VolatileWorkers // workers are numbered volatile first
	}
	m.queue = sched.NewQueue(c.cfg.policy(), nil)
	if mc := c.cfg.Metrics; mc != nil {
		m.mMapAttempts = mc.TimedCounter(metrics.LayerEngine, "map_attempts", "")
		m.mRedAttempts = mc.TimedCounter(metrics.LayerEngine, "reduce_attempts", "")
		m.mBackups = mc.TimedCounter(metrics.LayerEngine, "backup_copies", "")
		m.mReexecs = mc.TimedCounter(metrics.LayerEngine, "map_reexecs", "")
		m.mFetchFails = mc.TimedCounter(metrics.LayerEngine, "fetch_failures", "")
		m.mFrozenChecks = mc.Counter(metrics.LayerEngine, "frozen_tasks_detected", "")
		m.mRunningJobs = mc.SampleSeries(metrics.LayerEngine, "running_jobs", "")
		m.mMapDur = mc.Histogram(metrics.LayerEngine, "task_duration_seconds", "map")
		m.mReduceDur = mc.Histogram(metrics.LayerEngine, "task_duration_seconds", "reduce")
		m.mLeaseExp = mc.TimedCounter(metrics.LayerTransport, "lease_expiries", "")
		m.mSessResets = mc.TimedCounter(metrics.LayerTransport, "session_resets", "")
		m.mDupDiscards = mc.TimedCounter(metrics.LayerTransport, "duplicate_result_discards", "")
		m.mRetries = mc.TimedCounter(metrics.LayerTransport, "retries", "")
	}
	return m
}

// run is the persistent master loop: it serves submissions, worker
// messages and the maintenance tick until the cluster closes, then fails
// every unfinished handle.
func (m *master) run() {
	defer close(m.c.masterDone)
	defer m.shutdown()
	go m.acceptLoop()
	check := time.NewTicker(leaseDuration / 2)
	defer check.Stop()

	for {
		select {
		case <-m.c.closed:
			m.failUnfinished(errors.New("engine: cluster closed"))
			return
		case req := <-m.c.submits:
			req.reply <- m.submit(req.job)
			m.schedule()
		case reply := <-m.c.drains:
			m.drainWaiters = append(m.drainWaiters, reply)
			m.notifyDrained()
		case im := <-m.msgs:
			m.handleMsg(im)
			m.schedule()
			m.notifyDrained()
		case <-check.C:
			m.expireSessions()
			m.resendPending()
			m.checkFrozen()
			m.schedule()
			m.notifyDrained()
		}
	}
}

// acceptLoop admits inbound worker connections; each one's hello is read
// off-loop so a stalled handshake cannot block new arrivals.
func (m *master) acceptLoop() {
	for {
		conn, err := m.lis.Accept(50 * time.Millisecond)
		if err != nil {
			if errors.Is(err, transport.ErrTimeout) {
				if isClosed(m.c.closed) {
					return
				}
				continue
			}
			return // listener closed
		}
		go m.greet(conn)
	}
}

func (m *master) greet(conn transport.Conn) {
	msg, err := conn.Recv(connectTimeout)
	if err != nil {
		conn.Close()
		return
	}
	hello, ok := msg.(msgHello)
	if !ok {
		conn.Close()
		return
	}
	m.report(inMsg{conn: conn, m: hello})
}

// report routes one message into the master loop, giving up at closure.
func (m *master) report(im inMsg) {
	select {
	case m.msgs <- im:
	case <-m.c.closed:
		if im.conn != nil {
			im.conn.Close()
		}
	}
}

// handleMsg integrates one routed message.
func (m *master) handleMsg(im inMsg) {
	switch msg := im.m.(type) {
	case msgHello:
		// A hello is a handshake on a fresh connection; one arriving over
		// an established session is a fault-injected duplicate — ignore it.
		if im.sess == nil && im.conn != nil {
			m.admit(im.conn, msg.worker)
		}
	case msgHeartbeat:
		if s := im.sess; s != nil && s.alive && msg.session == s.id {
			s.lastBeat = time.Now()
			s.leaseLapsed = false
		}
	case msgAck:
		if s := im.sess; s != nil && s.alive {
			if ref := m.running[s.worker]; ref != nil && ref.msg.id == msg.id {
				ref.acked = true
			}
		}
	case msgEvent:
		m.handleEvent(im.sess, msg)
	case connDead:
		if s := im.sess; s != nil && s.alive {
			m.killSession(s, true)
		}
	}
}

// admit opens a new session for a joining worker, evicting any previous
// one (a rejoin after a connection loss must not leave a zombie epoch able
// to commit results).
func (m *master) admit(conn transport.Conn, workerID int) {
	if workerID < 0 || workerID >= len(m.c.workers) {
		conn.Close()
		return
	}
	if old := m.sessions[workerID]; old != nil && old.alive {
		m.killSession(old, true)
	}
	m.nextSession++
	s := &session{
		worker:   workerID,
		id:       m.nextSession,
		conn:     conn,
		outbox:   make(chan any, 128),
		done:     make(chan struct{}),
		alive:    true,
		lastBeat: time.Now(),
	}
	m.sessions[workerID] = s
	go m.writeLoop(s)
	go m.readLoop(s)
	s.outbox <- msgWelcome{session: s.id}
}

// killSession ends one worker epoch: close the connection, settle the
// attempt assigned under it (their results can no longer be accepted), and
// count the reset unless this is cluster shutdown.
func (m *master) killSession(s *session, countReset bool) {
	if !s.alive {
		return
	}
	s.alive = false
	close(s.done)
	s.conn.Close()
	if m.sessions[s.worker] == s {
		delete(m.sessions, s.worker)
	}
	if countReset {
		m.mSessResets.IncAt(m.elapsed())
	}
	m.forceRetire(s)
}

// forceRetire settles the attempt pinned to a dead session, so abandoned
// work is rescheduled instead of wedging Drain. A record of the worker's
// newer session is not the dead one's to settle.
func (m *master) forceRetire(s *session) {
	if ref := m.running[s.worker]; ref != nil && ref.session == s.id {
		m.settle(s.worker)
	}
}

// writeLoop drains one session's outbox onto its connection, retrying
// transient send timeouts; a fatal error reports the connection dead.
func (m *master) writeLoop(s *session) {
	for {
		select {
		case <-s.done:
			return
		case msg := <-s.outbox:
			err := s.conn.Send(msg, sendTimeout)
			for r := 0; errors.Is(err, transport.ErrTimeout) && r < maxRetries; r++ {
				m.c.retries.Add(1)
				err = s.conn.Send(msg, sendTimeout)
			}
			if err != nil && !errors.Is(err, transport.ErrTimeout) {
				m.report(inMsg{sess: s, m: connDead{}})
				return
			}
		}
	}
}

// readLoop pumps one session's inbound messages into the master loop.
func (m *master) readLoop(s *session) {
	for {
		msg, err := s.conn.Recv(time.Second)
		if err != nil {
			if errors.Is(err, transport.ErrTimeout) {
				if isClosed(s.done) || isClosed(m.c.closed) {
					return
				}
				continue
			}
			m.report(inMsg{sess: s, m: connDead{}})
			return
		}
		m.report(inMsg{sess: s, m: msg})
	}
}

// enqueue places one message on a session's outbox; a full outbox means
// the link is hopeless (the worker stopped draining long ago) and kills
// the session.
func (m *master) enqueue(s *session, msg any) {
	select {
	case s.outbox <- msg:
	default:
		m.killSession(s, true)
	}
}

// expireSessions ages every lease on the maintenance tick: a silent
// volatile worker first lapses its lease (counted once per silence
// episode — this is what gates scheduling and triggers the existing
// suspension handling), and past SessionExpiry its whole session is
// evicted so a zombie epoch cannot linger forever.
func (m *master) expireSessions() {
	now := time.Now()
	for _, s := range m.sessions {
		if !s.alive || m.c.workers[s.worker].dedicated {
			continue
		}
		silence := now.Sub(s.lastBeat)
		if silence >= leaseDuration && !s.leaseLapsed {
			s.leaseLapsed = true
			m.mLeaseExp.IncAt(m.elapsed())
		}
		if m.c.cfg.SessionExpiry > 0 && silence >= m.c.cfg.SessionExpiry {
			m.enqueue(s, msgExpired{}) // best-effort eviction notice
			m.killSession(s, true)
		}
	}
}

// resendPending re-sends unacked assignments with linear backoff and
// settles the ones that exhausted their retries — the worker plainly is
// not receiving, so the attempt is abandoned and rescheduled elsewhere.
func (m *master) resendPending() {
	now := time.Now()
	for w, ref := range m.running {
		if ref == nil || ref.acked || now.Sub(ref.sentAt) < sendTimeout+time.Duration(ref.resends)*retryBackoff {
			continue
		}
		if ref.resends >= maxRetries {
			m.settle(w)
			continue
		}
		ref.resends++
		ref.sentAt = now
		m.mRetries.IncAt(m.elapsed())
		m.enqueue(m.sessions[w], ref.msg)
	}
}

// handleEvent commits one worker result event — exactly once, and only
// from the worker's current living session. Everything else (an expired
// epoch's leftovers, a resend of an already-committed event, a
// fault-injected duplicate) is discarded and counted.
func (m *master) handleEvent(s *session, me msgEvent) {
	if s == nil || !s.alive || me.session != s.id {
		m.mDupDiscards.IncAt(m.elapsed())
		return
	}
	if me.id <= s.lastEvent {
		m.enqueue(s, msgAck{id: me.id}) // the previous ack was lost
		m.mDupDiscards.IncAt(m.elapsed())
		return
	}
	s.lastEvent = me.id
	m.enqueue(s, msgAck{id: me.id})
	if !s.alive {
		return // the ack found the outbox wedged; session died
	}
	j := m.jobsByID[me.ev.jobID]
	if j == nil {
		return // a stale attempt of an already-swept job
	}
	m.handle(j, s.worker, me.ev)
}

// notifyDrained releases Drain callers once every job has finished and
// retired its last attempt — which is when it leaves the queue (clearJob).
func (m *master) notifyDrained() {
	if len(m.drainWaiters) == 0 || m.queue.Len() != 0 {
		return
	}
	for _, reply := range m.drainWaiters {
		close(reply)
	}
	m.drainWaiters = nil
}

// submit enqueues one job (duplicate live names rejected by the shared
// queue) and returns its handle.
func (m *master) submit(job Job) submitResp {
	j := &liveJob{
		id:          m.nextJobID,
		spec:        job,
		submittedAt: time.Now(),
		handle:      &JobHandle{id: m.nextJobID, done: make(chan struct{}), results: make(map[string]string)},
	}
	for i := range job.Inputs {
		j.maps = append(j.maps, &taskState{id: i})
	}
	for i := 0; i < job.Reduces; i++ {
		j.reduces = append(j.reduces, &taskState{id: i, isReduce: true})
	}
	if err := m.queue.Submit(j); err != nil {
		return submitResp{err: fmt.Errorf("engine: %w", err)}
	}
	m.nextJobID++
	m.jobsByID[j.id] = j
	m.mRunningJobs.Observe(m.elapsed(), float64(m.queue.Running()))
	m.publishStatus(j)
	return submitResp{h: j.handle}
}

// publishStatus freezes the job's current progress into its handle for
// lock-free Status reads. Call on every visible transition.
func (m *master) publishStatus(j *liveJob) {
	st := &JobStatus{
		ID: j.id, Job: j.spec.Name, Priority: j.spec.Priority,
		MapsDone: j.mapsDone, MapsTotal: len(j.maps),
		ReducesDone: j.reducesDone, ReducesTotal: len(j.reduces),
		Stats: j.stats, Makespan: j.makespan,
	}
	switch {
	case j.finished && j.handle.err != nil:
		st.State = JobFailed
		st.Err = j.handle.err.Error()
	case j.finished:
		st.State = JobDone
	case j.launched:
		st.State = JobRunning
	default:
		st.State = JobQueued
	}
	if j.launched {
		st.QueueWait = j.launchedAt.Sub(j.submittedAt)
	}
	j.handle.status.Store(st)
}

// failUnfinished completes every unfinished handle with err (cluster
// closure).
func (m *master) failUnfinished(err error) {
	for _, j := range m.queue.Jobs() {
		if j.finished {
			continue
		}
		j.finished = true
		j.handle.err, j.handle.results = err, nil
		m.publishStatus(j)
		close(j.handle.done)
	}
}

// shutdown tears the fabric down after the master loop exits: close the
// listener and every session, then fold the transport's own counters into
// the collector (safe here — the loop no longer touches it, and Close
// waits for this before returning).
func (m *master) shutdown() {
	m.lis.Close()
	for _, s := range m.sessions {
		if !s.alive {
			continue
		}
		s.alive = false
		close(s.done)
		s.conn.Close()
	}
	if mc := m.c.cfg.Metrics; mc != nil {
		st := m.c.tr.Stats()
		mc.Counter(metrics.LayerTransport, "dials", "").Add(float64(st.Dials))
		mc.Counter(metrics.LayerTransport, "sends", "").Add(float64(st.Sends))
		mc.Counter(metrics.LayerTransport, "drops", "").Add(float64(st.Drops))
		mc.Counter(metrics.LayerTransport, "dup_deliveries", "").Add(float64(st.Dups))
		mc.Counter(metrics.LayerTransport, "delayed_deliveries", "").Add(float64(st.Delays))
		mc.Counter(metrics.LayerTransport, "conn_resets", "").Add(float64(st.Resets))
		m.mRetries.Add(float64(m.c.retries.Load()))
	}
}

// live reports whether a worker holds a living session with a fresh lease
// (dedicated workers never churn, so their session alone is trusted).
func (m *master) live(worker int) bool {
	s := m.sessions[worker]
	if s == nil || !s.alive {
		return false
	}
	if m.c.workers[worker].dedicated {
		return true
	}
	return time.Since(s.lastBeat) < leaseDuration
}

// refreshInactive recounts the unsettled attempts sitting on silent
// workers: per job, the shared accounting's Inactive side, so fair-share
// ranks by *active* attempts only (a churn-stalled job is not deprioritized
// for the backups that would unfreeze it); per task, the copies still live.
// Live is maintained incrementally at launch/settle.
func (m *master) refreshInactive() {
	for _, j := range m.queue.Jobs() {
		j.attempts.Inactive = 0
	}
	for _, ref := range m.running {
		if ref != nil {
			ref.task.live = 0
		}
	}
	for w, ref := range m.running {
		if ref == nil {
			continue
		}
		if m.live(w) {
			ref.task.live++
		} else {
			ref.job.attempts.Inactive++
		}
	}
}

// idleWorkers returns live workers with no unsettled attempt of any job —
// finished jobs included (one stays queued until its last attempt
// settles). A session therefore carries one unsettled assignment at a time,
// which the worker's dedup relies on. A straggler copy of an already-decided
// task still occupies its worker until it settles, and booking new work
// behind it would invisibly stall that work for the straggler's whole
// remaining runtime. Workers are numbered volatile first, so dedicated
// ones sort last and original copies prefer the volatile pool (dedicated
// capacity is reserved for backups, the MOON hybrid policy).
func (m *master) idleWorkers() []int {
	var idle []int
	for w, ref := range m.running {
		if ref == nil && m.live(w) {
			idle = append(idle, w)
		}
	}
	return idle
}

// schedule offers every idle worker to the jobs in policy order: pending
// maps first (any job), then pending reduces of jobs whose map phase is
// complete. The order is recomputed per offer — a launch changes the live
// counts fair-share ranks by, exactly like the simulator's per-offer
// reordering.
func (m *master) schedule() {
	m.refreshInactive()
	for _, w := range m.idleWorkers() {
		if !m.offer(w) {
			return // nothing pending anywhere; later workers see the same
		}
	}
}

// offer hands one idle worker to the first job in policy order with an
// eligible task — that job's pending maps first, its reduces once every
// map is done. Policy rank dominates across phases: a high-ranked job's
// reduces are not starved by a lower-ranked job's map backlog (FIFO
// serializes whole jobs, strict priority really owns every offer). A job
// whose maps are all in flight but not done cannot use the slot and
// passes it down the order, so arbitration stays work-conserving.
func (m *master) offer(w int) bool {
	for _, j := range m.queue.Order() {
		for _, t := range j.maps {
			if !t.done && t.copies == 0 {
				m.launch(j, t, w)
				return true
			}
		}
		if j.mapsDone < len(j.maps) {
			continue
		}
		for _, t := range j.reduces {
			if !t.done && t.copies == 0 {
				m.launch(j, t, w)
				return true
			}
		}
	}
	return false
}

// checkFrozen issues backup copies for tasks whose every unsettled
// attempt sits on a silent worker, across all running jobs in policy
// order (frozen tasks of a high-ranked job win the spare workers first).
func (m *master) checkFrozen() {
	m.refreshInactive()
	idle := m.idleWorkers()
	for _, j := range m.queue.Order() {
		for _, tasks := range [2][]*taskState{j.maps, j.reduces} {
			for _, t := range tasks {
				if t.done || t.copies == 0 || t.live > 0 {
					continue
				}
				// Frozen: place a backup, preferring dedicated workers
				// (they sort last in idleWorkers).
				if len(idle) == 0 {
					return
				}
				target := idle[len(idle)-1]
				idle = idle[:len(idle)-1]
				j.stats.BackupCopies++
				m.mBackups.IncAt(m.elapsed())
				m.mFrozenChecks.Inc()
				m.launch(j, t, target)
			}
		}
	}
}

// launch assigns t's next attempt to worker w's current session and
// records it on the worker; the first launch of the whole job ends its
// queue wait. A reduce attempt carries a snapshot of the job's winning map
// attempts and their holders.
func (m *master) launch(j *liveJob, t *taskState, w int) {
	s := m.sessions[w] // non-nil: the caller picked a live worker
	a := assignment{jobID: j.id, taskID: t.id, attempt: t.nextAttempt, isReduce: t.isReduce, reduces: j.spec.Reduces, replicateTo: -1}
	if t.isReduce {
		j.stats.ReduceAttempts++
		m.mRedAttempts.IncAt(m.elapsed())
		a.reduceFn = j.spec.Reduce
		a.sources = make([]reduceSource, 0, len(j.maps))
		for _, mt := range j.maps {
			a.sources = append(a.sources, reduceSource{mapID: mt.id, attempt: mt.winAttempt, holders: append([]int(nil), mt.holders...)})
		}
	} else {
		j.stats.MapAttempts++
		m.mMapAttempts.IncAt(m.elapsed())
		a.input, a.mapFn, a.combineFn, a.replicateTo = j.spec.Inputs[t.id], j.spec.Map, j.spec.Combine, m.replicateTo
	}
	t.nextAttempt++
	t.copies++
	j.attempts.Live++
	now := time.Now()
	if !j.launched {
		j.launched = true
		j.launchedAt = now
	}
	s.nextAssignID++
	ref := &attemptRef{job: j, task: t, attempt: a.attempt, session: s.id, started: now,
		msg: msgAssign{id: s.nextAssignID, session: s.id, task: a}, sentAt: now}
	m.running[w] = ref
	m.publishStatus(j)
	m.enqueue(s, ref.msg)
}

// handle integrates one event of a job still on the master, delivered by
// worker w's current session.
func (m *master) handle(j *liveJob, w int, ev workerEvent) {
	switch ev.kind {
	case evMapDone:
		t := j.maps[ev.taskID]
		ref := m.retire(w, t, ev.attempt)
		if t.done || j.finished {
			return // a sibling already won, or the job completed elsewhere
		}
		t.done = true
		j.mapsDone++
		t.winAttempt = ev.attempt
		t.holders = ev.holders
		if ref != nil {
			m.mMapDur.Observe(time.Since(ref.started).Seconds())
		}
		m.publishStatus(j)
	case evReduceDone:
		t := j.reduces[ev.taskID]
		ref := m.retire(w, t, ev.attempt)
		if t.done || j.finished {
			return
		}
		t.done = true
		j.reducesDone++
		for k, v := range ev.output {
			j.handle.results[k] = v
		}
		if ref != nil {
			m.mReduceDur.Observe(time.Since(ref.started).Seconds())
		}
		if j.reducesDone == len(j.reduces) {
			m.finishJob(j)
		} else {
			m.publishStatus(j)
		}
	case evReduceStuck:
		t := j.reduces[ev.taskID]
		m.retire(w, t, ev.attempt)
		j.stats.FetchFailures += len(ev.missing)
		m.mFetchFails.AddAt(m.elapsed(), float64(len(ev.missing)))
		if t.done || j.finished {
			return
		}
		// Re-execute the unreachable maps, then let scheduling relaunch
		// the reduce.
		for _, mapID := range ev.missing {
			mt := j.maps[mapID]
			if mt.done {
				mt.done = false
				mt.holders = nil
				j.mapsDone--
				j.stats.MapReexecs++
				m.mReexecs.IncAt(m.elapsed())
			}
		}
		m.publishStatus(j)
	}
}

// retire settles worker w's record when it is exactly that attempt of t.
// The result of an attempt the master gave up on (its assignment lost, or
// its session dead, and the worker since handed other work) still decides
// its task, but settles nothing.
func (m *master) retire(w int, t *taskState, attempt int) *attemptRef {
	ref := m.running[w]
	if ref == nil || ref.task != t || ref.attempt != attempt {
		return nil
	}
	m.settle(w)
	return ref
}

// settle clears worker w's record and balances its job's live count; once
// a finished job's last attempt settles, the job leaves the master.
func (m *master) settle(w int) {
	ref := m.running[w]
	m.running[w] = nil
	ref.task.copies--
	j := ref.job
	j.attempts.Live--
	if j.finished && j.attempts.Live == 0 {
		m.clearJob(j)
	}
}

// finishJob completes a job: final status, handle, and — once no attempt
// is still in flight — intermediate-store cleanup.
func (m *master) finishJob(j *liveJob) {
	j.finished = true
	j.makespan = time.Since(j.submittedAt)
	m.mRunningJobs.Observe(m.elapsed(), float64(m.queue.Running()))
	m.publishStatus(j)
	close(j.handle.done)
	if j.attempts.Live == 0 {
		m.clearJob(j)
	}
}

// clearJob is where a finished job leaves the master, once no attempt of
// it is in flight: out of the queue and the id index — so every walk over
// jobs, and the master's time per job, covers the live ones and not the
// cluster's history — and out of every worker store; only the handle, with
// results and final status, outlives the call. Marking the job in the cleared
// set first fences stale attempts still executing: their late putPartition
// writes are refused, so the sweep is final. Leaving is also where the
// attempt accounting is audited: Live, kept at launch and settle, against
// the worker records it summarizes — a record still pointing at the job
// would be stranded.
func (m *master) clearJob(j *liveJob) {
	if !m.queue.Remove(j) {
		return
	}
	j.attempts.Inactive = 0
	for _, ref := range m.running {
		if ref != nil && ref.job == j {
			j.attempts.Inactive++
		}
	}
	if !j.attempts.Balanced() {
		panic(fmt.Sprintf("engine: job %q retired with attempts unaccounted: %+v", j.spec.Name, j.attempts))
	}
	m.retired++
	delete(m.jobsByID, j.id)
	m.c.cleared.mark(j.id)
	for _, w := range m.c.workers {
		w.clearJob(j.id)
	}
}
