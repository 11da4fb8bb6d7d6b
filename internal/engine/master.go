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

	stats Stats

	// attempts is the shared live-attempt accounting: Live counts the
	// job's outstanding attempts (maintained at launch/retire), Inactive
	// the subset on silent workers (refreshed before each scheduling
	// pass). Fair-share ranks jobs by the active difference.
	attempts sched.Attempts

	submittedAt time.Time
	launchedAt  time.Time
	launched    bool
	finished    bool

	handle *JobHandle

	// Per-job gauges, scoped by job name (nil without a collector).
	mQueueWait *metrics.Gauge
	mMakespan  *metrics.Gauge
}

func (j *liveJob) Name() string        { return j.spec.Name }
func (j *liveJob) Done() bool          { return j.finished }
func (j *liveJob) ActiveAttempts() int { return j.attempts.Active() }
func (j *liveJob) Priority() int       { return j.spec.Priority }

func (j *liveJob) allMapsDone() bool {
	for _, t := range j.maps {
		if !t.done {
			return false
		}
	}
	return true
}

func (j *liveJob) allReducesDone() bool {
	for _, t := range j.reduces {
		if !t.done {
			return false
		}
	}
	return true
}

type eventKind int

const (
	evMapDone eventKind = iota
	evReduceDone
	evReduceStuck
)

// attemptRef tracks one outstanding attempt, pinned to the session it was
// assigned under: if that session dies, the attempt's result can never be
// accepted and the ref is force-retired.
type attemptRef struct {
	attempt int
	worker  int
	session uint64
	started time.Time
}

// taskState is the master's record of one map or reduce task.
type taskState struct {
	id          int
	isReduce    bool
	done        bool
	winAttempt  int
	holders     []int
	outstanding []attemptRef
	nextAttempt int
}

// session is the master's side of one worker epoch: the connection, the
// lease clock, the unacked assignments awaiting resend, and the dedup
// state that commits each result event at most once. Only the master
// goroutine touches its fields; the read/write loops own just the conn,
// outbox and done channel.
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
	pending      map[uint64]*pendingAssign
}

// pendingAssign is one assignment awaiting its ack.
type pendingAssign struct {
	msg     msgAssign
	sentAt  time.Time
	resends int
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

	link transport.LinkConfig
	lis  transport.Listener
	msgs chan inMsg

	sessions    map[int]*session
	nextSession uint64
	jobsByID    map[int]*liveJob

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
		c:        c,
		link:     c.link,
		lis:      lis,
		msgs:     make(chan inMsg, 4*len(c.workers)+16),
		sessions: make(map[int]*session),
		jobsByID: make(map[int]*liveJob),
		start:    time.Now(),
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
	check := time.NewTicker(m.link.LeaseDuration / 2)
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
	msg, err := conn.Recv(m.link.ConnectTimeout)
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
			delete(s.pending, msg.id)
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
		pending:  make(map[uint64]*pendingAssign),
	}
	m.sessions[workerID] = s
	go m.writeLoop(s)
	go m.readLoop(s)
	s.outbox <- msgWelcome{session: s.id}
}

// killSession ends one worker epoch: close the connection, retire every
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

// forceRetire drops every outstanding attempt pinned to a dead session
// from the accounting, so abandoned work is rescheduled instead of
// wedging Drain.
func (m *master) forceRetire(s *session) {
	clear(s.pending)
	var drained []*liveJob // cleared after the walk: clearing shifts Jobs()
	for _, j := range m.queue.Jobs() {
		for _, tasks := range [2][]*taskState{j.maps, j.reduces} {
			for _, t := range tasks {
				kept := t.outstanding[:0]
				for _, ref := range t.outstanding {
					if ref.worker == s.worker && ref.session == s.id {
						j.attempts.Live--
						continue
					}
					kept = append(kept, ref)
				}
				t.outstanding = kept
			}
		}
		if j.finished && j.attempts.Live == 0 {
			drained = append(drained, j)
		}
	}
	for _, j := range drained {
		m.clearJob(j)
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
			err := s.conn.Send(msg, m.link.SendTimeout)
			for r := 0; errors.Is(err, transport.ErrTimeout) && r < m.link.MaxRetries; r++ {
				m.c.retries.Add(1)
				err = s.conn.Send(msg, m.link.SendTimeout)
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
		if silence >= m.link.LeaseDuration && !s.leaseLapsed {
			s.leaseLapsed = true
			m.mLeaseExp.IncAt(m.elapsed())
		}
		if m.link.SessionExpiry > 0 && silence >= m.link.SessionExpiry {
			m.enqueue(s, msgExpired{}) // best-effort eviction notice
			m.killSession(s, true)
		}
	}
}

// resendPending re-sends unacked assignments with linear backoff and
// retires the ones that exhausted their retries — the worker plainly is
// not receiving, so the attempt is abandoned and rescheduled elsewhere.
func (m *master) resendPending() {
	now := time.Now()
	for _, s := range m.sessions {
		if !s.alive {
			continue
		}
		for id, p := range s.pending {
			wait := m.link.SendTimeout + time.Duration(p.resends)*m.link.RetryBackoff
			if now.Sub(p.sentAt) < wait {
				continue
			}
			if p.resends >= m.link.MaxRetries {
				delete(s.pending, id)
				m.retireLost(p)
				continue
			}
			p.resends++
			p.sentAt = now
			m.mRetries.IncAt(m.elapsed())
			m.enqueue(s, p.msg)
			if !s.alive {
				break // enqueue killed the session; pending is gone
			}
		}
	}
}

// retireLost retires the attempt of an assignment the worker never
// acknowledged.
func (m *master) retireLost(p *pendingAssign) {
	a := p.msg.task
	j := m.jobsByID[a.jobID]
	if j == nil {
		return // the job finished and left without this attempt
	}
	t := j.maps
	if a.isReduce {
		t = j.reduces
	}
	m.retire(j, t[a.taskID], a.attempt)
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
	m.handle(j, me.ev)
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
		handle:      &JobHandle{id: m.nextJobID, name: job.Name, done: make(chan struct{}), results: make(map[string]string)},
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
	if mc := m.c.cfg.Metrics; mc != nil {
		j.mQueueWait = mc.Gauge(metrics.LayerEngine, "queue_wait_seconds", job.Name)
		j.mMakespan = mc.Gauge(metrics.LayerEngine, "makespan_seconds", job.Name)
	}
	m.mRunningJobs.Observe(m.elapsed(), float64(m.queue.Running()))
	m.publishStatus(j)
	return submitResp{h: j.handle}
}

// publishStatus freezes the job's current progress into its handle for
// lock-free Status reads. Call on every visible transition.
func (m *master) publishStatus(j *liveJob) {
	st := &JobStatus{
		ID: j.id, Job: j.spec.Name, Priority: j.spec.Priority,
		MapsTotal: len(j.maps), ReducesTotal: len(j.reduces),
		Stats: j.stats,
	}
	for _, t := range j.maps {
		if t.done {
			st.MapsDone++
		}
	}
	for _, t := range j.reduces {
		if t.done {
			st.ReducesDone++
		}
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
	if j.finished {
		st.Makespan = j.handle.profile.Makespan
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
	return time.Since(s.lastBeat) < m.link.LeaseDuration
}

// refreshInactive recounts, per running job, the outstanding attempts
// sitting on silent workers — the shared accounting's Inactive side, so
// fair-share ranks by *active* attempts only (a churn-stalled job is not
// deprioritized for the backups that would unfreeze it). Live is
// maintained incrementally at launch/retire.
func (m *master) refreshInactive() {
	for _, j := range m.queue.Jobs() {
		inactive := 0
		for _, tasks := range [2][]*taskState{j.maps, j.reduces} {
			for _, t := range tasks {
				for _, ref := range t.outstanding {
					if !m.live(ref.worker) {
						inactive++
					}
				}
			}
		}
		j.attempts.Inactive = inactive
	}
}

// idleWorkers returns live workers with no outstanding attempt of any
// job — finished jobs included (one stays queued until its last attempt
// retires). A session therefore carries one unsettled assignment at a time,
// which the worker's dedup relies on. A straggler copy of an already-decided
// task still occupies its worker until it retires, and booking new work
// behind it would invisibly stall that work for the straggler's whole
// remaining runtime. Dedicated workers sort last so original copies
// prefer the volatile pool (dedicated capacity is reserved for backups,
// the MOON hybrid policy).
func (m *master) idleWorkers() []int {
	busy := make(map[int]bool)
	for _, j := range m.queue.Jobs() {
		for _, tasks := range [2][]*taskState{j.maps, j.reduces} {
			for _, t := range tasks {
				for _, ref := range t.outstanding {
					busy[ref.worker] = true
				}
			}
		}
	}
	var vol, ded []int
	for i := range m.c.workers {
		if busy[i] || !m.live(i) {
			continue
		}
		if m.c.workers[i].dedicated {
			ded = append(ded, i)
		} else {
			vol = append(vol, i)
		}
	}
	return append(vol, ded...)
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
			if !t.done && len(t.outstanding) == 0 {
				m.launchMap(j, t, w)
				return true
			}
		}
		if !j.allMapsDone() {
			continue
		}
		for _, t := range j.reduces {
			if !t.done && len(t.outstanding) == 0 {
				m.launchReduce(j, t, w)
				return true
			}
		}
	}
	return false
}

// checkFrozen issues backup copies for tasks whose every outstanding
// attempt sits on a silent worker, across all running jobs in policy
// order (frozen tasks of a high-ranked job win the spare workers first).
func (m *master) checkFrozen() {
	m.refreshInactive()
	for _, j := range m.queue.Order() {
		for _, tasks := range [2][]*taskState{j.maps, j.reduces} {
			for _, t := range tasks {
				if t.done || len(t.outstanding) == 0 {
					continue
				}
				anyLive := false
				for _, ref := range t.outstanding {
					if m.live(ref.worker) {
						anyLive = true
						break
					}
				}
				if anyLive {
					continue
				}
				// Frozen: place a backup, preferring dedicated workers.
				idle := m.idleWorkers()
				if len(idle) == 0 {
					return
				}
				target := idle[len(idle)-1] // dedicated sort last in idleWorkers
				j.stats.BackupCopies++
				m.mBackups.IncAt(m.elapsed())
				m.mFrozenChecks.Inc()
				if t.isReduce {
					m.launchReduce(j, t, target)
				} else {
					m.launchMap(j, t, target)
				}
			}
		}
	}
}

// noteLaunch updates the job's accounting for one new attempt; the first
// launch of the whole job ends its queue wait.
func (m *master) noteLaunch(j *liveJob) {
	j.attempts.Live++
	if !j.launched {
		j.launched = true
		j.launchedAt = time.Now()
		j.mQueueWait.Set(j.launchedAt.Sub(j.submittedAt).Seconds())
	}
	m.publishStatus(j)
}

// launchMap assigns a map attempt to a worker's current session.
func (m *master) launchMap(j *liveJob, t *taskState, workerID int) {
	s := m.sessions[workerID] // non-nil: the caller picked a live worker
	attempt := t.nextAttempt
	t.nextAttempt++
	t.outstanding = append(t.outstanding, attemptRef{attempt: attempt, worker: workerID, session: s.id, started: time.Now()})
	m.noteLaunch(j)
	j.stats.MapAttempts++
	m.mMapAttempts.IncAt(m.elapsed())
	replicateTo := -1
	if m.c.cfg.ReplicateToDedicated {
		for _, w := range m.c.workers {
			if w.dedicated {
				replicateTo = w.id
				break
			}
		}
	}
	m.assign(s, assignment{
		jobID:       j.id,
		taskID:      t.id,
		attempt:     attempt,
		reduces:     j.spec.Reduces,
		input:       j.spec.Inputs[t.id],
		mapFn:       j.spec.Map,
		combineFn:   j.spec.Combine,
		replicateTo: replicateTo,
	})
}

// launchReduce assigns a reduce attempt with a snapshot of the job's
// winning map attempts and their holders.
func (m *master) launchReduce(j *liveJob, t *taskState, workerID int) {
	s := m.sessions[workerID]
	attempt := t.nextAttempt
	t.nextAttempt++
	t.outstanding = append(t.outstanding, attemptRef{attempt: attempt, worker: workerID, session: s.id, started: time.Now()})
	m.noteLaunch(j)
	j.stats.ReduceAttempts++
	m.mRedAttempts.IncAt(m.elapsed())

	sources := make([]reduceSource, 0, len(j.maps))
	for _, mt := range j.maps {
		sources = append(sources, reduceSource{mapID: mt.id, attempt: mt.winAttempt, holders: append([]int(nil), mt.holders...)})
	}
	m.assign(s, assignment{
		jobID:       j.id,
		taskID:      t.id,
		attempt:     attempt,
		isReduce:    true,
		reduces:     j.spec.Reduces,
		reduceFn:    j.spec.Reduce,
		sources:     sources,
		replicateTo: -1,
	})
}

// assign registers one assignment as pending and sends it.
func (m *master) assign(s *session, a assignment) {
	s.nextAssignID++
	msg := msgAssign{id: s.nextAssignID, session: s.id, task: a}
	s.pending[msg.id] = &pendingAssign{msg: msg, sentAt: time.Now()}
	m.enqueue(s, msg)
}

// handle integrates one worker event of a job still on the master.
func (m *master) handle(j *liveJob, ev workerEvent) {
	switch ev.kind {
	case evMapDone:
		t := j.maps[ev.taskID]
		ref, ok := m.retire(j, t, ev.attempt)
		if t.done || j.finished {
			return // a sibling already won, or the job completed elsewhere
		}
		t.done = true
		t.winAttempt = ev.attempt
		t.holders = ev.holders
		if ok {
			m.mMapDur.Observe(time.Since(ref.started).Seconds())
		}
		m.publishStatus(j)
	case evReduceDone:
		t := j.reduces[ev.taskID]
		ref, ok := m.retire(j, t, ev.attempt)
		if t.done || j.finished {
			return
		}
		t.done = true
		for k, v := range ev.output {
			j.handle.results[k] = v
		}
		if ok {
			m.mReduceDur.Observe(time.Since(ref.started).Seconds())
		}
		if j.allReducesDone() {
			m.finishJob(j)
		} else {
			m.publishStatus(j)
		}
	case evReduceStuck:
		t := j.reduces[ev.taskID]
		m.retire(j, t, ev.attempt)
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
				j.stats.MapReexecs++
				m.mReexecs.IncAt(m.elapsed())
			}
		}
		m.publishStatus(j)
	}
}

// retire removes one outstanding attempt and balances the job's live
// count; once a finished job's last attempt drains, its intermediate
// stores are released.
func (m *master) retire(j *liveJob, t *taskState, attempt int) (attemptRef, bool) {
	ref, ok := t.removeOutstanding(attempt)
	if ok {
		j.attempts.Live--
		if j.finished && j.attempts.Live == 0 {
			m.clearJob(j)
		}
	}
	return ref, ok
}

// finishJob completes a job: profile, per-job gauges, handle, and — once
// no attempt is still in flight — intermediate-store cleanup.
func (m *master) finishJob(j *liveJob) {
	j.finished = true
	now := time.Now()
	prof := JobProfile{
		Job:       j.spec.Name,
		Priority:  j.spec.Priority,
		QueueWait: j.launchedAt.Sub(j.submittedAt),
		Makespan:  now.Sub(j.submittedAt),
		Stats:     j.stats,
	}
	j.mQueueWait.Set(prof.QueueWait.Seconds())
	j.mMakespan.Set(prof.Makespan.Seconds())
	m.mRunningJobs.Observe(m.elapsed(), float64(m.queue.Running()))
	h := j.handle
	h.profile = prof
	m.publishStatus(j)
	close(h.done)
	if j.attempts.Live == 0 {
		m.clearJob(j)
	}
}

// clearJob is where a finished job leaves the master, once no attempt of
// it is in flight: out of the queue and the id index — so every walk over
// jobs, and the master's time per job, covers the live ones and not the
// cluster's history — and out of every worker store; only the handle, with
// results and profile, outlives the call. Marking the job in the cleared
// set first fences stale attempts still executing: their late putPartition
// writes are refused, so the sweep is final. Leaving is also where the
// attempt accounting is audited: Live, kept at launch and retire, against
// the lists it summarizes — a ref still listed would be stranded.
func (m *master) clearJob(j *liveJob) {
	if !m.queue.Remove(j) {
		return
	}
	j.attempts.Inactive = 0
	for _, tasks := range [2][]*taskState{j.maps, j.reduces} {
		for _, t := range tasks {
			j.attempts.Inactive += len(t.outstanding)
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

func (t *taskState) removeOutstanding(attempt int) (attemptRef, bool) {
	for i, ref := range t.outstanding {
		if ref.attempt == attempt {
			t.outstanding = append(t.outstanding[:i], t.outstanding[i+1:]...)
			return ref, true
		}
	}
	return attemptRef{}, false
}
