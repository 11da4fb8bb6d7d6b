package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sched"
)

// Submission states. Queued submissions passed admission but wait for a
// quota slot; done/failed are terminal.
const (
	subQueued  = "queued"
	subRunning = "running"
	subDone    = "done"
	subFailed  = "failed"
)

// submission is one accepted unit of work: a direct engine job or a full
// scenario run. start (armed at creation, a closure over the decoded
// request) is consumed when it fires: at admission, or when a release
// hands the parked submission its slot. The engine handle is held while
// the job runs and dropped at finish for a copy of its last status.
type submission struct {
	id     string
	kind   string // "job" or "scenario"
	tenant string
	name   string

	mu     sync.Mutex
	start  func(*submission)
	state  string
	errMsg string
	handle *engine.JobHandle // kind "job", while running
	engine *engine.JobStatus // kind "job", the final status once terminal
	report []byte            // finished moon-metrics/v1 document
	output string            // kind "scenario": the rendered run text
}

// fire runs start, once, and forgets it and what it closed over.
func (b *submission) fire() {
	b.mu.Lock()
	start := b.start
	b.start = nil
	b.mu.Unlock()
	start(b)
}

func (b *submission) setRunning(h *engine.JobHandle) {
	b.mu.Lock()
	b.state = subRunning
	b.handle = h
	b.mu.Unlock()
}

// finish makes the submission terminal. final is a direct job's last
// engine status (nil otherwise): polls and lists read the copy from here
// on, and the handle — with results the service never serves — is garbage.
func (b *submission) finish(err error, final *engine.JobStatus, report []byte, output string) {
	b.mu.Lock()
	if err != nil {
		b.state = subFailed
		b.errMsg = err.Error()
	} else {
		b.state = subDone
	}
	b.handle, b.engine = nil, final
	b.report = report
	b.output = output
	b.mu.Unlock()
}

func (b *submission) terminal() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == subDone || b.state == subFailed
}

// Status is the wire form of one submission, shared by the list, status
// and submit responses. Engine carries the live per-task snapshot for
// direct jobs once they are running.
type Status struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	Tenant string `json:"tenant"`
	Name   string `json:"name"`
	State  string `json:"state"`
	Error  string `json:"error,omitempty"`

	// Output is a finished scenario run's rendered text (the same tables
	// `moonbench -scenario` prints).
	Output string `json:"output,omitempty"`

	Engine *engine.JobStatus `json:"engine,omitempty"`
}

func (b *submission) status() Status {
	b.mu.Lock()
	st := Status{ID: b.id, Kind: b.kind, Tenant: b.tenant, Name: b.name,
		State: b.state, Error: b.errMsg, Output: b.output, Engine: b.engine}
	h := b.handle
	b.mu.Unlock()
	if h != nil {
		es := h.Status()
		st.Engine = &es
	}
	return st
}

// registry tracks every accepted submission; admission control holds the
// parked ones until a slot frees.
type registry struct {
	mu    sync.Mutex
	seq   int
	subs  map[string]*submission
	order []string
}

func newRegistry() *registry {
	return &registry{subs: make(map[string]*submission)}
}

// admit asks adm to run or park a new submission and registers it unless
// it was rejected. The submission carries the next id before adm sees it,
// because a concurrent release may start it the moment it is parked;
// holding r.mu keeps that id the next one, and a rejection takes none.
func (r *registry) admit(adm *sched.Admission[*submission], kind, tenant, name string, start func(*submission)) (b *submission, run bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	b = &submission{id: strconv.Itoa(r.seq + 1), kind: kind, tenant: tenant, name: name, start: start, state: subQueued}
	if run, err = adm.Acquire(tenant, b); err != nil {
		return nil, false, err
	}
	r.seq++
	r.subs[b.id] = b
	r.order = append(r.order, b.id)
	return b, run, nil
}

func (r *registry) get(id string) *submission {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.subs[id]
}

func (r *registry) list() []Status {
	r.mu.Lock()
	subs := make([]*submission, 0, len(r.order))
	for _, id := range r.order {
		subs = append(subs, r.subs[id])
	}
	r.mu.Unlock()
	out := make([]Status, len(subs))
	for i, b := range subs {
		out[i] = b.status()
	}
	return out
}

func (r *registry) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.subs)
}

// idle reports whether every accepted submission is terminal.
func (r *registry) idle() bool {
	r.mu.Lock()
	subs := make([]*submission, 0, len(r.subs))
	for _, b := range r.subs {
		//moonvet:allow detrange order-insensitive: idle() reduces the collected set with AND, so collection order is unobservable
		subs = append(subs, b)
	}
	r.mu.Unlock()
	for _, b := range subs {
		if !b.terminal() {
			return false
		}
	}
	return true
}

// JobRequest is the POST /v1/jobs body: a word-count job over explicit
// inputs, or over a deterministic synthetic corpus (splits ×
// words_per_split), run on the shared persistent cluster.
type JobRequest struct {
	Name     string `json:"name"`
	Reduces  int    `json:"reduces,omitempty"`  // default 1
	Priority int    `json:"priority,omitempty"` // read by the "priority" policy

	Inputs        []string `json:"inputs,omitempty"`
	Splits        int      `json:"splits,omitempty"`
	WordsPerSplit int      `json:"words_per_split,omitempty"`
}

// validate rejects a malformed request and applies the defaults; it builds
// nothing, so a rejected request has not paid for a corpus.
func (req *JobRequest) validate() error {
	if req.Name == "" {
		return errors.New("name is required")
	}
	if req.Reduces == 0 {
		req.Reduces = 1
	}
	if req.Reduces < 1 {
		return errors.New("reduces must be >= 1")
	}
	switch {
	case len(req.Inputs) > 0 && req.Splits > 0:
		return errors.New("give either inputs or splits, not both")
	case len(req.Inputs) == 0 && req.Splits <= 0:
		return errors.New("give inputs (one string per split) or splits > 0")
	case req.Splits > 0:
		if req.WordsPerSplit <= 0 {
			req.WordsPerSplit = 100
		}
	case req.WordsPerSplit != 0:
		return errors.New("words_per_split only applies to synthetic splits")
	}
	return nil
}

// job lowers a validated request to an engine job, generating the corpus
// if it asks for one. The engine name is prefixed with the submission ID:
// engine jobs are keyed by name, and two tenants may both call theirs "sort".
func (req JobRequest) job(subID string) engine.Job {
	j := engine.WordCountJob("s"+subID+"."+req.Name, 0, req.Splits, req.WordsPerSplit, req.Reduces)
	if req.Splits == 0 {
		j.Inputs = req.Inputs
	}
	j.Priority = req.Priority
	return j
}

// handleSubmitJob accepts one direct job: decode strictly, validate, admit
// against the tenant quota, and only then register it and submit it to the
// persistent cluster (or park it queued). A request answered 400 or 429
// takes no id and builds no input.
func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	if !s.requireAccepting(w) {
		return
	}
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", "invalid job body: "+err.Error())
		return
	}
	if err := req.validate(); err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	sub := s.admit(w, "job", tenantOf(r), req.Name, func(sub *submission) { s.startJob(sub, req) })
	if sub != nil {
		writeJSON(w, http.StatusAccepted, sub.status())
	}
}

// startJob builds the job, submits it and watches for completion.
func (s *Server) startJob(sub *submission, req JobRequest) {
	h, err := s.cluster.Submit(req.job(sub.id))
	if err != nil {
		sub.finish(fmt.Errorf("submit: %w", err), nil, nil, "")
		s.hub.broadcast("job", sub.status())
		s.release(sub.tenant)
		return
	}
	sub.setRunning(h)
	s.hub.broadcast("job", sub.status())
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		<-h.Done()
		_, prof, err := h.Wait(context.Background())
		var report []byte
		if err == nil {
			report = jobReport(sub, prof, s.cfg.MetricsBucket)
		}
		final := h.Status()
		sub.finish(err, &final, report, "")
		s.hub.broadcast("job", sub.status())
		s.release(sub.tenant)
	}()
}

// jobReport synthesizes a one-experiment moon-metrics/v1 document from a
// finished job's profile, using the same instrument names the engine
// publishes so service reports read like CLI ones.
func jobReport(sub *submission, prof engine.JobProfile, bucket float64) []byte {
	col := metrics.New(bucket)
	col.Counter(metrics.LayerEngine, "map_attempts", "").Add(float64(prof.Stats.MapAttempts))
	col.Counter(metrics.LayerEngine, "reduce_attempts", "").Add(float64(prof.Stats.ReduceAttempts))
	col.Counter(metrics.LayerEngine, "map_reexecs", "").Add(float64(prof.Stats.MapReexecs))
	col.Counter(metrics.LayerEngine, "backup_copies", "").Add(float64(prof.Stats.BackupCopies))
	col.Counter(metrics.LayerEngine, "fetch_failures", "").Add(float64(prof.Stats.FetchFailures))
	col.Gauge(metrics.LayerEngine, "queue_wait_seconds", sub.name).Set(prof.QueueWait.Seconds())
	col.Gauge(metrics.LayerEngine, "makespan_seconds", sub.name).Set(prof.Makespan.Seconds())
	report := metrics.NewExport("moonbenchd")
	report.Scenario = "job:" + sub.name
	report.Add("direct job", sub.name, 0, 1, col.Snapshot())
	var buf bytes.Buffer
	_ = report.WriteJSON(&buf)
	return buf.Bytes()
}

// handleSubmitScenario accepts a strict moon-scenario/v1 spec, compiles
// it, and (once admitted) runs it through the identical Parse → Compile →
// Plan.Execute → Export path as `moonbench -scenario`, so a deterministic
// spec's report is byte-identical to the CLI's.
func (s *Server) handleSubmitScenario(w http.ResponseWriter, r *http.Request) {
	if !s.requireAccepting(w) {
		return
	}
	spec, err := scenario.Parse(http.MaxBytesReader(w, r.Body, 4<<20))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	plan, err := scenario.Compile(spec)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	// Stream every cell's instrument updates to /v1/events subscribers.
	plan.Config.MetricsSink = s.sink

	sub := s.admit(w, "scenario", tenantOf(r), spec.Name, func(sub *submission) { s.startScenario(sub, spec, plan) })
	if sub != nil {
		writeJSON(w, http.StatusAccepted, sub.status())
	}
}

// startScenario runs the compiled plan in a service goroutine.
func (s *Server) startScenario(sub *submission, spec *scenario.Spec, plan *scenario.Plan) {
	sub.mu.Lock()
	sub.state = subRunning
	sub.mu.Unlock()
	s.hub.broadcast("job", sub.status())
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		var out bytes.Buffer
		report := spec.NewReport("moonbench")
		err := plan.Execute(&out, report)
		var doc []byte
		if err == nil {
			var buf bytes.Buffer
			if werr := report.WriteJSON(&buf); werr != nil {
				err = werr
			} else {
				doc = buf.Bytes()
			}
		}
		sub.finish(err, nil, doc, out.String())
		s.hub.broadcast("job", sub.status())
		s.release(sub.tenant)
	}()
}

func (s *Server) handleListJobs(w http.ResponseWriter) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.reg.list()})
}

func (s *Server) handleJobStatus(w http.ResponseWriter, id string) {
	sub := s.reg.get(id)
	if sub == nil {
		writeErr(w, http.StatusNotFound, "not_found", "no submission "+id)
		return
	}
	writeJSON(w, http.StatusOK, sub.status())
}

// handleJobReport serves the finished moon-metrics/v1 document; 409 until
// the submission is terminal, 502-style failure detail if it failed.
func (s *Server) handleJobReport(w http.ResponseWriter, id string) {
	sub := s.reg.get(id)
	if sub == nil {
		writeErr(w, http.StatusNotFound, "not_found", "no submission "+id)
		return
	}
	sub.mu.Lock()
	state, errMsg, report := sub.state, sub.errMsg, sub.report
	sub.mu.Unlock()
	switch state {
	case subFailed:
		writeErr(w, http.StatusConflict, "failed", "submission failed: "+errMsg)
	case subDone:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(report)
	default:
		writeErr(w, http.StatusConflict, "not_finished",
			fmt.Sprintf("submission %s is %s; poll /v1/jobs/%s until done", id, state, id))
	}
}
