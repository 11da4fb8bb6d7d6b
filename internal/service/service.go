// Package service wraps the live engine in a long-running multi-tenant
// HTTP/JSON daemon — the paper's many-users story: one persistent master
// serving a stream of submissions while volunteer nodes churn underneath.
//
// The versioned REST surface:
//
//	POST /v1/jobs          submit one word-count job to the shared cluster
//	GET  /v1/jobs          list submissions (newest last)
//	GET  /v1/jobs/{id}     poll one submission's status (lock-free snapshot)
//	GET  /v1/jobs/{id}/report  fetch the finished moon-metrics/v1 report
//	POST /v1/scenarios     submit a strict moon-scenario/v1 spec
//	GET  /v1/events        Server-Sent Events: live metric + job updates
//	GET  /healthz          liveness and drain state
//
// Scenario submissions run the exact CLI execution path (Parse → Compile →
// Plan.Execute → metrics.Export), so a deterministic spec's report is
// byte-identical to a `moonbench -scenario` run of the same spec.
// Admission control sits in front of everything: per-tenant quotas
// (identified by X-Moon-Tenant or an API key) bound concurrent and queued
// submissions through internal/sched, answering 429 with Retry-After when
// exceeded. Every 4xx/5xx body is structured JSON ({"code","message"}).
//
// What a submission holds follows its state. A request answered 400 or 429
// was never registered and built nothing; a parked submission holds its
// decoded request (the corpus is generated when it starts); a running job
// holds its engine handle; a terminal submission holds what a client can
// still ask for — identity, state, a copy of the engine's last status, the
// report (a couple of kB) — and not the handle, the results or the input.
// The registry still keeps every terminal submission (ROADMAP item 6).
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// Config shapes the daemon: the persistent engine pool serving direct job
// submissions, the default per-tenant quotas, and the streaming buffer.
type Config struct {
	// VolatileWorkers / DedicatedWorkers size the persistent cluster
	// direct job submissions run on (scenario submissions build their own
	// per-cell clusters, exactly like the CLI).
	VolatileWorkers  int
	DedicatedWorkers int
	// JobPolicy arbitrates the persistent cluster's slots between
	// concurrent jobs ("fifo" default, "fair", "weighted" at weight 1,
	// "priority").
	JobPolicy string

	// Quota is every tenant's admission quota.
	Quota sched.QuotaConfig

	// MetricsBucket is the series bucket width (seconds) of the
	// persistent cluster's collector and of scenario-run cells.
	MetricsBucket float64
	// EventBuffer bounds the streaming sink and each /v1/events
	// subscriber (updates drop rather than block a run; <= 0 selects
	// 4096).
	EventBuffer int
}

// DefaultConfig mirrors the engine's small hybrid pool with a modest
// default quota: 4 concurrent and 16 queued submissions per tenant.
func DefaultConfig() Config {
	return Config{
		VolatileWorkers:  4,
		DedicatedWorkers: 1,
		Quota:            sched.QuotaConfig{MaxConcurrent: 4, MaxQueued: 16},
		MetricsBucket:    1,
		EventBuffer:      4096,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.VolatileWorkers == 0 && c.DedicatedWorkers == 0 {
		c.VolatileWorkers, c.DedicatedWorkers = d.VolatileWorkers, d.DedicatedWorkers
	}
	if c.Quota == (sched.QuotaConfig{}) {
		c.Quota = d.Quota
	}
	if c.MetricsBucket <= 0 {
		c.MetricsBucket = d.MetricsBucket
	}
	if c.EventBuffer <= 0 {
		c.EventBuffer = d.EventBuffer
	}
	return c
}

// Server is the HTTP service: one persistent multi-tenant engine master,
// an admission controller, a submission registry, and the streaming hub.
// Create with New, mount as an http.Handler, Drain then Close to stop.
type Server struct {
	cfg     Config
	cluster *engine.Cluster
	sink    *metrics.StreamSink
	hub     *hub
	adm     *sched.Admission[*submission]
	reg     *registry

	draining atomic.Bool
	wg       sync.WaitGroup
}

// New starts the persistent engine cluster and the event pump.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	sink := metrics.NewStreamSink(cfg.EventBuffer)
	col := metrics.New(cfg.MetricsBucket)
	col.SetSink(sink)

	ecfg := engine.DefaultConfig()
	ecfg.VolatileWorkers = cfg.VolatileWorkers
	ecfg.DedicatedWorkers = cfg.DedicatedWorkers
	ecfg.JobPolicy = cfg.JobPolicy
	ecfg.Metrics = col
	cluster, err := engine.New(ecfg)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}

	s := &Server{
		cfg:     cfg,
		cluster: cluster,
		sink:    sink,
		hub:     newHub(cfg.EventBuffer),
		adm:     sched.NewAdmission[*submission](cfg.Quota),
		reg:     newRegistry(),
	}
	s.wg.Add(1)
	go s.pumpEvents()
	return s, nil
}

// Draining reports whether the server has stopped accepting submissions.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain stops accepting new submissions (503) and blocks until every
// accepted submission — running or queued — reaches a terminal state and
// the engine's last in-flight attempt retires, or ctx ends.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	if err := s.reg.waitIdle(ctx); err != nil {
		return err
	}
	return s.cluster.Drain(ctx)
}

// Close stops the engine cluster and the event stream and waits for every
// service goroutine (watchers, scenario runs, the pump) to exit. Undrained
// submissions fail with the cluster closure.
func (s *Server) Close() {
	s.draining.Store(true)
	s.cluster.Close()
	s.sink.Close()
	s.hub.closeAll()
	s.wg.Wait()
}

// pumpEvents fans the metrics sink out to every /v1/events subscriber.
func (s *Server) pumpEvents() {
	defer s.wg.Done()
	for u := range s.sink.Updates() {
		s.hub.broadcast("metric", u)
	}
}

// apiError is the structured body of every 4xx/5xx response.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, code, message string) {
	writeJSON(w, status, apiError{Code: code, Message: message})
}

// methodNotAllowed answers 405 with the canonical Allow header.
func methodNotAllowed(w http.ResponseWriter, allow ...string) {
	w.Header().Set("Allow", strings.Join(allow, ", "))
	writeErr(w, http.StatusMethodNotAllowed, "method_not_allowed",
		fmt.Sprintf("allowed methods: %s", strings.Join(allow, ", ")))
}

// tenantOf identifies the caller: the X-Moon-Tenant header, else a Bearer
// API key, else "anonymous". Quotas are accounted per identity.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Moon-Tenant"); t != "" {
		return t
	}
	if auth := r.Header.Get("Authorization"); strings.HasPrefix(auth, "Bearer ") {
		if key := strings.TrimSpace(strings.TrimPrefix(auth, "Bearer ")); key != "" {
			return key
		}
	}
	return "anonymous"
}

// ServeHTTP routes the versioned API by hand so unknown endpoints and
// methods answer consistent structured errors (404, and 405 with Allow).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	switch {
	case path == "/healthz":
		if r.Method != http.MethodGet {
			methodNotAllowed(w, http.MethodGet)
			return
		}
		s.handleHealthz(w)
	case path == "/v1/jobs":
		switch r.Method {
		case http.MethodGet:
			s.handleListJobs(w)
		case http.MethodPost:
			s.handleSubmitJob(w, r)
		default:
			methodNotAllowed(w, http.MethodGet, http.MethodPost)
		}
	case path == "/v1/scenarios":
		if r.Method != http.MethodPost {
			methodNotAllowed(w, http.MethodPost)
			return
		}
		s.handleSubmitScenario(w, r)
	case path == "/v1/events":
		if r.Method != http.MethodGet {
			methodNotAllowed(w, http.MethodGet)
			return
		}
		s.handleEvents(w, r)
	case strings.HasPrefix(path, "/v1/jobs/"):
		if r.Method != http.MethodGet {
			methodNotAllowed(w, http.MethodGet)
			return
		}
		rest := strings.TrimPrefix(path, "/v1/jobs/")
		id, tail, hasTail := strings.Cut(rest, "/")
		switch {
		case !hasTail:
			s.handleJobStatus(w, id)
		case tail == "report":
			s.handleJobReport(w, id)
		default:
			writeErr(w, http.StatusNotFound, "not_found", "unknown endpoint "+path)
		}
	default:
		writeErr(w, http.StatusNotFound, "not_found", "unknown endpoint "+path)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter) {
	status := "ok"
	if s.Draining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      status,
		"workers":     s.cluster.Workers(),
		"submissions": s.reg.count(),
	})
}

// admit registers the submission if admission control lets it run or park,
// and starts it if it may run. A rejection (429 with Retry-After) is
// answered here, returns nil and registers nothing.
func (s *Server) admit(w http.ResponseWriter, kind, tenant, name string, start func(*submission)) *submission {
	sub, run, err := s.reg.admit(s.adm, kind, tenant, name, start)
	if err != nil {
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, "quota_exceeded", err.Error())
		return nil
	}
	if run {
		sub.fire()
	}
	return sub
}

// release retires one running submission of the tenant and starts the
// parked submission admission control hands its slot to, if any.
func (s *Server) release(tenant string) {
	if next, ok := s.adm.Release(tenant); ok {
		next.fire()
	}
}

// requireAccepting answers 503 during drain.
func (s *Server) requireAccepting(w http.ResponseWriter) bool {
	if s.Draining() {
		writeErr(w, http.StatusServiceUnavailable, "draining",
			"the service is draining and accepts no new submissions")
		return false
	}
	return true
}

// waitIdle polls until every accepted submission is terminal.
func (r *registry) waitIdle(ctx context.Context) error {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if r.idle() {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}
