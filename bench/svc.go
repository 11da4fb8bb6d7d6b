package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The svc-open workload: moonbenchd as a child process, driven open-loop.
const (
	svcRate       = 50.0 // submissions per second, fixed: under 20 % of two cores
	svcTenants    = 8
	svcGenerators = 2 // generator goroutines and connections: nproc on the reference box
	svcWarmups    = 150
	svcSampleEach = 50 // every 50th operation also reads its report and the list
	svcPollEvery  = time.Millisecond
	svcOpTimeout  = 10 * time.Second
	svcRounds     = 3                      // fresh daemons a run drives the same schedule at
	svcTail       = 300 * time.Millisecond // kept free at the end of a round for its last operations
	svcClosedLoop = 5 * time.Second

	svcJobBody = `{"name":"bench","splits":8,"words_per_split":4000,"reduces":3}`
	svcMaps    = 8
	svcReduces = 3
)

// daemon is one running moonbenchd child.
type daemon struct {
	c    *child
	base string // http://127.0.0.1:port
}

// startDaemon starts moonbenchd on a free port, reads the address it
// prints, and waits until /healthz answers.
func (r *runner) startDaemon() (*daemon, error) {
	cmd := exec.Command(r.bin("moonbenchd"), "-addr", "127.0.0.1:0", "-max-concurrent", "0", "-volatile", "4", "-dedicated", "1")
	cmd.Env = childEnv("")
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd.Stdout, cmd.Stderr = pw, os.Stderr
	c, err := r.procs.start(cmd)
	pw.Close()
	if err != nil {
		pr.Close()
		return nil, err
	}
	// The reader drains the pipe until the daemon ends, so the daemon never
	// blocks on a full pipe; the first matching line is the address.
	addr := make(chan string, 1)
	go func() {
		defer pr.Close()
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			if _, url, ok := strings.Cut(sc.Text(), "listening on "); ok {
				select {
				case addr <- strings.TrimSpace(url):
				default:
				}
			}
		}
	}()
	d := &daemon{c: c}
	select {
	case d.base = <-addr:
	case <-c.done:
		return nil, fmt.Errorf("moonbenchd ended before listening: %v", c.err)
	case <-time.After(10 * time.Second):
		c.kill()
		return nil, errors.New("moonbenchd printed no address within 10 s")
	}
	client := &http.Client{Timeout: time.Second}
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			c.kill()
			return nil, fmt.Errorf("moonbenchd /healthz not ready within 10 s: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// svcStatus is the part of a submission status the benchmark reads.
type svcStatus struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Error  string `json:"error"`
	Engine *struct {
		MapsDone     int                `json:"maps_done"`
		MapsTotal    int                `json:"maps_total"`
		ReducesDone  int                `json:"reduces_done"`
		ReducesTotal int                `json:"reduces_total"`
		QueueWaitNS  float64            `json:"queue_wait_ns"`
		MakespanNS   float64            `json:"makespan_ns"`
		Stats        map[string]float64 `json:"stats"`
	} `json:"engine"`
}

// stat reads one engine attempt statistic whatever its key's spelling
// (MapAttempts today; map_attempts if the field ever gets a tag).
func (st *svcStatus) stat(name string) float64 {
	if st.Engine == nil {
		return 0
	}
	want := strings.ReplaceAll(name, "_", "")
	for _, k := range sortedKeys(st.Engine.Stats) {
		if strings.EqualFold(strings.ReplaceAll(k, "_", ""), want) {
			return st.Engine.Stats[k]
		}
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// opRecord is what one operation leaves behind.
type opRecord struct {
	ok        bool
	rejected  bool
	latencyMS float64 // due → the poll that saw "done"
	lateMS    float64 // due → actually sent
	polls     int
	status    svcStatus
}

// generator is one load-generating goroutine with its own connection.
type generator struct {
	base   string
	client *http.Client
	tr     *tracer // nil unless this stretch is traced
	buf    bytes.Buffer

	listMS []float64 // durations of the sampled GET /v1/jobs, in order
}

func newGenerator(base string) *generator {
	return &generator{base: base, client: &http.Client{
		Timeout:   svcOpTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
	}}
}

// do sends one request and returns the status code with the whole body,
// which stays valid until the next call.
func (g *generator) do(method, path, tenant string, body string) (int, []byte, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, g.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-Moon-Tenant", tenant)
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	g.buf.Reset()
	if _, err := g.buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, g.buf.Bytes(), nil
}

// operation is one user action: submit a word count, poll it every
// millisecond until it is done, check what came back; a sampled operation
// also fetches its report and the list. due is when it was scheduled; the
// latency counts from there, so a generator that falls behind cannot hide
// the service's stalls.
func (g *generator) operation(i int, due time.Time, sample bool) (rec opRecord, err error) {
	tenant := fmt.Sprintf("tenant-%d", i%svcTenants)
	root := g.tr.begin("submission", -1, i)
	defer func() { g.tr.end(root) }()
	rec.lateMS = ms(time.Since(due))

	sp := g.tr.begin("http.submit", root, i)
	code, body, err := g.do(http.MethodPost, "/v1/jobs", tenant, svcJobBody)
	g.tr.end(sp)
	if err != nil {
		return rec, fmt.Errorf("submit: %w", err)
	}
	if code == http.StatusTooManyRequests {
		rec.rejected = true
		return rec, errors.New("submit: refused with 429")
	}
	if code != http.StatusAccepted {
		return rec, fmt.Errorf("submit: status %d: %s", code, firstLine(string(body)))
	}
	var st svcStatus
	if err := json.Unmarshal(body, &st); err != nil || st.ID == "" {
		return rec, fmt.Errorf("submit: bad body: %v", err)
	}
	id := st.ID

	for deadline := due.Add(svcOpTimeout); ; {
		sp := g.tr.begin("http.poll", root, i)
		code, body, err := g.do(http.MethodGet, "/v1/jobs/"+id, tenant, "")
		g.tr.end(sp)
		rec.polls++
		if err != nil || code != http.StatusOK {
			return rec, fmt.Errorf("poll %s: status %d: %v", id, code, err)
		}
		st = svcStatus{}
		if err := json.Unmarshal(body, &st); err != nil {
			return rec, fmt.Errorf("poll %s: %w", id, err)
		}
		if st.State == "done" {
			rec.latencyMS = ms(time.Since(due))
			break
		}
		if st.State == "failed" {
			return rec, fmt.Errorf("submission %s failed: %s", id, st.Error)
		}
		if time.Now().After(deadline) {
			return rec, fmt.Errorf("submission %s not done after %s", id, svcOpTimeout)
		}
		time.Sleep(svcPollEvery)
	}
	rec.status = st

	sp = g.tr.begin("verify", root, i)
	e := st.Engine
	complete := e != nil && e.MapsDone == svcMaps && e.MapsTotal == svcMaps && e.ReducesDone == svcReduces && e.ReducesTotal == svcReduces
	g.tr.end(sp)
	if !complete {
		return rec, fmt.Errorf("submission %s done but incomplete: %+v", id, e)
	}
	if sample {
		rp := g.tr.begin("http.report", root, i)
		code, body, err := g.do(http.MethodGet, "/v1/jobs/"+id+"/report", tenant, "")
		g.tr.end(rp)
		if err != nil || code != http.StatusOK {
			return rec, fmt.Errorf("report %s: status %d: %v", id, code, err)
		}
		if _, err := parseReport(body); err != nil {
			return rec, fmt.Errorf("report %s: %w", id, err)
		}
		t0 := time.Now()
		lp := g.tr.begin("http.list", root, i)
		code, body, err = g.do(http.MethodGet, "/v1/jobs", tenant, "")
		g.tr.end(lp)
		g.listMS = append(g.listMS, ms(time.Since(t0)))
		if err != nil || code != http.StatusOK {
			return rec, fmt.Errorf("list: status %d: %v", code, err)
		}
		var list struct {
			Jobs []struct {
				ID string `json:"id"`
			} `json:"jobs"`
		}
		if err := json.Unmarshal(body, &list); err != nil {
			return rec, fmt.Errorf("list: %w", err)
		}
		found := false
		for _, j := range list.Jobs {
			found = found || j.ID == id
		}
		if !found {
			return rec, fmt.Errorf("list: submission %s is missing", id)
		}
	}
	rec.ok = true
	return rec, nil
}

// arrivals is the open loop's schedule: n arrival offsets over span. A
// Poisson process observed to have n arrivals in an interval has them at n
// sorted uniform draws, which fixes the count (and so what the daemon's
// never-evicted registry retains) while --seed moves every gap.
func arrivals(seed uint64, n int, span time.Duration) []time.Duration {
	rnd := splitmix(seed)
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rnd.float() * float64(span))
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// splitmix is SplitMix64: the benchmark's inputs come from --seed alone.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix) float() float64 { return float64(s.next()>>11) / (1 << 53) }

// openLoop runs the schedule on the generators: each takes the next due
// operation, sleeps until it is due, and runs it. It returns one record per
// operation. With tracers (one per generator) every operation is traced.
func (r *runner) openLoop(gens []*generator, tracers []*tracer, sched []time.Duration) []opRecord {
	recs := make([]opRecord, len(sched))
	var next atomic.Int64
	var mu sync.Mutex // guards r.problem
	epoch := time.Now()
	var wg sync.WaitGroup
	for gi, g := range gens {
		g.tr = nil
		if tracers != nil {
			g.tr = tracers[gi]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sched) {
					return
				}
				due := epoch.Add(sched[i])
				time.Sleep(time.Until(due))
				rec, err := g.operation(i, due, i%svcSampleEach == svcSampleEach-1)
				if err != nil {
					mu.Lock()
					r.problem("operation %d: %v", i, err)
					mu.Unlock()
				}
				recs[i] = rec
			}
		}()
	}
	wg.Wait()
	return recs
}

// closedLoop runs the generators back to back (each sends its next
// submission as soon as the last is done) for d and returns operations/s.
func (r *runner) closedLoop(gens []*generator, d time.Duration) float64 {
	var done atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for gi, g := range gens {
		g.tr = nil
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; time.Since(start) < d; n++ {
				if _, err := g.operation(gi+n*len(gens), time.Now(), false); err != nil {
					return
				}
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	return float64(done.Load()) / time.Since(start).Seconds()
}

// setupService is what a tenant waits for before the first submission can
// be timed: the daemon starts, answers /healthz, and has served the warm-up
// submissions (so the connection, the engine pool and the code are warm).
func (r *runner) setupService() (*daemon, error) {
	d, err := r.startDaemon()
	if err != nil {
		return nil, err
	}
	g := newGenerator(d.base)
	defer g.client.CloseIdleConnections()
	for i := 0; i < svcWarmups; i++ {
		if _, err := g.operation(i, time.Now(), false); err != nil {
			r.procs.stopGracefully(d.c, 5*time.Second)
			return nil, fmt.Errorf("warm-up %d: %w", i, err)
		}
	}
	return d, nil
}

// svcRound is one daemon's life: set up, the open loop, stopped.
type svcRound struct {
	setupS     float64
	recs       []opRecord
	gens       []*generator
	tracers    []*tracer
	peakRSSKB  int64
	rssGrownKB float64 // daemon RSS after the open loop minus before
	loadgenCPU time.Duration
}

// latencies lists the round's verified operations' latencies.
func (sr *svcRound) latencies() []float64 {
	var lat []float64
	for _, rec := range sr.recs {
		if rec.ok {
			lat = append(lat, rec.latencyMS)
		}
	}
	return lat
}

// serviceRound runs one daemon through set-up and the open loop. after, when not
// nil, runs against the still-warm daemon before it is stopped.
func (r *runner) serviceRound(sched []time.Duration, traced bool, tid int, after func(*svcRound)) (*svcRound, error) {
	t0 := time.Now()
	d, err := r.setupService()
	if err != nil {
		return nil, err
	}
	sr := &svcRound{setupS: time.Since(t0).Seconds()}
	for i := 0; i < svcGenerators; i++ {
		sr.gens = append(sr.gens, newGenerator(d.base))
		if traced {
			sr.tracers = append(sr.tracers, newTracer(r.began, tid+i, 16*len(sched)))
		}
	}
	rssBefore := vmRSSKB(d.c.cmd.Process.Pid)
	cpuBefore := selfCPU()
	sr.recs = r.openLoop(sr.gens, sr.tracers, sched)
	sr.loadgenCPU = selfCPU() - cpuBefore
	sr.rssGrownKB = vmRSSKB(d.c.cmd.Process.Pid) - rssBefore
	if after != nil {
		after(sr)
	}
	for _, g := range sr.gens {
		g.client.CloseIdleConnections()
	}
	// SIGTERM drains and stops the daemon; only then is its peak RSS known.
	r.procs.stopGracefully(d.c, 15*time.Second)
	sr.peakRSSKB, _ = d.c.rusage()
	return sr, nil
}

// runService runs svc-open. Like the simulator workloads it repeats
// identical work and keeps the fastest: every round starts a fresh daemon
// and drives the same seeded arrival schedule at it, and op_ms is the
// lowest of the rounds' median latencies. The host only ever adds time, in
// stretches that can outlast a round, so the median of one long loop moved
// 13-20 % between runs of the same code where the fastest of three moved a
// third of that. A fresh daemon each round also makes every round retain
// the same number of submissions, so peak RSS does not depend on the host.
func (r *runner) runService() (*detail, error) {
	preamble := time.Since(r.began).Seconds()
	span := time.Duration(r.seconds*float64(time.Second))/svcRounds - svcTail
	n := int(svcRate * span.Seconds())
	if n < 1 {
		return nil, fmt.Errorf("--seconds %v leaves no room for %d rounds", r.seconds, svcRounds)
	}
	sched := arrivals(r.seed, n, span)

	res := newResult(r.trace)
	var rounds []*svcRound
	if !r.trace {
		for i := 0; i < svcRounds; i++ {
			sr, err := r.serviceRound(sched, false, 0, nil)
			if err != nil {
				return nil, err
			}
			rounds = append(rounds, sr)
		}
	} else {
		// One round with the spans off, one with them on; the closed
		// loop borrows the second daemon before it stops.
		plain, err := r.serviceRound(sched, false, 0, nil)
		if err != nil {
			return nil, err
		}
		traced, err := r.serviceRound(sched, true, 1, func(sr *svcRound) {
			res.set("service.closed_loop_ops_per_s", r.closedLoop(sr.gens, svcClosedLoop))
		})
		if err != nil {
			return nil, err
		}
		rounds = []*svcRound{plain, traced}
	}

	var setups, medians, late, rssMB []float64
	for _, sr := range rounds {
		setups = append(setups, sr.setupS)
		rssMB = append(rssMB, float64(sr.peakRSSKB)/1024)
		for _, rec := range sr.recs {
			res.Attempted++
			if rec.ok {
				late = append(late, rec.lateMS)
			} else {
				res.Failed++
			}
		}
		if lat := sr.latencies(); len(lat) > 0 {
			medians = append(medians, median(lat))
		}
	}
	if len(medians) != len(rounds) {
		return nil, errors.New("a round completed no operation")
	}
	opMS := slices.Min(medians)

	if !r.trace {
		res.set("setup_s", preamble+median(setups))
		res.set("op_ms", opMS)
		res.set("peak_rss_mb", slices.Min(rssMB)) // identical rounds: the repeatable footprint
	} else {
		plain, traced := rounds[0], rounds[1]
		r.serviceLayers(&res, plain, traced)
		res.set("host.noise_ratio", ratio(median(medians), opMS))
		res.set("loadgen.late_p99_ms", percentile(late, 99))
		res.set("fail_ratio", ratio(float64(res.Failed), float64(res.Attempted)))
		r.liveChurn(&res)
		r.drivers("live", &res)
		if err := writeChromeTrace(r.outPath("svc-open.trace.json"), traced.tracers...); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0
	logf("svc-open: %d rounds of %d operations, %d failed, round medians %.2f ms, fastest %.2f ms, late p99 %.2f ms, set-up %.2f s",
		len(rounds), n, res.Failed, medians, opMS, percentile(late, 99), median(setups))
	return &detail{Result: res}, nil
}

// serviceLayers fills the whole-run, service and engine metrics of a
// traced run from the plain round, the traced round and its spans.
func (r *runner) serviceLayers(res *result, plain, traced *svcRound) {
	var all, polls, makespan, queueWait []float64
	var mapAtt, redAtt, backups, rejected float64
	for _, sr := range []*svcRound{plain, traced} {
		for _, rec := range sr.recs {
			if rec.rejected {
				rejected++
			}
			if !rec.ok {
				continue
			}
			all = append(all, rec.latencyMS)
			polls = append(polls, float64(rec.polls))
			makespan = append(makespan, rec.status.Engine.MakespanNS/1e6)
			queueWait = append(queueWait, rec.status.Engine.QueueWaitNS/1e6)
			mapAtt += rec.status.stat("map_attempts")
			redAtt += rec.status.stat("reduce_attempts")
			backups += rec.status.stat("backup_copies")
		}
	}
	ops := float64(len(all))
	_, tail := tailPercentile(all)
	res.set("op_p50_ms", median(all))
	res.set("op_tail_ms", tail)
	res.set("op_samples", ops)
	res.set("trace_overhead_ratio", ratio(median(traced.latencies()), median(plain.latencies())))

	var spans []span
	for _, t := range traced.tracers {
		base := len(spans)
		for _, sp := range t.spans {
			if sp.Parent >= 0 {
				sp.Parent += base // parents index their own tracer
			}
			spans = append(spans, sp)
		}
		if t.dropped > 0 {
			logf("%d spans dropped: tracer capacity too small", t.dropped)
		}
	}
	logf("svc-open: span self time: %s", selfSummary(spans))
	res.set("service.submit_ms_p50", median(durationsMS(spans, "http.submit")))
	pollMS := durationsMS(spans, "http.poll")
	res.set("service.poll_ms_p50", median(pollMS))
	res.set("service.poll_ms_p99", percentile(pollMS, 99))
	res.set("service.polls_per_op", ratio(sum(polls), ops))
	res.set("service.report_ms_p50", median(durationsMS(spans, "http.report")))
	res.set("service.rejected", rejected)

	// The list grows with every retained submission: the first against the
	// last sampled read of a round is where registry eviction would show.
	var listMS []float64
	for _, g := range traced.gens {
		listMS = append(listMS, g.listMS...)
	}
	if len(listMS) > 0 {
		// Generators interleave, so the extremes stand in for first and
		// last: the list only grows.
		res.set("service.list_ms_first", slices.Min(listMS))
		res.set("service.list_ms_last", slices.Max(listMS))
	}
	res.set("service.rss_kb_per_op", ratio(traced.rssGrownKB, float64(len(traced.recs))))
	res.set("loadgen.cpu_ms_per_op", ratio(ms(plain.loadgenCPU+traced.loadgenCPU), float64(len(plain.recs)+len(traced.recs))))

	res.set("engine.makespan_p50_ms", median(makespan))
	res.set("engine.queue_wait_p50_ms", median(queueWait))
	res.set("engine.map_attempts", ratio(mapAtt, ops))
	res.set("engine.reduce_attempts", ratio(redAtt, ops))
	res.set("engine.backup_copies", ratio(backups, ops))
}

// liveChurn runs the live engine under churn once, through moonbench, and
// reads the engine and transport counters from its report: the engine's
// failure handling is a layer of svc-open that a quiet service never
// exercises, and too noisy under churn to bound.
func (r *runner) liveChurn(res *result) {
	report := r.outPath("live-churn.metrics.json")
	cmd := exec.Command(r.bin("moonbench"), "-scenario", r.dir+"/workloads/live-churn.json",
		"-seeds", fmt.Sprint(planSeed(r.seed, 0)), "-metrics", report)
	cmd.Env = childEnv("")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	c, err := r.procs.start(cmd)
	if err == nil {
		err = r.procs.waitTimeout(c, planTimeout)
	}
	if err != nil {
		r.problem("live-churn: %v: %s", err, firstLine(stderr.String()))
		return
	}
	rep, err := readReport(report)
	if err != nil {
		r.problem("live-churn: %v", err)
		return
	}
	cnt := newCounts()
	cnt.add(rep)
	res.set("engine.churn_spec_ms", ms(c.wall))
	res.set("engine.map_reexecs", cnt.sum["engine.map_reexecs"])
	attempts := cnt.sum["engine.map_attempts"] + cnt.sum["engine.reduce_attempts"]
	res.set("engine.attempt_waste_ratio", ratio(attempts-liveChurnTasks, attempts))
	for _, name := range []string{"sends", "retries", "lease_expiries"} {
		res.set("transport."+name, cnt.sum["transport."+name])
	}
	res.set("transport.retry_ratio", ratio(cnt.sum["transport.retries"], cnt.sum["transport.sends"]))
}

// liveChurnTasks is the useful work in workloads/live-churn.json: 8 jobs of
// 16 maps and 3 reduces.
const liveChurnTasks = 8 * (16 + 3)
