// Command bench-drivers times single layers of the repo through their Go
// APIs: short benchmark-owned loops, the median time per call of each. It
// is a program of its own so that a refactor which breaks one of these
// calls costs the per-layer numbers below and not the benchmark: the
// end-to-end metrics are measured by the runner, which imports nothing
// from the repo.
//
//	bench-drivers -group sim    # sim, netmodel, trace, scenario, metrics
//	bench-drivers -group live   # sched, service, engine, transport, metrics
//
// It prints one JSON object, metric name to value.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/netmodel"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
)

// loopFor is how long each driver loops.
const loopFor = 200 * time.Millisecond

// batch runs some calls and reports how many and how long the timed part
// took; set-up inside it is not timed.
type batch func() (calls int, elapsed time.Duration)

// perCall runs b for loopFor and returns the median time of one call, in
// nanoseconds.
func perCall(b batch) float64 {
	var per []float64
	for start := time.Now(); time.Since(start) < loopFor || len(per) < 3; {
		calls, elapsed := b()
		per = append(per, float64(elapsed)/float64(calls))
	}
	sort.Float64s(per)
	return per[len(per)/2]
}

// timed makes a batch of n calls to f, timed as a whole.
func timed(n int, f func()) batch {
	return func() (int, time.Duration) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		return n, time.Since(t0)
	}
}

func us(ns float64) float64 { return ns / 1e3 }
func ms(ns float64) float64 { return ns / 1e6 }

func main() {
	group := flag.String("group", "", "sim or live")
	flag.Parse()
	out := map[string]float64{}
	var err error
	switch *group {
	case "sim":
		err = simGroup(out)
	case "live":
		err = liveGroup(out)
	default:
		err = fmt.Errorf("unknown group %q", *group)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench-drivers:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "bench-drivers:", err)
		os.Exit(1)
	}
}

func metricsDrivers(out map[string]float64) {
	c := metrics.New(300).Counter(metrics.LayerSim, "bench", "")
	out["metrics.counter_add_ns"] = perCall(timed(100000, func() { c.Add(1) }))
	var off *metrics.Counter
	out["metrics.nil_counter_add_ns"] = perCall(timed(100000, func() { off.Add(1) }))
}

// scheduleFire is schedule+fire against a standing backlog of far-future
// events: the simulator's basic cost at a small and at a fleet-sized queue.
func scheduleFire(pending int) float64 {
	s := sim.New()
	fn := func() {}
	for i := 0; i < pending; i++ {
		s.Schedule(1e6+float64(i)*0.25, "bg", fn)
	}
	i := 0
	return perCall(timed(20000, func() {
		s.Schedule(float64(i)*1e-3, "e", fn)
		s.Step()
		i++
	}))
}

func quietFleet(s *sim.Simulation) *cluster.Cluster {
	traces := make([]trace.Trace, 60)
	for i := range traces {
		traces[i] = trace.Trace{Duration: 1e12}
	}
	return cluster.New(s, cluster.Config{VolatileTraces: traces, DedicatedNodes: 6})
}

func simGroup(out map[string]float64) error {
	out["sim.schedule_fire_ns_4k"] = scheduleFire(4096)
	out["sim.schedule_fire_ns_100k"] = scheduleFire(100000)

	s := sim.New()
	fn := func() {}
	i := 0
	out["sim.schedule_cancel_ns"] = perCall(timed(20000, func() {
		s.Cancel(s.Schedule(float64(i)+1e6, "e", fn))
		i++
	}))

	// The arrival side of a fan-in burst: 64 transfers into one sink
	// started in one event, then the settle pass for that instant.
	const flows = 64
	out["netmodel.fanin_us_per_flow"] = us(perCall(func() (int, time.Duration) {
		s := sim.New()
		c := cluster.New(s, cluster.Config{DedicatedNodes: flows + 1})
		n := netmodel.New(s, c, netmodel.DefaultConfig())
		sink := c.Node(0)
		s.After(0, "burst", func() {
			for j := 0; j < flows; j++ {
				n.Transfer(c.Node(j+1), sink, 1e12, func(error) {})
			}
		})
		t0 := time.Now()
		s.Step()
		_ = n.TotalBytes()
		return flows, time.Since(t0)
	}))

	// A shuffle segment started and canceled on the paper's 66 nodes: the
	// reschedule traffic a rate change causes.
	s = sim.New()
	c := quietFleet(s)
	n := netmodel.New(s, c, netmodel.DefaultConfig())
	i = 0
	out["netmodel.transfer_cancel_ns"] = perCall(timed(2000, func() {
		n.Cancel(n.Transfer(c.Node(i%60), c.Node((i+7)%60), 530e3, func(error) {}))
		i++
	}))

	var genErr error
	out["trace.fleet_gen_ms"] = ms(perCall(timed(1, func() {
		if _, err := trace.GenerateFleet(rng.New(1), trace.DefaultOutageConfig(0.1), 1800, 4000); err != nil {
			genErr = err
		}
	})))
	if genErr != nil {
		return genErr
	}

	var spec strings.Builder
	if err := scenario.Builtins()[0].WriteJSON(&spec); err != nil {
		return err
	}
	var compileErr error
	out["scenario.parse_compile_us"] = us(perCall(timed(20, func() {
		sp, err := scenario.Parse(strings.NewReader(spec.String()))
		if err == nil {
			_, err = scenario.Compile(sp)
		}
		if err != nil {
			compileErr = err
		}
	})))
	if compileErr != nil {
		return compileErr
	}

	metricsDrivers(out)
	return nil
}

// offerJob is the least a scheduling decision needs of a job.
type offerJob struct {
	name   string
	active int
}

func (j offerJob) Name() string        { return j.name }
func (j offerJob) Done() bool          { return false }
func (j offerJob) ActiveAttempts() int { return j.active }
func (j offerJob) Priority() int       { return 0 }

// roundTrip is one message there and one back over an established pair.
func roundTrip(t transport.Transport) (float64, error) {
	lis, err := t.Listen("srv")
	if err != nil {
		return 0, err
	}
	defer lis.Close()
	cli, err := t.Dial("cli", "srv", time.Second)
	if err != nil {
		return 0, err
	}
	defer cli.Close()
	srv, err := lis.Accept(time.Second)
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	var opErr error
	d := perCall(timed(2000, func() {
		if err := cli.Send("ping", time.Second); err != nil {
			opErr = err
		}
		if _, err := srv.Recv(time.Second); err != nil {
			opErr = err
		}
		if err := srv.Send("pong", time.Second); err != nil {
			opErr = err
		}
		if _, err := cli.Recv(time.Second); err != nil {
			opErr = err
		}
	}))
	return d, opErr
}

func wordCount(splits, words int) engine.Job {
	inputs := make([]string, splits)
	for s := range inputs {
		inputs[s] = strings.Repeat("moon map reduce volunteer ", words/4)
	}
	return engine.Job{
		Name: "bench", Inputs: inputs, Reduces: 3,
		Map: func(input string, emit func(k, v string)) {
			for _, w := range strings.Fields(input) {
				emit(w, "1")
			}
		},
		Reduce: func(key string, values []string) string { return fmt.Sprint(len(values)) },
	}
}

func liveGroup(out map[string]float64) error {
	// One slot offer: eight running jobs ranked by fair share.
	q := sched.NewQueue(sched.FairShare[offerJob](), nil)
	for i := 0; i < 8; i++ {
		if err := q.Submit(offerJob{name: fmt.Sprint("job", i), active: (i * 5) % 8}); err != nil {
			return err
		}
	}
	out["sched.offer_ns"] = perCall(timed(20000, func() { _ = q.Order() }))

	// The submit handler alone, no socket: decode, admit, register, hand to
	// the engine. The jobs it accepts run behind it and are drained after.
	srv, err := service.New(service.Config{
		VolatileWorkers: 4, DedicatedWorkers: 1,
		Quota: sched.QuotaConfig{MaxConcurrent: -1},
	})
	if err != nil {
		return err
	}
	status := 0
	out["service.handler_submit_us"] = us(perCall(timed(20, func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(`{"name":"bench","splits":2,"words_per_split":40}`))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		status = rec.Code
	})))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	err = srv.Drain(ctx)
	srv.Close()
	if err != nil {
		return fmt.Errorf("service drain: %w", err)
	}
	if status != http.StatusAccepted {
		return fmt.Errorf("service submit: status %d", status)
	}

	// The job svc-open submits, on a quiet engine with nothing in front.
	cl, err := engine.New(engine.DefaultConfig())
	if err != nil {
		return err
	}
	job := wordCount(8, 4000)
	var runErr error
	out["engine.quiet_job_ms"] = ms(perCall(timed(1, func() {
		if _, _, err := cl.Run(ctx, job); err != nil {
			runErr = err
		}
	})))
	cl.Close()
	if runErr != nil {
		return fmt.Errorf("engine run: %w", runErr)
	}

	rt, err := roundTrip(transport.NewLoopback())
	if err != nil {
		return fmt.Errorf("transport: %w", err)
	}
	out["transport.roundtrip_us"] = us(rt)
	flaky, err := transport.NewFlaky(transport.NewLoopback(), transport.FaultConfig{Seed: 1})
	if err != nil {
		return err
	}
	if rt, err = roundTrip(flaky); err != nil {
		return fmt.Errorf("flaky transport: %w", err)
	}
	out["transport.flaky_passthrough_us"] = us(rt)

	metricsDrivers(out)
	return nil
}
