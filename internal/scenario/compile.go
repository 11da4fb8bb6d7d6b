package scenario

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/mapred"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/workload"
)

// RenderKind selects one output table of a compiled run.
type RenderKind int

const (
	RenderTimes RenderKind = iota
	RenderDuplicates
	RenderTable2
	RenderMulti
	RenderLive
)

// Render is one table to print from a run's sweep; Blank appends an empty
// line after it (the CLI's inter-table spacing).
type Render struct {
	Kind  RenderKind
	Blank bool
}

// PlanRun is one compiled experiment: the Figure 1 trace table, or a sweep
// of variant lines (simulated or live cells) plus the tables to render
// from it.
type PlanRun struct {
	// Fig1 runs the availability-trace figure instead of a sweep.
	Fig1 bool
	// Title is the sweep's display title.
	Title string
	// App labels Table II renders.
	App      string
	Variants []harness.Variant
	Renders  []Render
}

// Plan is a compiled scenario: the lowered sweep configuration plus the
// runs in execution order. Presentation concerns (progress lines, whether
// metrics are exported) stay on Config for the caller to set.
type Plan struct {
	Config harness.Config
	Runs   []PlanRun
}

// Compile validates a spec and lowers it to a Plan: the top level and each
// experiment's shape by the schema's rules, then every line of every
// experiment at every sweep rate by its owners' validators
// (harness.Config.ValidateLines), a rejection naming the JSON path of the
// line. A spec that compiles runs. The compiled plan is self-contained:
// executing it does not read the spec again.
func Compile(s *Spec) (*Plan, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	d := s.withDefaults()
	p := &Plan{Config: s.harnessConfig()}
	if err := p.Config.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: %q: %w", d.Name, err)
	}
	live, err := d.Live.liveConfig()
	if err != nil {
		return nil, fmt.Errorf("scenario: %q: %w", d.Name, at("live", err))
	}
	for i := range d.Experiments {
		run, err := d.compileExperiment(&d.Experiments[i], p.Config, live)
		if err != nil {
			return nil, fmt.Errorf("scenario: %q: %w", d.Name, at(fmt.Sprintf("experiments[%d]", i), err))
		}
		p.Runs = append(p.Runs, run)
	}
	return p, nil
}

// compileExperiment lowers one experiment to its run and checks every line
// of the run at every rate of cfg; a live experiment runs on live, the
// spec's lowered live block.
func (s *Spec) compileExperiment(e *Experiment, cfg harness.Config, live harness.LiveConfig) (PlanRun, error) {
	var run PlanRun
	var err error
	switch {
	case s.Execution == "live":
		run, err = compileLive(e, live)
	case e.Figure == "fig1":
		run, err = PlanRun{Fig1: true}, e.validate()
	default:
		run, err = compileSweep(e)
	}
	if err != nil {
		return PlanRun{}, err
	}
	if n, _, err := cfg.ValidateLines(run.Variants); err != nil {
		return PlanRun{}, e.lineErr(n, err)
	}
	return run, nil
}

// liveConfig lowers the LiveSpec to the harness.LiveConfig every cell of
// a live sweep runs; compileLive fills in the job count and the arrival
// process. Its one error is a time no Duration can hold. Here and in
// buildOptions a zero spec field keeps the default (cmp.Or), and every
// other value reaches the validator of the package that owns it.
func (l *LiveSpec) liveConfig() (harness.LiveConfig, error) {
	lc := harness.DefaultLiveConfig()
	if l == nil {
		return lc, nil
	}
	var d durations
	ms := func(field string, v float64) time.Duration { return d.of(field, v, time.Millisecond) }
	if l.VolatileWorkers != 0 || l.DedicatedWorkers != 0 {
		lc.VolatileWorkers, lc.DedicatedWorkers = l.VolatileWorkers, l.DedicatedWorkers
	}
	lc.HorizonSeconds = cmp.Or(l.HorizonSeconds, lc.HorizonSeconds)
	lc.Compression = cmp.Or(ms("compression_ms", l.CompressionMS), lc.Compression)
	lc.SplitsPerJob = cmp.Or(l.SplitsPerJob, lc.SplitsPerJob)
	lc.WordsPerSplit = cmp.Or(l.WordsPerSplit, lc.WordsPerSplit)
	lc.ReducesPerJob = cmp.Or(l.ReducesPerJob, lc.ReducesPerJob)
	if lk := l.Link; lk != nil {
		lc.SessionExpiry = ms("link.session_expiry_ms", lk.SessionExpiryMS)
	}
	if f := l.Faults; f != nil {
		fc := &transport.FaultConfig{
			Seed:      f.Seed,
			DropRate:  f.DropRate,
			DupRate:   f.DupRate,
			DelayRate: f.DelayRate,
			Delay:     ms("faults.delay_ms", f.DelayMS),
			ResetRate: f.ResetRate,
		}
		for i, p := range f.Partitions {
			tp := transport.Partition{
				Start:    ms(fmt.Sprintf("faults.partitions[%d].start_ms", i), p.StartMS),
				Duration: ms(fmt.Sprintf("faults.partitions[%d].duration_ms", i), p.DurationMS),
			}
			for _, w := range p.Workers {
				tp.Addrs = append(tp.Addrs, engine.WorkerAddr(w))
			}
			fc.Partitions = append(fc.Partitions, tp)
		}
		lc.Faults = fc
	}
	return lc, d.err
}

// durations converts a spec's times to Durations, rounding down: a negative
// value stays negative however small, so it reaches the validator that
// rejects it instead of reading as zero ("keep the default"). A value
// outside the range a Duration holds is an error naming its field (Go leaves
// such a float-to-int conversion to the platform); the first one is kept.
type durations struct{ err error }

func (d *durations) of(field string, v float64, unit time.Duration) time.Duration {
	f := math.Floor(v * float64(unit))
	if !(f >= math.MinInt64 && f < math.MaxInt64) {
		if d.err == nil {
			d.err = fmt.Errorf("%s %v is outside the range of a duration", field, v)
		}
		return 0
	}
	return time.Duration(f)
}

// compileLive lowers one live multi-job experiment on lc, the spec's
// lowered live block (zero fields keep the harness defaults): the policy
// list becomes live variant lines, which render their own matrix.
func compileLive(e *Experiment, lc harness.LiveConfig) (PlanRun, error) {
	if err := e.validateLive(); err != nil {
		return PlanRun{}, err
	}
	m := e.Multi
	if err := m.checkPolicies(); err != nil {
		return PlanRun{}, at("multi", err)
	}
	lc.Jobs = m.Jobs
	// An explicit arrival process lowers to compressed wall-clock
	// submission offsets; none keeps the submit-together default.
	if m.Arrivals != "" {
		lc.Arrivals = m.Arrivals
		lc.ArrivalInterval = m.IntervalSeconds
		lc.ArrivalSeed = m.ArrivalSeed
		if m.LambdaPerHour > 0 {
			lc.ArrivalInterval = 3600 / m.LambdaPerHour
		}
	}
	return PlanRun{
		Title: fmt.Sprintf("Live engine: %d concurrent word-count jobs, %dv+%dd workers",
			lc.Jobs, lc.VolatileWorkers, lc.DedicatedWorkers),
		App:      "wordcount",
		Variants: harness.LiveVariants(lc, m.Policies, m.Weights, m.Priorities),
		Renders:  []Render{{Kind: RenderLive, Blank: true}},
	}, nil
}

// Execute runs every compiled run in order, appending each sweep's
// collected metrics to report (when non-nil) and printing the renders to
// stdout. Output is byte-identical to the historical moonbench flag path.
func (p *Plan) Execute(stdout io.Writer, report *metrics.Export) error {
	cfg := p.Config
	if report == nil {
		cfg.MetricsBucket = 0
	}
	for _, run := range p.Runs {
		if run.Fig1 {
			if err := harness.Fig1(stdout, cfg.Seeds[0]); err != nil {
				return err
			}
			if _, err := fmt.Fprintln(stdout); err != nil {
				return err
			}
			continue
		}
		sw, err := cfg.RunSweep(run.Title, run.Variants)
		if err != nil {
			return err
		}
		if report != nil {
			sw.AppendMetrics(report)
		}
		for _, r := range run.Renders {
			if err := render(stdout, sw, run.App, r); err != nil {
				return err
			}
		}
	}
	return nil
}

func render(w io.Writer, sw *harness.Sweep, app string, r Render) error {
	var err error
	switch r.Kind {
	case RenderTimes:
		err = sw.RenderTimes(w)
	case RenderDuplicates:
		err = sw.RenderDuplicates(w)
	case RenderTable2:
		err = sw.RenderTable2(w, app, table2Policies)
	case RenderMulti:
		err = sw.RenderStream(w)
	case RenderLive:
		err = sw.RenderLive(w)
	}
	if err == nil && r.Blank {
		_, err = fmt.Fprintln(w)
	}
	return err
}

// lowerRenders resolves render names; blankEach controls whether every
// table is followed by a blank line (figures) or only the last one
// (ablation blocks).
func lowerRenders(names []string, blankEach bool) []Render {
	kinds := map[string]RenderKind{
		"times": RenderTimes, "duplicates": RenderDuplicates,
		"table2": RenderTable2, "multi": RenderMulti,
	}
	out := make([]Render, len(names))
	for i, n := range names {
		out[i] = Render{Kind: kinds[n], Blank: blankEach || i == len(names)-1}
	}
	return out
}

// compileSweep lowers a simulated experiment to its custom form and
// compiles that: one simulated line per variant, each with its own cluster,
// workload and stack deltas.
func compileSweep(e *Experiment) (PlanRun, error) {
	l, err := e.lower()
	if err != nil {
		return PlanRun{}, err
	}
	c := l.custom
	renders := e.Renders
	if len(renders) == 0 {
		renders = l.renders // the kind's default when the spec names none
	}
	run := PlanRun{Title: c.Title, App: l.app, Renders: lowerRenders(renders, !l.block)}
	for i := range c.Variants {
		v := &c.Variants[i]
		ws := &c.Workload
		if v.workload != nil {
			ws = v.workload
		}
		cell, err := buildCell(v, c.clusterOf(v), ws)
		if err != nil {
			return PlanRun{}, e.lineErr(i, err)
		}
		run.Variants = append(run.Variants, harness.Variant{Label: v.Label, Cell: cell})
	}
	return run, nil
}

// buildCell lowers a variant spec to a simulated cell: the job stream it
// runs, and a Build closure that applies the cluster spec and stack deltas
// per sweep cell.
func buildCell(v *VariantSpec, cl *ClusterSpec, ws *WorkloadSpec) (harness.SimCell, error) {
	base, err := buildWorkload(ws, v, cl)
	if err != nil {
		return harness.SimCell{}, err
	}
	pol, err := v.policy()
	if err != nil {
		return harness.SimCell{}, err
	}
	m := workload.Single(base)
	if ws.isStream() {
		// A simulated stream's "" is staggered; a live cell's is all at t=0.
		offsets := workload.Arrivals(cmp.Or(ws.Arrivals, "staggered"), ws.Jobs, ws.IntervalSeconds, ws.ArrivalSeed)
		m = workload.Stream(base, offsets, ws.MixScale)
		m = workload.WithPriorities(workload.WithPriorities(m, ws.priorities), v.Priorities)
	}
	v2, cl2 := *v, cloneCluster(cl) // the closure outlives the spec
	return harness.SimCell{
		Build: func(cs core.ClusterSpec) core.Options {
			opts := buildOptions(&v2, cl2, cs)
			opts.Sched.JobPolicy = pol
			return opts
		},
		Workload: m,
		Stream:   ws.isStream(),
	}, nil
}

// policy resolves the variant's job-arbitration policy and weights; an
// empty Policy is FIFO.
func (v *VariantSpec) policy() (sched.Policy[*mapred.Job], error) {
	return sched.PolicyByName[*mapred.Job](cmp.Or(v.Policy, "fifo"), v.Weights)
}

// clusterOf is the fleet a variant line runs on: its own, else the
// experiment's.
func (c *CustomExperiment) clusterOf(v *VariantSpec) *ClusterSpec {
	if v.Cluster != nil {
		return v.Cluster
	}
	return c.Cluster
}

func cloneCluster(cl *ClusterSpec) *ClusterSpec {
	if cl == nil {
		return nil
	}
	out := *cl
	return &out
}

// nodeCounts resolves a cluster spec's fleet size (default: the paper's
// 60 volatile + 6 dedicated testbed).
func nodeCounts(cl *ClusterSpec) (volatiles, dedicated int) {
	volatiles, dedicated = 60, 6
	if cl != nil && cl.Volatile != nil {
		volatiles = *cl.Volatile
	}
	if cl != nil && cl.Dedicated != nil {
		dedicated = *cl.Dedicated
	}
	return volatiles, dedicated
}

// buildOptions assembles the full stack options for one sweep cell: the
// cluster spec (churn models included), the preset, then the deltas.
func buildOptions(v *VariantSpec, cl *ClusterSpec, cs core.ClusterSpec) core.Options {
	cs.VolatileNodes, cs.DedicatedNodes = nodeCounts(cl)
	if cl != nil {
		cs.TreatAllVolatile = cl.AllVolatile
		cs.Horizon = cl.HorizonSeconds
		ocfg := trace.DefaultOutageConfig(cs.UnavailabilityRate)
		if o := cl.Outage; o != nil {
			ocfg.MeanOutage = cmp.Or(o.MeanSeconds, ocfg.MeanOutage)
			ocfg.StddevOutage = cmp.Or(o.StddevSeconds, ocfg.StddevOutage)
			ocfg.MinOutage = cmp.Or(o.MinSeconds, ocfg.MinOutage)
			ocfg.MaxOutage = cmp.Or(o.MaxSeconds, ocfg.MaxOutage)
			cs.Outage = &ocfg
		}
		if cc := cl.Correlated; cc != nil {
			corr := trace.DefaultCorrelatedConfig()
			// The sweep's rate drives the independent component (with
			// any outage overrides); the session model layers on top.
			corr.Base = ocfg
			corr.GroupSize = cmp.Or(cc.GroupSize, corr.GroupSize)
			corr.SessionsPerGroup = cmp.Or(cc.SessionsPerGroup, corr.SessionsPerGroup)
			corr.SessionMean = cmp.Or(cc.SessionMeanSeconds, corr.SessionMean)
			corr.SessionStddev = cmp.Or(cc.SessionStddevSeconds, corr.SessionStddev)
			corr.Participation = cmp.Or(cc.Participation, corr.Participation)
			cs.Correlated = &corr
		}
	}

	var opts core.Options
	switch v.Preset {
	case "hadoop":
		opts = core.HadoopPreset(cs)
	case "moon":
		opts = core.MOONPreset(cs, false)
	default: // "moon-hybrid"; Validate rejected everything else
		opts = core.MOONPreset(cs, true)
	}

	if d := v.DFS; d != nil {
		if d.Mode != nil {
			mode := dfs.ModeHadoop
			if *d.Mode == "moon" {
				mode = dfs.ModeMOON
			}
			opts.DFS = dfs.DefaultConfig(mode)
		}
		set(&opts.DFS.NodeHibernateInterval, d.HibernateIntervalSeconds)
		set(&opts.DFS.NodeExpiryInterval, d.ExpiryIntervalSeconds)
		set(&opts.DFS.AvailabilityTarget, d.AvailabilityTarget)
		set(&opts.DFS.MaxAdaptiveV, d.MaxAdaptiveV)
		set(&opts.DFS.MaxReplicationStreams, d.MaxReplicationStreams)
	}
	if s := v.Sched; s != nil {
		set(&opts.Sched.TrackerExpiry, s.TrackerExpirySeconds)
		set(&opts.Sched.SuspensionInterval, s.SuspensionIntervalSeconds)
		set(&opts.Sched.HeartbeatInterval, s.HeartbeatIntervalSeconds)
		set(&opts.Sched.SpeculativeCap, s.SpeculativeCap)
		set(&opts.Sched.SpecSlotFraction, s.SpecSlotFraction)
		set(&opts.Sched.HomestretchH, s.HomestretchH)
		set(&opts.Sched.HomestretchR, s.HomestretchR)
		set(&opts.Sched.FastFetchReaction, s.FastFetchReaction)
		set(&opts.Sched.MapSlotsPerNode, s.MapSlotsPerNode)
		set(&opts.Sched.ReduceSlotsPerNode, s.ReduceSlotsPerNode)
	}
	if n := v.Net; n != nil {
		set(&opts.Net.NodeBandwidth, n.NodeBandwidthBytes)
		set(&opts.Net.DiskBandwidth, n.DiskBandwidthBytes)
		set(&opts.Net.StallTimeout, n.StallTimeoutSeconds)
	}
	return opts
}

// set overwrites *dst with *src when the spec gave the field.
func set[T any](dst, src *T) {
	if src != nil {
		*dst = *src
	}
}

// buildWorkload assembles a custom experiment's base job spec: the Table I
// app (reduce slots derived from the variant's fleet at the paper's 2 per
// node), the optional sleep wrapper, then the replication overrides
// (workload-level, then the variant's intermediate factor).
func buildWorkload(ws *WorkloadSpec, v *VariantSpec, cl *ClusterSpec) (workload.Spec, error) {
	volatiles, dedicated := nodeCounts(cl)
	var w workload.Spec
	switch ws.App {
	case "sort":
		slots := 2 * (volatiles + dedicated)
		if ws.ReduceSlots != nil {
			slots = *ws.ReduceSlots
		}
		w = workload.Sort(slots)
	case "wordcount":
		w = workload.WordCount()
	default:
		return workload.Spec{}, fmt.Errorf("unknown app %q", ws.App)
	}
	if ws.Sleep {
		w = workload.SleepApp(w)
	}
	if f := ws.InputFactor; f != nil {
		w.InputFactor = dfs.Factor{D: f.D, V: f.V}
	}
	if f := ws.IntermediateFactor; f != nil {
		w.Job.IntermediateFactor = dfs.Factor{D: f.D, V: f.V}
	}
	switch ws.IntermediateClass {
	case "opportunistic":
		w.Job.IntermediateClass = dfs.Opportunistic
	case "reliable":
		w.Job.IntermediateClass = dfs.Reliable
	}
	if f := ws.OutputFactor; f != nil {
		w.Job.OutputFactor = dfs.Factor{D: f.D, V: f.V}
	}
	if f := v.IntermediateFactor; f != nil {
		w.Job.IntermediateFactor = dfs.Factor{D: f.D, V: f.V}
	}
	return w, nil
}
