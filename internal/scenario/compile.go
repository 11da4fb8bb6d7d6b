package scenario

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/mapred"
	"repro/internal/metrics"
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

// Compile validates a spec and lowers it to a Plan. The compiled plan is
// self-contained: executing it does not read the spec again.
func Compile(s *Spec) (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	d := s.withDefaults()
	p := &Plan{Config: s.harnessConfig()}
	for i := range d.Experiments {
		e := &d.Experiments[i]
		var run PlanRun
		var err error
		switch {
		case d.Execution == "live":
			run = compileLive(e, d.Live)
		case e.Figure == "fig1":
			run = PlanRun{Fig1: true}
		default:
			run, err = compileSweep(e.lower(), e.Renders)
		}
		if err != nil {
			return nil, fmt.Errorf("scenario: %q experiment %d: %w", d.Name, i, err)
		}
		p.Runs = append(p.Runs, run)
	}
	return p, nil
}

// liveConfig lowers the LiveSpec to the harness.LiveConfig every cell of
// a live sweep runs (zero fields keep the harness defaults); compileLive
// fills in the job count and the arrival process. Validation reuses this lowering, so a spec that
// validates is exactly a spec whose lowered engine configuration does.
func (l *LiveSpec) liveConfig() harness.LiveConfig {
	lc := harness.DefaultLiveConfig()
	if l == nil {
		return lc
	}
	if l.VolatileWorkers > 0 || l.DedicatedWorkers > 0 {
		lc.VolatileWorkers, lc.DedicatedWorkers = l.VolatileWorkers, l.DedicatedWorkers
	}
	lc.NoDedicatedReplication = l.NoDedicatedReplication
	if l.HorizonSeconds > 0 {
		lc.HorizonSeconds = l.HorizonSeconds
	}
	if l.CompressionMS > 0 {
		lc.Compression = millis(l.CompressionMS)
	}
	if l.SplitsPerJob > 0 {
		lc.SplitsPerJob = l.SplitsPerJob
	}
	if l.WordsPerSplit > 0 {
		lc.WordsPerSplit = l.WordsPerSplit
	}
	if l.ReducesPerJob > 0 {
		lc.ReducesPerJob = l.ReducesPerJob
	}
	if l.TimeoutSeconds > 0 {
		lc.Timeout = time.Duration(l.TimeoutSeconds * float64(time.Second))
	}
	if lk := l.Link; lk != nil {
		lc.Link = transport.LinkConfig{
			ConnectTimeout:    millis(lk.ConnectTimeoutMS),
			SendTimeout:       millis(lk.SendTimeoutMS),
			RecvTimeout:       millis(lk.RecvTimeoutMS),
			HeartbeatInterval: millis(lk.HeartbeatIntervalMS),
			LeaseDuration:     millis(lk.LeaseDurationMS),
			MaxRetries:        lk.MaxRetries,
			RetryBackoff:      millis(lk.RetryBackoffMS),
			SessionExpiry:     millis(lk.SessionExpiryMS),
		}
	}
	if f := l.Faults; f != nil {
		fc := &transport.FaultConfig{
			Seed:      f.Seed,
			DropRate:  f.DropRate,
			DupRate:   f.DupRate,
			DelayRate: f.DelayRate,
			Delay:     millis(f.DelayMS),
			ResetRate: f.ResetRate,
		}
		for _, p := range f.Partitions {
			tp := transport.Partition{Start: millis(p.StartMS), Duration: millis(p.DurationMS)}
			for _, w := range p.Workers {
				tp.Addrs = append(tp.Addrs, engine.WorkerAddr(w))
			}
			fc.Partitions = append(fc.Partitions, tp)
		}
		lc.Faults = fc
	}
	return lc
}

func millis(ms float64) time.Duration {
	return time.Duration(ms * float64(time.Millisecond))
}

// compileLive lowers one live multi-job experiment: the LiveSpec becomes a
// harness.LiveConfig (zero fields keep the harness defaults) and the
// policy list becomes live variant lines, which render their own matrix.
func compileLive(e *Experiment, l *LiveSpec) PlanRun {
	m := e.Multi
	lc := l.liveConfig()
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
	// Validate() already resolved every policy name; LiveVariants attaches
	// weights/priorities to the policies that read them.
	return PlanRun{
		Title: fmt.Sprintf("Live engine: %d concurrent word-count jobs, %dv+%dd workers",
			lc.Jobs, lc.VolatileWorkers, lc.DedicatedWorkers),
		App:      "wordcount",
		Variants: harness.LiveVariants(lc, m.Policies, m.Weights, m.Priorities),
		Renders:  []Render{{Kind: RenderLive, Blank: true}},
	}
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
			sw.AppendMetrics(report, len(cfg.Seeds))
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

// canonicalPolicy returns the canonical spelling of a policy name that
// Validate has resolved.
func canonicalPolicy(name string) string {
	if pol, err := mapred.JobPolicyByName(name); err == nil {
		return pol.Name()
	}
	return name
}

func resolvePolicy(name string, weights map[string]float64) (mapred.SchedPolicy, error) {
	// Resolve first, then attach weights by *canonical* name: the alias
	// spellings ("wfair", "weighted-fair") must not silently drop the
	// configured weights, and an unknown name is a hard error on every
	// path.
	pol, err := mapred.JobPolicyByName(name)
	if err != nil {
		return nil, err
	}
	if pol.Name() == "weighted" && len(weights) > 0 {
		return mapred.WeightedFair(weights), nil
	}
	return pol, nil
}

// compileSweep compiles a lowered experiment: one simulated line per
// variant, each with its own cluster, workload and stack deltas.
func compileSweep(l lowered, renders []string) (PlanRun, error) {
	c := l.custom
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
			return PlanRun{}, fmt.Errorf("variant %q: %w", v.Label, err)
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
	pol, err := variantPolicy(v)
	if err != nil {
		return harness.SimCell{}, err
	}
	m := workload.Single(base)
	if ws.isStream() {
		switch {
		case ws.MixScale > 1:
			m = workload.MixedSizes(base, ws.Jobs, ws.IntervalSeconds, ws.MixScale)
		case ws.Arrivals == "poisson":
			m = workload.PoissonArrivals(base, ws.Jobs, ws.IntervalSeconds, ws.ArrivalSeed)
		default:
			m = workload.Staggered(base, ws.Jobs, ws.IntervalSeconds)
		}
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

// variantPolicy resolves a variant's job-arbitration policy (nil = the
// tracker's FIFO default; weights require the explicit "weighted" policy,
// enforced by Validate).
func variantPolicy(v *VariantSpec) (mapred.SchedPolicy, error) {
	if v.Policy == "" {
		return nil, nil
	}
	return resolvePolicy(v.Policy, v.Weights)
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
			if o.MeanSeconds > 0 {
				ocfg.MeanOutage = o.MeanSeconds
			}
			if o.StddevSeconds > 0 {
				ocfg.StddevOutage = o.StddevSeconds
			}
			if o.MinSeconds > 0 {
				ocfg.MinOutage = o.MinSeconds
			}
			if o.MaxSeconds > 0 {
				ocfg.MaxOutage = o.MaxSeconds
			}
			cs.Outage = &ocfg
		}
		if cc := cl.Correlated; cc != nil {
			corr := trace.DefaultCorrelatedConfig()
			// The sweep's rate drives the independent component (with
			// any outage overrides); the session model layers on top.
			corr.Base = ocfg
			if cc.GroupSize > 0 {
				corr.GroupSize = cc.GroupSize
			}
			if cc.SessionsPerGroup > 0 {
				corr.SessionsPerGroup = cc.SessionsPerGroup
			}
			if cc.SessionMeanSeconds > 0 {
				corr.SessionMean = cc.SessionMeanSeconds
			}
			if cc.SessionStddevSeconds > 0 {
				corr.SessionStddev = cc.SessionStddevSeconds
			}
			if cc.Participation > 0 {
				corr.Participation = cc.Participation
			}
			cs.Correlated = &corr
		}
	}

	var opts core.Options
	switch v.Preset {
	case "hadoop":
		opts = core.HadoopPreset(cs, 600)
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
		setF(&opts.DFS.NodeHibernateInterval, d.HibernateIntervalSeconds)
		setF(&opts.DFS.NodeExpiryInterval, d.ExpiryIntervalSeconds)
		setF(&opts.DFS.AvailabilityTarget, d.AvailabilityTarget)
		setI(&opts.DFS.MaxAdaptiveV, d.MaxAdaptiveV)
		setI(&opts.DFS.MaxReplicationStreams, d.MaxReplicationStreams)
	}
	if s := v.Sched; s != nil {
		setF(&opts.Sched.TrackerExpiry, s.TrackerExpirySeconds)
		setF(&opts.Sched.SuspensionInterval, s.SuspensionIntervalSeconds)
		setF(&opts.Sched.HeartbeatInterval, s.HeartbeatIntervalSeconds)
		setI(&opts.Sched.SpeculativeCap, s.SpeculativeCap)
		setF(&opts.Sched.SpecSlotFraction, s.SpecSlotFraction)
		setF(&opts.Sched.HomestretchH, s.HomestretchH)
		setI(&opts.Sched.HomestretchR, s.HomestretchR)
		if s.FastFetchReaction != nil {
			opts.Sched.FastFetchReaction = *s.FastFetchReaction
		}
		setI(&opts.Sched.MapSlotsPerNode, s.MapSlotsPerNode)
		setI(&opts.Sched.ReduceSlotsPerNode, s.ReduceSlotsPerNode)
	}
	if n := v.Net; n != nil {
		setF(&opts.Net.NodeBandwidth, n.NodeBandwidthBytes)
		setF(&opts.Net.DiskBandwidth, n.DiskBandwidthBytes)
		setF(&opts.Net.StallTimeout, n.StallTimeoutSeconds)
	}
	return opts
}

func setF(dst *float64, src *float64) {
	if src != nil {
		*dst = *src
	}
}

func setI(dst *int, src *int) {
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
