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
)

// Render is one table to print from a run's sweep; Blank appends an empty
// line after it (the CLI's inter-table spacing).
type Render struct {
	Kind  RenderKind
	Blank bool
}

// LivePlan is one compiled live-engine sweep: the engine/churn shape plus
// the policy variant lines. Executing it runs real Map/Reduce code.
type LivePlan struct {
	Config   harness.LiveConfig
	Variants []harness.LiveVariant
}

// PlanRun is one compiled experiment: the Figure 1 trace table, a
// single-job sweep (Variants), a multi-job sweep (Multi) or a live-engine
// sweep (Live), plus the tables to render from it (live sweeps render
// their own matrix).
type PlanRun struct {
	// Fig1 runs the availability-trace figure instead of a sweep.
	Fig1 bool
	// Title is the sweep's display title.
	Title string
	// App labels Table II renders.
	App      string
	Variants []harness.Variant
	Multi    []harness.MultiVariant
	Live     *LivePlan
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
		var run PlanRun
		var err error
		if d.Execution == "live" {
			run, err = compileLive(&d.Experiments[i], d.Live)
		} else {
			run, err = compileExperiment(&d.Experiments[i], &d)
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
// fills in the job count. Validation reuses this lowering, so a spec that
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
// policy list becomes live variant lines.
func compileLive(e *Experiment, l *LiveSpec) (PlanRun, error) {
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
		App:  "wordcount",
		Live: &LivePlan{Config: lc, Variants: harness.LiveVariants(m.Policies, m.Weights, m.Priorities)},
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
		switch {
		case run.Live != nil:
			sw, err := cfg.RunLiveSweep(run.Title, run.Live.Config, run.Live.Variants)
			if err != nil {
				return err
			}
			if report != nil {
				sw.AppendMetrics(report, len(cfg.Seeds))
			}
			if err := sw.Render(stdout); err != nil {
				return err
			}
			if _, err := fmt.Fprintln(stdout); err != nil {
				return err
			}
		case run.Fig1:
			if err := harness.Fig1(stdout, cfg.Seeds[0]); err != nil {
				return err
			}
			if _, err := fmt.Fprintln(stdout); err != nil {
				return err
			}
		case run.Multi != nil:
			sw, err := cfg.RunMultiSweep(run.Title, run.Multi)
			if err != nil {
				return err
			}
			if report != nil {
				sw.AppendMetrics(report, len(cfg.Seeds))
			}
			for _, r := range run.Renders {
				if err := renderMulti(stdout, sw, r); err != nil {
					return err
				}
			}
		default:
			sw, err := cfg.RunSweep(run.Title, run.Variants)
			if err != nil {
				return err
			}
			if report != nil {
				sw.AppendMetrics(report, len(cfg.Seeds))
			}
			for _, r := range run.Renders {
				if err := renderSingle(stdout, sw, run.App, r); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func renderSingle(w io.Writer, sw *harness.Sweep, app string, r Render) error {
	var err error
	switch r.Kind {
	case RenderTimes:
		err = sw.RenderTimes(w)
	case RenderDuplicates:
		err = sw.RenderDuplicates(w)
	case RenderTable2:
		err = harness.RenderTable2(w, app, sw)
	default:
		err = fmt.Errorf("scenario: render kind %d does not apply to a single-job sweep", r.Kind)
	}
	if err == nil && r.Blank {
		_, err = fmt.Fprintln(w)
	}
	return err
}

func renderMulti(w io.Writer, sw *harness.MultiSweep, r Render) error {
	if r.Kind != RenderMulti {
		return fmt.Errorf("scenario: render kind %d does not apply to a multi-job sweep", r.Kind)
	}
	if err := sw.Render(w); err != nil {
		return err
	}
	if r.Blank {
		_, err := fmt.Fprintln(w)
		return err
	}
	return nil
}

func compileExperiment(e *Experiment, s *Spec) (PlanRun, error) {
	switch {
	case e.Figure == "fig1":
		return PlanRun{Fig1: true}, nil
	case e.Figure != "":
		return compileFigure(e)
	case e.Ablation != "":
		vs, err := harness.AblationVariants(e.Ablation, e.App)
		if err != nil {
			return PlanRun{}, err
		}
		renders := e.Renders
		if len(renders) == 0 {
			renders = []string{"times"}
			if e.Ablation == "homestretch" || e.Ablation == "speccap" {
				renders = append(renders, "duplicates")
			}
		}
		return PlanRun{
			Title:    harness.AblationTitle(e.Ablation, e.App),
			App:      e.App,
			Variants: vs,
			// The ablation tables group as one block: blank after the
			// last render only (the historical CLI layout).
			Renders: lowerRenders(renders, false),
		}, nil
	case e.Correlated:
		return PlanRun{
			Title:    harness.CorrelatedTitle(e.App),
			App:      e.App,
			Variants: harness.CorrelatedVariants(e.App),
			Renders:  lowerRenders(defaultRenders(e.Renders, "times"), true),
		}, nil
	case e.Multi != nil:
		return compileMulti(e)
	default:
		return compileCustom(e, s)
	}
}

func compileFigure(e *Experiment) (PlanRun, error) {
	run := PlanRun{App: e.App}
	var def string
	switch e.Figure {
	case "fig4":
		run.Title, run.Variants, def = harness.Fig4Title(e.App), harness.SchedulingVariants(e.App), "times"
	case "fig5":
		run.Title, run.Variants, def = harness.Fig4Title(e.App), harness.SchedulingVariants(e.App), "duplicates"
	case "fig6":
		run.Title, run.Variants, def = harness.Fig6Title(e.App), harness.ReplicationVariants(e.App), "times"
	case "table2":
		run.Title, run.Variants, def = harness.Fig6Title(e.App), harness.ReplicationVariants(e.App), "table2"
	case "fig7":
		run.Title, run.Variants, def = harness.Fig7Title(e.App), harness.OverallVariants(e.App, 3), "times"
	default:
		return PlanRun{}, fmt.Errorf("unknown figure %q", e.Figure)
	}
	run.Renders = lowerRenders(defaultRenders(e.Renders, def), true)
	return run, nil
}

// defaultRenders substitutes the kind's default when the spec names none.
func defaultRenders(renders []string, def ...string) []string {
	if len(renders) > 0 {
		return renders
	}
	return def
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

func compileMulti(e *Experiment) (PlanRun, error) {
	m := e.Multi
	arr := harness.ArrivalSpec{
		Process:    m.Arrivals,
		Interval:   m.IntervalSeconds,
		Seed:       m.ArrivalSeed,
		Priorities: m.Priorities,
	}
	if arr.Process == "" {
		arr.Process = "staggered"
	}
	if m.LambdaPerHour > 0 {
		arr.Interval = 3600 / m.LambdaPerHour
	}
	policies, err := resolvePolicies(m.Policies, m.Weights)
	if err != nil {
		return PlanRun{}, err
	}
	return PlanRun{
		Title: fmt.Sprintf("Multi-job (%s): %d jobs, %s arrivals every ~%.0fs",
			e.App, m.Jobs, arr.Process, arr.Interval),
		App:     e.App,
		Multi:   harness.MultiArrivalVariants(e.App, m.Jobs, arr, policies...),
		Renders: lowerRenders(defaultRenders(e.Renders, "multi"), true),
	}, nil
}

// resolvePolicies lowers policy names; an empty list keeps
// MultiArrivalVariants' default comparison (FIFO vs fair-share). Weights
// only shape the weighted policy.
func resolvePolicies(names []string, weights map[string]float64) ([]mapred.SchedPolicy, error) {
	var out []mapred.SchedPolicy
	for _, n := range names {
		pol, err := resolvePolicy(n, weights)
		if err != nil {
			return nil, err
		}
		out = append(out, pol)
	}
	return out, nil
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

func compileCustom(e *Experiment, s *Spec) (PlanRun, error) {
	c := e.Custom
	run := PlanRun{Title: c.Title, App: c.Workload.App}
	multi := c.Workload.Jobs > 1
	def := "times"
	if multi {
		def = "multi"
	}
	run.Renders = lowerRenders(defaultRenders(e.Renders, def), true)

	for i := range c.Variants {
		v := &c.Variants[i]
		cl := v.Cluster
		if cl == nil {
			cl = c.Cluster
		}
		w, err := buildWorkload(&c.Workload, v, cl)
		if err != nil {
			return PlanRun{}, fmt.Errorf("variant %q: %w", v.Label, err)
		}
		if multi {
			mv, err := buildMultiVariant(v, cl, &c.Workload, w)
			if err != nil {
				return PlanRun{}, fmt.Errorf("variant %q: %w", v.Label, err)
			}
			run.Multi = append(run.Multi, mv)
		} else {
			run.Variants = append(run.Variants, buildSingleVariant(v, cl, w))
		}
	}
	return run, nil
}

// buildSingleVariant lowers a variant spec to a harness.Variant whose
// Build closure applies the cluster spec and stack deltas per sweep cell.
func buildSingleVariant(v *VariantSpec, cl *ClusterSpec, w workload.Spec) harness.Variant {
	v2, cl2 := *v, cloneCluster(cl) // closures outlive the spec
	return harness.Variant{Label: v.Label, Build: func(cs core.ClusterSpec) (core.Options, workload.Spec) {
		return buildOptions(&v2, cl2, cs), w
	}}
}

func buildMultiVariant(v *VariantSpec, cl *ClusterSpec, ws *WorkloadSpec, base workload.Spec) (harness.MultiVariant, error) {
	pol, err := variantPolicy(v)
	if err != nil {
		return harness.MultiVariant{}, err
	}
	var m workload.MultiSpec
	if ws.MixScale > 1 {
		m = workload.MixedSizes(base, ws.Jobs, ws.IntervalSeconds, ws.MixScale)
	} else {
		arr := harness.ArrivalSpec{Process: ws.Arrivals, Interval: ws.IntervalSeconds, Seed: ws.ArrivalSeed}
		m = arr.Stream(base, ws.Jobs)
	}
	m = workload.WithPriorities(m, v.Priorities)
	v2, cl2 := *v, cloneCluster(cl)
	return harness.MultiVariant{Label: v.Label, Build: func(cs core.ClusterSpec) (core.Options, workload.MultiSpec) {
		opts := buildOptions(&v2, cl2, cs)
		opts.Sched.JobPolicy = pol
		return opts, m
	}}, nil
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
