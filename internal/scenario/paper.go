package scenario

import "fmt"

// The paper's evaluation, written in the custom vocabulary: every built-in
// experiment kind (figure, ablation, correlated, multi) lowers to the
// CustomExperiment it abbreviates and compiles through the loop custom
// experiments use. The kinds stay in the schema because shipped specs and
// the flag surface name them; what their lines are is said here, once.

// AblationNames lists the named ablation sweeps.
var AblationNames = []string{"homestretch", "speccap", "hibernate", "adaptive"}

// table2Policies are the profile columns the paper's Table II prints.
var table2Policies = []string{"VO-V1", "VO-V3", "VO-V5", "HA-V1"}

// lowered is an experiment in the one form the compiler reads.
type lowered struct {
	custom *CustomExperiment
	// app labels Table II.
	app string
	// renders are the tables printed when the experiment names none.
	renders []string
	// block prints the tables as one block, a blank line after the last
	// only (the ablations' layout); otherwise one follows every table.
	block bool
}

// floatp/strp/intp/boolp build the pointer fields of sparse specs.
func floatp(v float64) *float64 { return &v }
func strp(v string) *string     { return &v }
func intp(v int) *int           { return &v }
func boolp(v bool) *bool        { return &v }

// hadoopOnMOON is a Hadoop scheduling line with the given
// TrackerExpiryInterval on the MOON data layer: sharing the data layer
// isolates scheduling effects, exactly as the paper does.
func hadoopOnMOON(label string, expiry float64) VariantSpec {
	return VariantSpec{
		Label:  label,
		Preset: "hadoop",
		Sched:  &SchedDelta{TrackerExpirySeconds: floatp(expiry)},
		DFS:    &DFSDelta{Mode: strp("moon")},
	}
}

// lower checks the experiment's shape and returns the custom form of any
// experiment but fig1 (which is no sweep).
func (e *Experiment) lower() (lowered, error) {
	if err := e.validate(); err != nil {
		return lowered{}, err
	}
	switch {
	case e.Custom != nil:
		def := "times"
		if e.Custom.Workload.isStream() {
			def = "multi"
		}
		return lowered{custom: e.Custom, app: e.Custom.Workload.App, renders: []string{def}}, nil
	case e.Multi != nil:
		return lowerMulti(e.App, e.Multi)
	case e.Ablation != "":
		return lowerAblation(e.Ablation, e.App), nil
	case e.Correlated:
		return lowerCorrelated(e.App), nil
	}
	return lowerFigure(e.Figure, e.App), nil
}

func lowerFigure(figure, app string) lowered {
	l := lowered{app: app, renders: []string{"times"}}
	switch figure {
	case "fig4", "fig5":
		// The five lines of Figures 4 and 5: Hadoop with 10/5/1-minute
		// TrackerExpiryIntervals, MOON without hybrid awareness, and
		// MOON-Hybrid, on the sleep app (its intermediate data is stored
		// reliable {1,1}). Figure 5 is the same sweep's duplicated tasks.
		l.custom = &CustomExperiment{
			Title:    fmt.Sprintf("Fig 4/5 (%s): scheduling policies", app),
			Workload: WorkloadSpec{App: app, Sleep: true},
			Variants: []VariantSpec{
				hadoopOnMOON("Hadoop10Min", 600),
				hadoopOnMOON("Hadoop5Min", 300),
				hadoopOnMOON("Hadoop1Min", 60),
				{Label: "MOON", Preset: "moon"},
				{Label: "MOON-Hybrid", Preset: "moon-hybrid"},
			},
		}
		if figure == "fig5" {
			l.renders = []string{"duplicates"}
		}
	case "fig6", "table2":
		// The eight lines of Figure 6: volatile-only replication VO-V1..V5
		// and hybrid-aware HA-V1..V3 of opportunistic intermediate data.
		// Scheduling is fixed at MOON-Hybrid, input/output replication at
		// {1,3}. Table II is read from the same sweep at its last rate.
		l.custom = &CustomExperiment{
			Title: fmt.Sprintf("Fig 6 (%s): intermediate replication", app),
			Workload: WorkloadSpec{
				App:               app,
				InputFactor:       &FactorSpec{D: 1, V: 3},
				IntermediateClass: "opportunistic",
				OutputFactor:      &FactorSpec{D: 1, V: 3},
			},
		}
		for _, f := range []struct {
			prefix string
			d, n   int
		}{{"VO", 0, 5}, {"HA", 1, 3}} {
			for v := 1; v <= f.n; v++ {
				l.custom.Variants = append(l.custom.Variants, VariantSpec{
					Label:              fmt.Sprintf("%s-V%d", f.prefix, v),
					Preset:             "moon-hybrid",
					IntermediateFactor: &FactorSpec{D: f.d, V: v},
				})
			}
		}
		if figure == "table2" {
			l.renders = []string{"table2"}
		}
	case "fig7":
		l.custom = lowerFig7(app)
	}
	return l
}

// lowerFig7 is Figure 7: Hadoop-VO (all 66 machines treated volatile, 6
// input/output replicas, volatile-only intermediate replication) against
// MOON-Hybrid with 3, 4 and 6 dedicated nodes ({1,3} input/output, HA {1,1}
// intermediate). The baseline stages its files differently from the MOON
// lines, so it carries its own workload — the one thing here the JSON
// schema cannot say.
func lowerFig7(app string) *CustomExperiment {
	workload := func(inOut, inter FactorSpec) WorkloadSpec {
		w := WorkloadSpec{App: app, InputFactor: &inOut, IntermediateFactor: &inter, OutputFactor: &inOut}
		if app == "sort" {
			// Sort's fan-out is the 66-node testbed's on every line, the
			// 63- and 64-node fleets included: the lines run one workload.
			w.ReduceSlots = intp(2 * 66)
		}
		return w
	}
	// The paper uses the best-performing VO configuration per test; VO-V3
	// is the consistent winner at high churn (see Fig 6).
	voWorkload := workload(FactorSpec{V: 6}, FactorSpec{V: 3})
	c := &CustomExperiment{
		Title:    fmt.Sprintf("Fig 7 (%s): MOON vs Hadoop-VO", app),
		Workload: workload(FactorSpec{D: 1, V: 3}, FactorSpec{D: 1, V: 1}),
		// "Hadoop-VO" is the paper's *augmented* Hadoop: it reuses the MOON
		// data layer (that is what replicates intermediate data and
		// carries the §VI-B fetch-failure remedy — stock Hadoop livelocks
		// for hours at high churn) but treats every machine as volatile
		// and schedules with default Hadoop policies (10-minute
		// TrackerExpiry; the short expiry that helps the sleep app kills
		// long data-heavy reduces).
		Variants: []VariantSpec{{
			Label:    "Hadoop-VO",
			Preset:   "hadoop",
			Cluster:  &ClusterSpec{AllVolatile: true},
			Sched:    &SchedDelta{FastFetchReaction: boolp(true)},
			DFS:      &DFSDelta{Mode: strp("moon")},
			workload: &voWorkload,
		}},
	}
	for _, d := range []int{3, 4, 6} {
		c.Variants = append(c.Variants, VariantSpec{
			Label:   fmt.Sprintf("MOON-HybridD%d", d),
			Preset:  "moon-hybrid",
			Cluster: &ClusterSpec{Volatile: intp(60), Dedicated: intp(d)},
		})
	}
	return c
}

// lowerAblation is a named ablation: each line switches one MOON mechanism
// off (or re-parameterizes it) on MOON-Hybrid at the 60V+6D testbed,
// holding everything else at the paper's settings.
func lowerAblation(name, app string) lowered {
	c := &CustomExperiment{
		Title:    fmt.Sprintf("Ablation %s (%s)", name, app),
		Workload: WorkloadSpec{App: app, IntermediateFactor: &FactorSpec{D: 1, V: 1}},
	}
	l := lowered{custom: c, app: app, renders: []string{"times"}, block: true}
	line := func(label string, v VariantSpec) {
		v.Label, v.Preset = label, "moon-hybrid"
		c.Variants = append(c.Variants, v)
	}
	// The two scheduler ablations always run sleep-sort, whatever app says
	// (the title still names it), and print duplicates too.
	sleepSort := func() {
		c.Workload = WorkloadSpec{App: "sort", Sleep: true}
		l.renders = []string{"times", "duplicates"}
	}
	switch name {
	case "homestretch":
		// The two-phase scheduler's (H, R), including off (H=0). The paper
		// reports H=20, R=2 "yields generally good results".
		sleepSort()
		for _, hr := range []struct {
			label string
			h     float64
			r     int
		}{{"off", 0, 0}, {"H10-R2", 10, 2}, {"H20-R2", 20, 2}, {"H20-R3", 20, 3}, {"H40-R2", 40, 2}} {
			line(hr.label, VariantSpec{Sched: &SchedDelta{HomestretchH: floatp(hr.h), HomestretchR: intp(hr.r)}})
		}
	case "speccap":
		// The global speculative budget as a fraction of available slots
		// (paper: 20%).
		sleepSort()
		for _, fc := range []struct {
			label string
			frac  float64
		}{{"cap5%", 0.05}, {"cap20%", 0.20}, {"cap50%", 0.50}, {"uncapped", 10}} {
			line(fc.label, VariantSpec{Sched: &SchedDelta{SpecSlotFraction: floatp(fc.frac)}})
		}
	case "hibernate":
		// The hibernate interval (default 60 s). 1799 s is "hibernate off":
		// just below the 1800 s expiry, so every outage is either invisible
		// or fatal, as in stock HDFS.
		for _, sec := range []float64{30, 60, 300, 1799} {
			line(fmt.Sprintf("hib%.0fs", sec), VariantSpec{DFS: &DFSDelta{HibernateIntervalSeconds: floatp(sec)}})
		}
	case "adaptive":
		// The adaptive volatile degree's availability target (paper
		// example: 0.9); a low target disables adaptation in practice
		// because v'=1 always satisfies it.
		for _, target := range []float64{0.5, 0.9, 0.99} {
			line(fmt.Sprintf("target%v", target), VariantSpec{DFS: &DFSDelta{AvailabilityTarget: floatp(target)}})
		}
	}
	return l
}

// lowerCorrelated is the paper's Section III scenario — whole lab groups
// disappearing together on top of independent churn — on the sleep app.
// The sweep's rate drives the *independent* component; the correlated
// sessions stay fixed at the default lab model, so peak simultaneous
// unavailability far exceeds the nominal rate.
func lowerCorrelated(app string) lowered {
	return lowered{app: app, renders: []string{"times"}, custom: &CustomExperiment{
		Title:    fmt.Sprintf("Correlated lab-session churn (%s)", app),
		Cluster:  &ClusterSpec{Correlated: &CorrelatedSpec{}},
		Workload: WorkloadSpec{App: app, Sleep: true},
		Variants: []VariantSpec{
			hadoopOnMOON("Hadoop1Min", 60),
			{Label: "MOON", Preset: "moon"},
			{Label: "MOON-Hybrid", Preset: "moon-hybrid"},
		},
	}}
}

// lowerMulti is the policy comparison: one identical stream of sleep jobs
// (scheduling-isolated, like Figures 4/5) on the MOON-Hybrid stack, one
// line per arbitration policy (default: FIFO against fair-share). Unlike a
// custom workload with "jobs": 1, it is a stream at any length: renamed
// jobs, the stream table, the stream's progress line.
func lowerMulti(app string, m *MultiExperiment) (lowered, error) {
	if err := m.checkPolicies(); err != nil {
		return lowered{}, at("multi", err)
	}
	policies := m.Policies
	if len(policies) == 0 {
		policies = []string{"fifo", "fair"}
	}
	ws := WorkloadSpec{
		App: app, Sleep: true,
		Jobs: m.Jobs, Arrivals: m.Arrivals, IntervalSeconds: m.IntervalSeconds, ArrivalSeed: m.ArrivalSeed,
		stream: true,
		// The ranks apply to the stream under every policy line, though
		// only the priority policy reads them.
		priorities: m.Priorities,
	}
	if ws.Arrivals == "" {
		ws.Arrivals = "staggered"
	}
	if m.LambdaPerHour > 0 {
		ws.IntervalSeconds = 3600 / m.LambdaPerHour
	}
	c := &CustomExperiment{
		Title: fmt.Sprintf("Multi-job (%s): %d jobs, %s arrivals every ~%.0fs",
			app, m.Jobs, ws.Arrivals, ws.IntervalSeconds),
		Workload: ws,
	}
	for _, name := range policies {
		v := VariantSpec{Label: "MOON-" + name, Preset: "moon-hybrid", Policy: name}
		if name == "weighted" {
			v.Weights = m.Weights
		}
		c.Variants = append(c.Variants, v)
	}
	return lowered{custom: c, app: app, renders: []string{"multi"}}, nil
}
