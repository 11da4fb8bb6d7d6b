package scenario

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) *Spec {
	t.Helper()
	s, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse(strings.NewReader(`{"schema":"moon-scenario/v1","name":"x","typo_field":1}`))
	if err == nil || !strings.Contains(err.Error(), "typo_field") {
		t.Fatalf("unknown field accepted: %v", err)
	}
	_, err = Parse(strings.NewReader(`{"schema":"moon-scenario/v1","name":"x","experiments":[{"figure":"fig4","apps":"sort"}]}`))
	if err == nil {
		t.Fatal("nested unknown field accepted")
	}
}

func TestParseRejectsWrongSchema(t *testing.T) {
	_, err := Parse(strings.NewReader(`{"schema":"moon-scenario/v2","name":"x"}`))
	if err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("wrong schema accepted: %v", err)
	}
}

// TestRoundTripLossless: parse → export → parse → export must be
// byte-identical, for a sparse spec and for every builtin.
func TestRoundTripLossless(t *testing.T) {
	sparse := `{"schema":"moon-scenario/v1","name":"sparse","experiments":[{"figure":"fig4","app":"sort"}]}`
	specs := []*Spec{mustParse(t, sparse)}
	specs = append(specs, Builtins()...)
	for _, s := range specs {
		var first bytes.Buffer
		if err := s.WriteJSON(&first); err != nil {
			t.Fatal(err)
		}
		reparsed, err := Parse(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("%s: re-parse: %v", s.Name, err)
		}
		var second bytes.Buffer
		if err := reparsed.WriteJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("%s: round trip not byte-identical:\n%s\nvs\n%s", s.Name, first.String(), second.String())
		}
		if s.Hash() != reparsed.Hash() {
			t.Errorf("%s: hash changed across round trip", s.Name)
		}
	}
}

// TestDefaultsDoNotLeakIntoExport: validation/compilation applies
// defaults, but the stored spec must stay sparse so round trips are
// lossless.
func TestDefaultsDoNotLeakIntoExport(t *testing.T) {
	s := mustParse(t, `{"schema":"moon-scenario/v1","name":"sparse","experiments":[{"figure":"fig4","app":"sort"}]}`)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(s); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, leak := range []string{"sweep", "seeds", "rates", "metrics"} {
		if strings.Contains(buf.String(), `"`+leak+`"`) {
			t.Errorf("defaulted field %q leaked into the export:\n%s", leak, buf.String())
		}
	}
}

func TestHashChangesWithContent(t *testing.T) {
	a := mustParse(t, `{"schema":"moon-scenario/v1","name":"a","experiments":[{"figure":"fig4","app":"sort"}]}`)
	b := mustParse(t, `{"schema":"moon-scenario/v1","name":"a","experiments":[{"figure":"fig4","app":"wordcount"}]}`)
	if a.Hash() == b.Hash() {
		t.Error("different specs share a hash")
	}
}

// validSpec is the spec each row of validateRejections breaks.
const validSpec = `{"schema":"moon-scenario/v1","name":"v","experiments":[{"figure":"fig4","app":"sort"}]}`

// badLine swaps in a custom sweep of two moon-hybrid lines, "ok" and "bad",
// the second carrying a stack delta the model cannot run. Each such spec
// used to compile, run the "ok" cells and then fail mid-sweep, run to exit
// 0, or (max_adaptive_v 0) run as the default 6.
func badLine(delta VariantSpec) func(*Spec) {
	return func(s *Spec) {
		delta.Label, delta.Preset = "bad", "moon-hybrid"
		s.Experiments = []Experiment{{Custom: &CustomExperiment{
			Title:    "t",
			Workload: WorkloadSpec{App: "sort"},
			Variants: []VariantSpec{{Label: "ok", Preset: "moon-hybrid"}, delta},
		}}}
	}
}

// outage swaps in a one-line custom sweep whose cluster overrides the
// outage model.
func outage(o OutageSpec) func(*Spec) {
	return func(s *Spec) {
		s.Experiments = []Experiment{{Custom: &CustomExperiment{
			Title:    "t",
			Cluster:  &ClusterSpec{Outage: &o},
			Workload: WorkloadSpec{App: "sort"},
			Variants: []VariantSpec{{Label: "a", Preset: "moon-hybrid"}},
		}}}
	}
}

// validateRejections are validSpec broken one way each, and what the
// rejection must mention.
var validateRejections = []struct {
	name string
	mut  func(*Spec)
	want string
}{
	{"no name", func(s *Spec) { s.Name = "" }, "name"},
	{"no experiments", func(s *Spec) { s.Experiments = nil }, "experiments"},
	{"bad rate", func(s *Spec) { s.Sweep.Rates = []float64{1.5} }, "rate"},
	{"zero seed", func(s *Spec) { s.Sweep.Seeds = []uint64{0} }, "seed"},
	{"dup seed", func(s *Spec) { s.Sweep.Seeds = []uint64{2, 2} }, "seed"},
	{"dup rate", func(s *Spec) { s.Sweep.Rates = []float64{0.5, 0.5} }, "duplicate unavailability rate"},
	{"negative scale", func(s *Spec) { s.Sweep.Scale = -1 }, "scale"},
	{"two kinds", func(s *Spec) { s.Experiments[0].Ablation = "speccap" }, "exactly one"},
	{"no kind", func(s *Spec) { s.Experiments[0].Figure = "" }, "exactly one"},
	{"bad figure", func(s *Spec) { s.Experiments[0].Figure = "fig9" }, "figure"},
	{"bad app", func(s *Spec) { s.Experiments[0].App = "grep" }, "app"},
	{"missing app", func(s *Spec) { s.Experiments[0].App = "" }, "app"},
	{"app on fig1", func(s *Spec) { s.Experiments[0].Figure = "fig1" }, "app"},
	{"bad render", func(s *Spec) { s.Experiments[0].Renders = []string{"pie"} }, "render"},
	{"multi render on single", func(s *Spec) { s.Experiments[0].Renders = []string{"multi"} }, "render"},
	{"table2 render off the replication sweep", func(s *Spec) { s.Experiments[0].Renders = []string{"table2"} }, "table2"},
	{"suspension past tracker expiry", badLine(VariantSpec{Sched: &SchedDelta{SuspensionIntervalSeconds: floatp(2000)}}),
		`experiments[0].custom.variants[1]: mapred: suspension interval 2000`},
	{"hibernate past dfs expiry", badLine(VariantSpec{DFS: &DFSDelta{HibernateIntervalSeconds: floatp(2000)}}),
		"hibernate interval 2000"},
	{"negative dfs expiry", badLine(VariantSpec{DFS: &DFSDelta{ExpiryIntervalSeconds: floatp(-5)}}), "expiry interval -5"},
	{"negative max adaptive v", badLine(VariantSpec{DFS: &DFSDelta{MaxAdaptiveV: intp(-2)}}), "max adaptive v -2"},
	{"zero max adaptive v", badLine(VariantSpec{DFS: &DFSDelta{MaxAdaptiveV: intp(0)}}), "max adaptive v 0"},
	{"negative replication streams", badLine(VariantSpec{DFS: &DFSDelta{MaxReplicationStreams: intp(-1)}}),
		"max replication streams -1"},
	{"negative homestretch r", badLine(VariantSpec{Sched: &SchedDelta{HomestretchR: intp(-1)}}), "homestretch R -1"},
	// The outage clamp is only wrong once merged with the paper's model it
	// overrides ([30 s, 3600 s]); checked field by field, both used to
	// validate and then fail in the first cell's trace generation.
	{"outage min past the default max", outage(OutageSpec{MinSeconds: 4000}),
		"experiments[0].custom.variants[0]: trace: bad outage clamp [4000,3600]"},
	{"outage max under the default min", outage(OutageSpec{MaxSeconds: 10}),
		"experiments[0].custom.variants[0]: trace: bad outage clamp [30,10]"},
	{"negative outage stddev", outage(OutageSpec{StddevSeconds: -1}), "outage stddev -1"},
	// Outages under Generate's one-second resolution: the traces took about
	// budget/length draws per node to generate, without practical end.
	{"outage sub-second", outage(OutageSpec{MinSeconds: 1e-9, MeanSeconds: 1e-9, StddevSeconds: 1e-9}),
		"experiments[0].custom.variants[0]: trace: outage clamp [1e-09,3600] must have max >= min >= 1 s"},
	{"negative parallelism", func(s *Spec) { s.Sweep.Parallelism = -1 }, "parallelism -1"},
	{"negative shard workers", func(s *Spec) { s.Sweep.ShardWorkers = -1 }, "shard_workers"},
	{"negative metrics bucket", func(s *Spec) { s.Metrics.BucketSeconds = -5 }, "metrics bucket -5"},
	// The sleep app writes no output, so the output factor's check used to
	// be skipped.
	{"unsatisfiable output factor on the sleep app", func(s *Spec) {
		s.Experiments = []Experiment{{Custom: &CustomExperiment{
			Title:    "t",
			Workload: WorkloadSpec{App: "sort", Sleep: true, OutputFactor: &FactorSpec{}},
			Variants: []VariantSpec{{Label: "a", Preset: "moon"}},
		}}}
	}, "experiments[0].custom.variants[0]: workload: multi-spec \"sleep-sort\" job 0: dfs: invalid replication factor {0,0}"},
	// MOON waits for a job's output to hold {D:1, V:3} copies, so this
	// line used to run every cell to the horizon and print ">28800".
	{"moon output on no dedicated node", func(s *Spec) {
		s.Experiments = []Experiment{{Custom: &CustomExperiment{
			Title:    "t",
			Cluster:  &ClusterSpec{Volatile: intp(60), Dedicated: intp(0)},
			Workload: WorkloadSpec{App: "sort"},
			Variants: []VariantSpec{{Label: "a", Preset: "moon-hybrid"}},
		}}}
	}, `experiments[0].custom.variants[0]: core: job "sort" writes output at factor {D:1, V:3}`},
	{"zero net bandwidth", badLine(VariantSpec{Net: &NetDelta{NodeBandwidthBytes: floatp(0)}}), "node bandwidth 0"},
	{"negative homestretch h", badLine(VariantSpec{Sched: &SchedDelta{HomestretchH: floatp(-1)}}), "homestretch H -1"},
}

// TestValidateRejections sweeps the checks: every malformed spec must name
// its problem.
func TestValidateRejections(t *testing.T) {
	for _, tc := range validateRejections {
		t.Run(tc.name, func(t *testing.T) {
			s := mustParse(t, validSpec)
			tc.mut(s)
			err := s.Validate()
			if err == nil {
				t.Fatal("malformed spec validated")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	if err := mustParse(t, validSpec).Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func multiSpec(body string) string {
	return `{"schema":"moon-scenario/v1","name":"m","experiments":[{"app":"sort","multi":` + body + `}]}`
}

func customSpec(body string) string {
	return `{"schema":"moon-scenario/v1","name":"c","experiments":[{"custom":` + body + `}]}`
}

func liveMultiSpec(body string) string {
	return `{"schema":"moon-scenario/v1","name":"l","execution":"live","experiments":[{"multi":` + body + `}]}`
}

// multiAndCustomRejections are malformed multi (simulated and live) and
// custom experiments, and what the rejection must mention besides the
// experiment's path.
var multiAndCustomRejections = []struct {
	name, src, want string
}{
	{"multi no jobs", multiSpec(`{"jobs":0}`), "jobs"},
	{"multi bad policy", multiSpec(`{"jobs":2,"policies":["lifo"]}`), "policy"},
	{"multi bad arrivals", multiSpec(`{"jobs":2,"arrivals":"uniform"}`), "arrival"},
	{"multi poisson both intervals", multiSpec(`{"jobs":2,"arrivals":"poisson","interval_seconds":10,"lambda_per_hour":30}`), "poisson"},
	{"multi poisson neither interval", multiSpec(`{"jobs":2,"arrivals":"poisson"}`), "poisson"},
	{"multi lambda without poisson", multiSpec(`{"jobs":2,"lambda_per_hour":30}`), "poisson"},
	{"multi alias policy", multiSpec(`{"jobs":2,"policies":["fair-share"]}`), "policy"},
	{"multi bad weight", multiSpec(`{"jobs":2,"policies":["weighted"],"weights":{"a-j0":-1}}`), "weight"},
	{"multi weights without weighted policy", multiSpec(`{"jobs":2,"policies":["fifo"],"weights":{"a-j0":2}}`), "weighted"},
	{"multi weights with default policies", multiSpec(`{"jobs":2,"weights":{"a-j0":2}}`), "weighted"},
	// Compiling allocates per job, so a job count past the bound is refused
	// before anything is built.
	{"multi too many jobs", multiSpec(`{"jobs":1025}`), "multi: jobs 1025 (want at most 1024)"},
	{"live multi too many jobs", liveMultiSpec(`{"jobs":1025}`), "multi: jobs 1025 (want at most 1024)"},
	{"custom too many jobs", customSpec(`{"title":"t","workload":{"app":"sort","jobs":1025,"interval_seconds":30},"variants":[{"label":"a","preset":"moon"}]}`),
		"workload: jobs 1025 (want at most 1024)"},
	{"custom no title", customSpec(`{"workload":{"app":"sort"},"variants":[{"label":"a","preset":"moon"}]}`), "title"},
	{"custom no variants", customSpec(`{"title":"t","workload":{"app":"sort"},"variants":[]}`), "variants"},
	{"custom dup label", customSpec(`{"title":"t","workload":{"app":"sort"},"variants":[{"label":"a","preset":"moon"},{"label":"a","preset":"moon"}]}`), "label"},
	{"custom bad preset", customSpec(`{"title":"t","workload":{"app":"sort"},"variants":[{"label":"a","preset":"spark"}]}`), "preset"},
	{"custom bad factor", customSpec(`{"title":"t","workload":{"app":"sort","intermediate_factor":{"d":0,"v":0}},"variants":[{"label":"a","preset":"moon"}]}`), "factor"},
	{"custom arrivals without jobs", customSpec(`{"title":"t","workload":{"app":"sort","interval_seconds":30},"variants":[{"label":"a","preset":"moon"}]}`), "jobs"},
	{"custom mix with poisson", customSpec(`{"title":"t","workload":{"app":"sort","jobs":4,"arrivals":"poisson","interval_seconds":30,"mix_scale":4},"variants":[{"label":"a","preset":"moon"}]}`), "mix_scale"},
	{"custom policy on single job", customSpec(`{"title":"t","workload":{"app":"sort"},"variants":[{"label":"a","preset":"moon","policy":"fair"}]}`), "policy"},
	{"custom weights without weighted policy", customSpec(`{"title":"t","workload":{"app":"sort","jobs":2,"interval_seconds":30},"variants":[{"label":"a","preset":"moon","policy":"fair","weights":{"sort-j0":2}}]}`), "weighted"},
	{"custom zero weight", customSpec(`{"title":"t","workload":{"app":"sort","jobs":2,"interval_seconds":30},"variants":[{"label":"a","preset":"moon","policy":"weighted","weights":{"sort-j0":0}}]}`), "weight 0"},
	{"custom weights on single job", customSpec(`{"title":"t","workload":{"app":"sort"},"variants":[{"label":"a","preset":"moon","weights":{"sort-j0":2}}]}`), "weighted"},
	{"custom bad dfs mode", customSpec(`{"title":"t","workload":{"app":"sort"},"variants":[{"label":"a","preset":"moon","dfs":{"mode":"gfs"}}]}`), "mode"},
	{"custom empty cluster", customSpec(`{"title":"t","cluster":{"volatile":0,"dedicated":0},"workload":{"app":"sort"},"variants":[{"label":"a","preset":"moon"}]}`), "nodes"},
	{"custom bad availability", customSpec(`{"title":"t","workload":{"app":"sort"},"variants":[{"label":"a","preset":"moon","dfs":{"availability_target":1.5}}]}`), "availability"},
}

// TestHugeJobCountAllocatesNothing: a job count far past the bound is
// refused before anything per job is built, so compiling it costs next to
// nothing (a 100 000-job block used to allocate 467 MB).
func TestHugeJobCountAllocatesNothing(t *testing.T) {
	for name, src := range map[string]string{
		"multi":      multiSpec(`{"jobs":1073741824,"policies":["fifo","fair","weighted","priority"]}`),
		"live multi": liveMultiSpec(`{"jobs":1073741824,"policies":["fifo","fair","weighted","priority"]}`),
		"custom":     customSpec(`{"title":"t","workload":{"app":"sort","jobs":1073741824},"variants":[{"label":"a","preset":"moon"}]}`),
	} {
		s := mustParse(t, src)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Compile(s)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "jobs 1073741824 (want at most 1024)") {
			t.Errorf("%s: Compile error %v, want the job bound", name, err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Errorf("%s: Compile allocated %d bytes, budget 1 MB", name, d)
		}
	}
}

func TestValidateMultiAndCustom(t *testing.T) {
	for _, tc := range multiAndCustomRejections {
		t.Run(tc.name, func(t *testing.T) {
			s := mustParse(t, tc.src)
			err := s.Validate()
			if err == nil {
				t.Fatal("malformed spec validated")
			}
			if !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "experiments[0].") {
				t.Fatalf("error %q does not mention %q at the experiment's path", err, tc.want)
			}
		})
	}
	// A sleep job writes no output, so MOON needs no dedicated node for it.
	sleep := customSpec(`{"title":"t","cluster":{"volatile":60,"dedicated":0},"workload":{"app":"sort","sleep":true},"variants":[{"label":"a","preset":"moon"}]}`)
	if err := mustParse(t, sleep).Validate(); err != nil {
		t.Fatalf("sleep job on no dedicated node rejected: %v", err)
	}
}
