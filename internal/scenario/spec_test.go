package scenario

import (
	"bytes"
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

// TestValidateRejections sweeps the static checks: every malformed spec
// must name its problem.
func TestValidateRejections(t *testing.T) {
	valid := func() *Spec {
		return mustParse(t, `{"schema":"moon-scenario/v1","name":"v","experiments":[{"figure":"fig4","app":"sort"}]}`)
	}
	// badLine swaps in a custom sweep of two moon-hybrid lines, "ok" and
	// "bad", the second carrying a stack delta the model cannot run. Each
	// such spec used to compile, run the "ok" cells and then fail mid-sweep,
	// run to exit 0, or (max_adaptive_v 0) run as the default 6.
	badLine := func(delta VariantSpec) func(*Spec) {
		return func(s *Spec) {
			delta.Label, delta.Preset = "bad", "moon-hybrid"
			s.Experiments = []Experiment{{Custom: &CustomExperiment{
				Title:    "t",
				Workload: WorkloadSpec{App: "sort"},
				Variants: []VariantSpec{{Label: "ok", Preset: "moon-hybrid"}, delta},
			}}}
		}
	}
	cases := []struct {
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
			`variant "bad": mapred: suspension interval 2000`},
		{"hibernate past dfs expiry", badLine(VariantSpec{DFS: &DFSDelta{HibernateIntervalSeconds: floatp(2000)}}),
			"hibernate interval 2000"},
		{"negative dfs expiry", badLine(VariantSpec{DFS: &DFSDelta{ExpiryIntervalSeconds: floatp(-5)}}), "expiry interval -5"},
		{"negative max adaptive v", badLine(VariantSpec{DFS: &DFSDelta{MaxAdaptiveV: intp(-2)}}), "max adaptive v -2"},
		{"zero max adaptive v", badLine(VariantSpec{DFS: &DFSDelta{MaxAdaptiveV: intp(0)}}), "max adaptive v 0"},
		{"negative replication streams", badLine(VariantSpec{DFS: &DFSDelta{MaxReplicationStreams: intp(-1)}}),
			"max replication streams -1"},
		{"negative homestretch r", badLine(VariantSpec{Sched: &SchedDelta{HomestretchR: intp(-1)}}), "homestretch R -1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := valid()
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
	if err := valid().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestValidateMultiAndCustom(t *testing.T) {
	multi := func(body string) string {
		return `{"schema":"moon-scenario/v1","name":"m","experiments":[{"app":"sort","multi":` + body + `}]}`
	}
	custom := func(body string) string {
		return `{"schema":"moon-scenario/v1","name":"c","experiments":[{"custom":` + body + `}]}`
	}
	bad := []struct {
		name, src, want string
	}{
		{"multi no jobs", multi(`{"jobs":0}`), "jobs"},
		{"multi bad policy", multi(`{"jobs":2,"policies":["lifo"]}`), "policy"},
		{"multi bad arrivals", multi(`{"jobs":2,"arrivals":"uniform"}`), "arrival"},
		{"multi poisson both intervals", multi(`{"jobs":2,"arrivals":"poisson","interval_seconds":10,"lambda_per_hour":30}`), "poisson"},
		{"multi poisson neither interval", multi(`{"jobs":2,"arrivals":"poisson"}`), "poisson"},
		{"multi lambda without poisson", multi(`{"jobs":2,"lambda_per_hour":30}`), "poisson"},
		{"multi bad weight", multi(`{"jobs":2,"policies":["weighted"],"weights":{"a-j0":-1}}`), "weight"},
		{"multi weights without weighted policy", multi(`{"jobs":2,"policies":["fifo"],"weights":{"a-j0":2}}`), "weighted"},
		{"multi weights with default policies", multi(`{"jobs":2,"weights":{"a-j0":2}}`), "weighted"},
		{"custom no title", custom(`{"workload":{"app":"sort"},"variants":[{"label":"a","preset":"moon"}]}`), "title"},
		{"custom no variants", custom(`{"title":"t","workload":{"app":"sort"},"variants":[]}`), "variants"},
		{"custom dup label", custom(`{"title":"t","workload":{"app":"sort"},"variants":[{"label":"a","preset":"moon"},{"label":"a","preset":"moon"}]}`), "label"},
		{"custom bad preset", custom(`{"title":"t","workload":{"app":"sort"},"variants":[{"label":"a","preset":"spark"}]}`), "preset"},
		{"custom bad factor", custom(`{"title":"t","workload":{"app":"sort","intermediate_factor":{"d":0,"v":0}},"variants":[{"label":"a","preset":"moon"}]}`), "factor"},
		{"custom arrivals without jobs", custom(`{"title":"t","workload":{"app":"sort","interval_seconds":30},"variants":[{"label":"a","preset":"moon"}]}`), "jobs"},
		{"custom mix with poisson", custom(`{"title":"t","workload":{"app":"sort","jobs":4,"arrivals":"poisson","interval_seconds":30,"mix_scale":4},"variants":[{"label":"a","preset":"moon"}]}`), "mix_scale"},
		{"custom policy on single job", custom(`{"title":"t","workload":{"app":"sort"},"variants":[{"label":"a","preset":"moon","policy":"fair"}]}`), "policy"},
		{"custom weights without weighted policy", custom(`{"title":"t","workload":{"app":"sort","jobs":2,"interval_seconds":30},"variants":[{"label":"a","preset":"moon","policy":"fair","weights":{"sort-j0":2}}]}`), "weighted"},
		{"custom weights on single job", custom(`{"title":"t","workload":{"app":"sort"},"variants":[{"label":"a","preset":"moon","weights":{"sort-j0":2}}]}`), "weighted"},
		{"custom bad dfs mode", custom(`{"title":"t","workload":{"app":"sort"},"variants":[{"label":"a","preset":"moon","dfs":{"mode":"gfs"}}]}`), "mode"},
		{"custom empty cluster", custom(`{"title":"t","cluster":{"volatile":0,"dedicated":0},"workload":{"app":"sort"},"variants":[{"label":"a","preset":"moon"}]}`), "nodes"},
		{"custom bad availability", custom(`{"title":"t","workload":{"app":"sort"},"variants":[{"label":"a","preset":"moon","dfs":{"availability_target":1.5}}]}`), "availability"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			s := mustParse(t, tc.src)
			err := s.Validate()
			if err == nil {
				t.Fatal("malformed spec validated")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
