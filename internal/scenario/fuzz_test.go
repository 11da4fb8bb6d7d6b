package scenario

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/trace"
	"repro/internal/workload"
)

const (
	specCorpusDir     = "testdata/fuzz/FuzzSpec"
	benchWorkloadsDir = "../../bench/workloads"
)

// TestBenchWorkloadsValidate: the benchmark runs scenario files of its own
// (sim-fleet.json still sets the inert shard_workers); each must parse and
// validate.
func TestBenchWorkloadsValidate(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join(benchWorkloadsDir, "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no benchmark workloads under %s (%v)", benchWorkloadsDir, err)
	}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Parse(bytes.NewReader(raw))
		if err == nil {
			err = s.Validate()
		}
		if err != nil {
			t.Errorf("%s: %v", filepath.Base(path), err)
		}
	}
}

// specSeeds is FuzzSpec's corpus by file name: every shipped scenario, every
// benchmark workload, and every row of TestValidateRejections and
// TestValidateMultiAndCustom as the JSON it is (the two outage-clamp specs
// among them).
func specSeeds(t *testing.T) map[string][]byte {
	seeds := map[string][]byte{}
	for prefix, dir := range map[string]string{"scenario-": scenariosDir, "bench-": benchWorkloadsDir} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			seeds[prefix+strings.TrimSuffix(filepath.Base(path), ".json")] = raw
		}
	}
	name := func(row string) string { return strings.ReplaceAll(row, " ", "-") }
	for _, row := range validateRejections {
		s := mustParse(t, validSpec)
		row.mut(s)
		var buf bytes.Buffer
		if err := s.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		seeds["reject-"+name(row.name)] = buf.Bytes()
	}
	for _, row := range multiAndCustomRejections {
		seeds["reject-"+name(row.name)] = []byte(row.src)
	}
	return seeds
}

// TestSpecCorpus keeps the checked-in corpus equal to specSeeds. With
// MOON_WRITE_SPEC_CORPUS set it writes the files instead.
func TestSpecCorpus(t *testing.T) {
	for name, seed := range specSeeds(t) {
		path := filepath.Join(specCorpusDir, name)
		file := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		if os.Getenv("MOON_WRITE_SPEC_CORPUS") != "" {
			if err := os.MkdirAll(specCorpusDir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != file {
			t.Errorf("%s: the corpus file is not this seed (%v)", name, err)
		}
	}
}

// Bounds on what FuzzSpec asks of a spec. Building a stack generates one
// trace per node and stages every job's input, so a line is built only when
// its outage draws (at most the fleet's churn budget over the shortest
// outage the clamp allows), correlated sessions and staged blocks stay
// small. Larger lines are still validated.
const (
	fuzzMaxDraws    = 300_000
	fuzzMaxSessions = 10_000
	fuzzMaxBlocks   = 20_000
)

// buildable reports whether FuzzSpec builds a line's stack for opts and the
// scaled stream m.
func buildable(opts core.Options, m workload.MultiSpec) bool {
	cs := opts.Cluster
	nodes := float64(cs.VolatileNodes + cs.DedicatedNodes)
	horizon := cs.Horizon
	if horizon == 0 {
		horizon = 8 * 3600 // core's default
	}
	ocfg := trace.DefaultOutageConfig(cs.UnavailabilityRate)
	if cs.Outage != nil {
		ocfg = *cs.Outage
	}
	if cs.Correlated != nil {
		ocfg = cs.Correlated.Base
		if nodes*float64(cs.Correlated.SessionsPerGroup) > fuzzMaxSessions {
			return false
		}
	}
	if nodes*horizon/ocfg.MinOutage > fuzzMaxDraws {
		return false
	}
	blocks := 0
	for _, j := range m.Jobs {
		blocks += j.Spec.Job.NumMaps
	}
	return blocks <= fuzzMaxBlocks
}

// FuzzSpec holds "valid means runnable": arbitrary bytes go through Parse
// and Validate, and of a spec that validates, the export re-parses to the
// same bytes, a spec that validates again, with the same hash, and every
// simulated line builds at every rate what its run would build before the
// first event: the traces, the cluster, the network, the DFS and the
// JobTracker (core.NewForWorkload), with every job's input staged. Live
// lines stop at their check: building one starts an engine.
func FuzzSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := Parse(bytes.NewReader(b))
		if err != nil {
			return
		}
		plan, err := Compile(s)
		if err != nil {
			return
		}
		cfg := plan.Config
		for i, run := range plan.Runs {
			for _, v := range run.Variants {
				sc, ok := v.Cell.(harness.SimCell)
				if !ok {
					continue
				}
				m := workload.ScaleMulti(sc.Workload, cfg.Scale)
				for _, rate := range cfg.Rates {
					opts := sc.Build(core.ClusterSpec{UnavailabilityRate: rate, Seed: cfg.Seeds[0]})
					if !buildable(opts, m) {
						continue
					}
					sim, err := core.NewForWorkload(opts, m)
					for k := 0; err == nil && k < len(m.Jobs); k++ {
						j := m.Jobs[k].Spec
						err = sim.StageInput(j.Job.InputFile, j.InputSize, j.InputFactor)
					}
					if err != nil {
						t.Fatalf("run %d line %q validates but does not build at rate %v: %v", i, v.Label, rate, err)
					}
				}
			}
		}

		var first, second bytes.Buffer
		if err := s.WriteJSON(&first); err != nil {
			t.Fatalf("export: %v", err)
		}
		reparsed, err := Parse(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("export does not re-parse: %v\n%s", err, first.Bytes())
		}
		if err := reparsed.WriteJSON(&second); err != nil {
			t.Fatalf("re-export: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip not byte-identical:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
		if h := s.Hash(); h != reparsed.Hash() || h != s.Hash() {
			t.Fatalf("hash not stable across the round trip")
		}
		if err := reparsed.Validate(); err != nil {
			t.Fatalf("export of a valid spec does not validate: %v", err)
		}
	})
}
