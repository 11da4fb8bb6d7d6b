// Benchmarks regenerating the paper's tables and figures, one benchmark
// per experiment. Each iteration runs a bounded version of the experiment
// (single seed, highest-churn rate, sometimes a reduced workload scale) so
// `go test -bench=.` finishes in minutes; `cmd/moonbench` runs the full
// sweeps and prints the paper-layout tables.
//
// The interesting output is the custom metrics: each benchmark reports the
// headline comparison of its figure (e.g. the MOON-vs-Hadoop speedup) so a
// benchmark run doubles as a shape check against the paper.
package repro

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// benchConfig bounds an experiment for benchmarking. Parallelism 0 lets the
// harness worker pool use every core; results are identical to a serial run.
func benchConfig(scale int, rates ...float64) harness.Config {
	return harness.Config{Seeds: []uint64{1}, Scale: scale, Rates: rates}
}

// figure compiles one of the paper's figures and returns its lines.
func figure(b *testing.B, fig, app string) (string, []harness.Variant) {
	b.Helper()
	plan, err := scenario.Compile(&scenario.Spec{
		Schema: scenario.Schema, Name: "bench",
		Experiments: []scenario.Experiment{{Figure: fig, App: app}},
	})
	if err != nil {
		b.Fatal(err)
	}
	return plan.Runs[0].Title, plan.Runs[0].Variants
}

// sweepFigure runs a figure's sweep under cfg.
func sweepFigure(b *testing.B, cfg harness.Config, fig, app string) *harness.Sweep {
	b.Helper()
	title, variants := figure(b, fig, app)
	sw, err := cfg.RunSweep(title, variants)
	if err != nil {
		b.Fatal(err)
	}
	return sw
}

// first returns the job of a single-job cell.
func first(sw *harness.Sweep, label string, rate float64) harness.JobStats {
	return sw.Get(label, rate).Jobs[0]
}

// BenchmarkFig1Trace regenerates the 7-day diurnal availability study.
func BenchmarkFig1Trace(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		days := trace.GenerateFig1(rng.New(uint64(i + 1)))
		sum, n := 0.0, 0
		for _, d := range days {
			for _, v := range d.Series {
				sum += v
				n++
			}
		}
		avg = sum / float64(n)
	}
	b.ReportMetric(avg, "meanUnavail")
}

// BenchmarkFig4SchedulingSort runs the scheduling-policy comparison on the
// sort-shaped sleep app at the paper's full task counts, 0.5 unavailability.
// Reported metric: Hadoop1Min / MOON-Hybrid makespan ratio (paper: ~1.9).
func BenchmarkFig4SchedulingSort(b *testing.B) {
	benchFig4(b, "sort")
}

// BenchmarkFig4SchedulingWordCount is Figure 4(b).
func BenchmarkFig4SchedulingWordCount(b *testing.B) {
	benchFig4(b, "wordcount")
}

func benchFig4(b *testing.B, app string) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		sw := sweepFigure(b, benchConfig(1, 0.5), "fig4", app)
		ratio = first(sw, "Hadoop1Min", 0.5).Makespan / first(sw, "MOON-Hybrid", 0.5).Makespan
	}
	b.ReportMetric(ratio, "hadoop1min/moonHybrid")
}

// BenchmarkFig4MultiSeedSweep runs the MOON-Hybrid Fig4 cell across eight
// churn seeds at quarter scale — the embarrassingly parallel sweep shape the
// harness worker pool targets. Compare against the Serial twin below for the
// parallel speedup on a multi-core box.
func BenchmarkFig4MultiSeedSweep(b *testing.B) {
	benchMultiSeed(b, 0)
}

// BenchmarkFig4MultiSeedSweepSerial is the single-worker baseline of the
// same sweep.
func BenchmarkFig4MultiSeedSweepSerial(b *testing.B) {
	benchMultiSeed(b, 1)
}

func benchMultiSeed(b *testing.B, parallelism int) {
	cfg := benchConfig(4, 0.5)
	cfg.Seeds = []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	cfg.Parallelism = parallelism
	_, variants := figure(b, "fig4", "sort")
	variants = variants[4:5] // MOON-Hybrid
	var makespan float64
	for i := 0; i < b.N; i++ {
		sw, err := cfg.RunSweep("multi-seed", variants)
		if err != nil {
			b.Fatal(err)
		}
		makespan = first(sw, "MOON-Hybrid", 0.5).Makespan
	}
	b.ReportMetric(makespan, "meanMakespan")
}

// BenchmarkFig5DuplicatedTasks reports the duplicated-task reduction of the
// same sweep (paper: MOON issues ~44% fewer duplicates than Hadoop1Min at
// 0.5 for sort).
func BenchmarkFig5DuplicatedTasks(b *testing.B) {
	var reduction float64
	for i := 0; i < b.N; i++ {
		sw := sweepFigure(b, benchConfig(1, 0.5), "fig4", "sort")
		h := first(sw, "Hadoop1Min", 0.5).Duplicated
		m := first(sw, "MOON", 0.5).Duplicated
		reduction = 1 - m/h
	}
	b.ReportMetric(reduction, "dupReductionVsHadoop1Min")
}

// BenchmarkFig6IntermediateReplicationSort compares volatile-only and
// hybrid-aware intermediate replication at 0.5 unavailability on a
// half-scale sort (paper: HA-V1 beats the best VO configuration).
func BenchmarkFig6IntermediateReplicationSort(b *testing.B) {
	benchFig6(b, "sort")
}

// BenchmarkFig6IntermediateReplicationWordCount is Figure 6(b).
func BenchmarkFig6IntermediateReplicationWordCount(b *testing.B) {
	benchFig6(b, "wordcount")
}

func benchFig6(b *testing.B, app string) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		sw := sweepFigure(b, benchConfig(2, 0.5), "fig6", app)
		_, bestVO := sw.Best("VO", 0.5)
		ratio = bestVO.Makespan / first(sw, "HA-V1", 0.5).Makespan
	}
	b.ReportMetric(ratio, "bestVO/haV1")
}

// BenchmarkTable2Profile regenerates the execution-profile table at 0.5
// unavailability and reports its most diagnostic cell: killed maps under
// VO-V1 versus HA-V1 (paper: 1389 vs 18.75 — a ~74x collapse).
func BenchmarkTable2Profile(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		sw := sweepFigure(b, benchConfig(2, 0.5), "fig6", "sort")
		vo := first(sw, "VO-V1", 0.5).KilledMaps
		ha := first(sw, "HA-V1", 0.5).KilledMaps
		if ha > 0 {
			ratio = vo / ha
		}
	}
	b.ReportMetric(ratio, "killedMapsVO1/HA1")
}

// BenchmarkFig7OverallSort runs the headline comparison: augmented Hadoop
// (Hadoop-VO) against MOON-Hybrid with 6 dedicated nodes at 0.5
// unavailability (paper: MOON wins ~3x for sort).
func BenchmarkFig7OverallSort(b *testing.B) {
	benchFig7(b, "sort")
}

// BenchmarkFig7OverallWordCount is Figure 7(b) (paper: ~1.5x).
func BenchmarkFig7OverallWordCount(b *testing.B) {
	benchFig7(b, "wordcount")
}

func benchFig7(b *testing.B, app string) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		sw := sweepFigure(b, benchConfig(2, 0.5), "fig7", app)
		speedup = first(sw, "Hadoop-VO", 0.5).Makespan / first(sw, "MOON-HybridD6", 0.5).Makespan
	}
	b.ReportMetric(speedup, "moonSpeedup")
}
