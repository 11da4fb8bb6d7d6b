package harness

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/rng"
	"repro/internal/trace"
)

// RenderTimes prints a sweep's execution-time matrix (rates × variants),
// the layout of Figures 4, 6 and 7, from each cell's first job. Capped
// cells (job did not finish before the trace horizon) are prefixed with
// '>'.
func (sw *Sweep) RenderTimes(w io.Writer) error {
	return sw.render(w, "execution time (s)", func(st Stats) string {
		if st.Capped {
			return fmt.Sprintf(">%.0f", st.first().Makespan)
		}
		return fmt.Sprintf("%.0f", st.first().Makespan)
	})
}

// RenderDuplicates prints the duplicated-task matrix (Figure 5).
func (sw *Sweep) RenderDuplicates(w io.Writer) error {
	return sw.render(w, "duplicated tasks", func(st Stats) string {
		return fmt.Sprintf("%.0f", st.first().Duplicated)
	})
}

func (sw *Sweep) render(w io.Writer, what string, cell func(Stats) string) error {
	if _, err := fmt.Fprintf(w, "%s — %s\n", sw.Title, what); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "unavail")
	for _, v := range sw.Variants {
		fmt.Fprintf(tw, "\t%s", v)
	}
	fmt.Fprintln(tw)
	for _, rate := range sw.Rates {
		fmt.Fprintf(tw, "%.1f", rate)
		for _, v := range sw.Variants {
			fmt.Fprintf(tw, "\t%s", cell(sw.Get(v, rate)))
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// RenderTable2 prints the execution profile of the named lines at the
// sweep's last (highest) unavailability rate, in the layout of the paper's
// Table II.
func (sw *Sweep) RenderTable2(w io.Writer, app string, policies []string) error {
	rate := sw.Rates[len(sw.Rates)-1]
	if _, err := fmt.Fprintf(w, "Table II (%s) — execution profile at %.1f unavailability\n", app, rate); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "metric")
	for _, p := range policies {
		fmt.Fprintf(tw, "\t%s", p)
	}
	fmt.Fprintln(tw)
	row := func(name string, get func(JobStats) float64) {
		fmt.Fprint(tw, name)
		for _, p := range policies {
			fmt.Fprintf(tw, "\t%.1f", get(sw.Get(p, rate).first()))
		}
		fmt.Fprintln(tw)
	}
	row("Avg Map Time (s)", func(j JobStats) float64 { return j.AvgMapTime })
	row("Avg Shuffle Time (s)", func(j JobStats) float64 { return j.AvgShuffleTime })
	row("Avg Reduce Time (s)", func(j JobStats) float64 { return j.AvgReduceTime })
	row("Avg #Killed Maps", func(j JobStats) float64 { return j.KilledMaps })
	row("Avg #Killed Reduces", func(j JobStats) float64 { return j.KilledReduces })
	return tw.Flush()
}

// RenderStream prints the job-stream matrix: one row per (rate, variant)
// with the run span, throughput, completions, and each job's makespan in
// submission order. Capped cells are prefixed with '>'.
func (sw *Sweep) RenderStream(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s — span / throughput / per-job makespan (s)\n", sw.Title); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "unavail\tpolicy\tspan\tjobs/h\tdone\tper-job makespans")
	for _, rate := range sw.Rates {
		for _, v := range sw.Variants {
			st := sw.Get(v, rate)
			span := fmt.Sprintf("%.0f", st.Span)
			if st.Capped {
				span = ">" + span
			}
			fmt.Fprintf(tw, "%.1f\t%s\t%s\t%.2f\t%.1f", rate, v, span, st.Throughput, st.Completed)
			for i, job := range st.Jobs {
				sep := "\t"
				if i > 0 {
					sep = " "
				}
				fmt.Fprintf(tw, "%s%.0f", sep, job.Makespan)
			}
			fmt.Fprintln(tw)
		}
	}
	return tw.Flush()
}

// RenderLive prints the live matrix: one row per (rate, variant) with
// span, completions, attempt totals over the cell's jobs and each job's
// makespan (queue wait in parentheses), wall-clock seconds.
func (sw *Sweep) RenderLive(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s — wall-clock span / per-job makespan (queue wait), seconds\n", sw.Title); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "unavail\tpolicy\tspan\tdone\tmaps\tbackups\treexecs\tper-job makespan (wait)")
	for _, rate := range sw.Rates {
		for _, v := range sw.Variants {
			st := sw.Get(v, rate)
			var maps, backups, reexecs float64
			for _, job := range st.Jobs {
				maps += job.MapAttempts
				backups += job.BackupCopies
				reexecs += job.MapReexecs
			}
			fmt.Fprintf(tw, "%.1f\t%s\t%.3f\t%.1f\t%.1f\t%.1f\t%.1f",
				rate, v, st.Span, st.Completed, maps, backups, reexecs)
			for i, job := range st.Jobs {
				sep := "\t"
				if i > 0 {
					sep = " "
				}
				fmt.Fprintf(tw, "%s%.3f(%.3f)", sep, job.Makespan, job.QueueWait)
			}
			fmt.Fprintln(tw)
		}
	}
	return tw.Flush()
}

// Fig1 generates and renders the availability trace study of Figure 1:
// per-day percentage of unavailable resources, sampled every 10 minutes
// over a 9AM-5PM window.
func Fig1(w io.Writer, seed uint64) error {
	days := trace.GenerateFig1(rng.New(seed))
	fmt.Fprintln(w, "Fig 1: percentage of unavailable resources (10-minute samples, 9AM-5PM)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "time")
	for _, d := range days {
		fmt.Fprintf(tw, "\tDAY%d", d.Day)
	}
	fmt.Fprintln(tw)
	if len(days) == 0 {
		return tw.Flush()
	}
	sum, n := 0.0, 0
	for i := range days[0].Series {
		hour := 9 + float64(i)*600/3600
		fmt.Fprintf(tw, "%02d:%02d", int(hour), int(hour*60)%60)
		for _, d := range days {
			fmt.Fprintf(tw, "\t%.0f%%", d.Series[i]*100)
			sum += d.Series[i]
			n++
		}
		fmt.Fprintln(tw)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "average unavailability: %.2f (paper: ~0.4)\n", sum/float64(n))
	return err
}
