package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

const metricsSchema = "moon-metrics/v1"

// metricsReport is the part of a moon-metrics/v1 document the benchmark
// reads: each experiment cell's counters and gauges.
type metricsReport struct {
	Schema      string `json:"schema"`
	Experiments []struct {
		Variant  string `json:"variant"`
		Counters []struct {
			Layer string  `json:"layer"`
			Name  string  `json:"name"`
			Value float64 `json:"value"`
		} `json:"counters"`
		Gauges []struct {
			Layer string  `json:"layer"`
			Name  string  `json:"name"`
			Value float64 `json:"value"`
		} `json:"gauges"`
	} `json:"experiments"`
}

func parseReport(data []byte) (*metricsReport, error) {
	var rep metricsReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("metrics report: %w", err)
	}
	if rep.Schema != metricsSchema {
		return nil, fmt.Errorf("metrics report: schema %q, want %q", rep.Schema, metricsSchema)
	}
	return &rep, nil
}

func readReport(path string) (*metricsReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseReport(data)
}

// layerOf maps a report layer to the benchmark's layer name: the report
// calls the network model "net", the package is netmodel.
func layerOf(reportLayer string) string {
	if reportLayer == "net" {
		return "netmodel"
	}
	return reportLayer
}

// counts accumulates report counters as "<layer>.<name>" sums, plus the
// simulated MOON job time behind mapred.makespan_s. Counters are exact per
// seed, so two runs on one seed must produce identical counts.
type counts struct {
	sum       map[string]float64
	makespans []float64
}

func newCounts() *counts { return &counts{sum: make(map[string]float64)} }

// add folds every cell of rep in. A cell whose variant starts with
// "Hadoop" is the baseline: its counters count, its job time is not MOON's.
func (c *counts) add(rep *metricsReport) {
	for _, e := range rep.Experiments {
		for _, ctr := range e.Counters {
			c.sum[layerOf(ctr.Layer)+"."+ctr.Name] += ctr.Value
		}
		if strings.HasPrefix(e.Variant, "Hadoop") {
			continue
		}
		for _, g := range e.Gauges {
			if g.Layer == "mapred" && g.Name == "makespan_seconds" {
				c.makespans = append(c.makespans, g.Value)
			}
		}
	}
}

// meanMakespan is the mean simulated MOON job time over the cells added.
func (c *counts) meanMakespan() float64 {
	if len(c.makespans) == 0 {
		return 0
	}
	total := 0.0
	for _, v := range c.makespans {
		total += v
	}
	return total / float64(len(c.makespans))
}
