package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestRejectsEmptyFleet: no nodes, or a trace length that is not positive and
// finite, is an error rather than a NaN line (+Inf drew outages without end).
func TestRejectsEmptyFleet(t *testing.T) {
	for _, args := range [][]string{{"-nodes", "0"}, {"-nodes", "-1"}, {"-duration", "NaN"}, {"-duration", "+Inf"}} {
		var out bytes.Buffer
		if err := run(args, &out, io.Discard); err == nil {
			t.Fatalf("%v succeeded and printed %q", args, out.String())
		}
	}
}

func TestStatsPrintsEachNodeAndTheFleet(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-nodes", "3", "-stats"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 3 node lines and the fleet line, got:\n%s", out.String())
	}
	for i, l := range lines[:3] {
		if !strings.HasPrefix(l, "node ") {
			t.Errorf("line %d %q is not a node line", i, l)
		}
	}
	if !strings.HasPrefix(lines[3], "fleet: 3 nodes, mean unavailability ") || strings.Contains(lines[3], "NaN") {
		t.Errorf("fleet line %q", lines[3])
	}
}
