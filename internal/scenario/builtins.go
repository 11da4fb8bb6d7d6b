package scenario

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"

	"repro/scenarios"
)

// builtinNames is the registry's listing order; the specs themselves are
// the files the scenarios package embeds (scenarios/README.md says what
// each is for and why its numbers are what they are).
var builtinNames = []string{
	"paper-figures", "poisson-mix", "correlated-sort", "weighted-skew", "hadoop-expiry-sweep",
	"scale-sweep", "scale-100k", "live-mix", "chaos-live",
}

// Builtins returns the named scenario registry, in listing order. Each
// call parses fresh specs, so callers may mutate (e.g. apply flag
// overrides) freely.
func Builtins() []*Spec {
	specs := make([]*Spec, len(builtinNames))
	for i, name := range builtinNames {
		specs[i] = parseBuiltin(name)
	}
	return specs
}

// parseBuiltin parses the shipped file of a listed scenario; the files are
// compiled in, so one that does not parse is a bug the tests catch.
func parseBuiltin(name string) *Spec {
	raw, err := scenarios.Files.ReadFile(name + ".json")
	var s *Spec
	if err == nil {
		s, err = Parse(bytes.NewReader(raw))
	}
	if err != nil {
		panic(fmt.Sprintf("scenario: shipped scenario %s: %v", name, err))
	}
	return s
}

// Lookup resolves a builtin scenario by name, which is its file's.
func Lookup(name string) (*Spec, bool) {
	if !slices.Contains(builtinNames, name) {
		return nil, false
	}
	return parseBuiltin(name), true
}

// Load resolves a -scenario argument: a path to a spec file if one exists
// there, otherwise a builtin name.
func Load(arg string) (*Spec, error) {
	if f, err := os.Open(arg); err == nil {
		defer f.Close()
		s, err := Parse(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", arg, err)
		}
		return s, nil
	}
	if s, ok := Lookup(arg); ok {
		return s, nil
	}
	return nil, fmt.Errorf("unknown scenario %q: no such file, and not a built-in (-list-scenarios prints the built-ins)", arg)
}

// List prints the builtin registry, one line per scenario.
func List(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scenario\thash\tdescription")
	for _, s := range Builtins() {
		fmt.Fprintf(tw, "%s\t%s\t%s\n", s.Name, s.Hash(), s.Description)
	}
	return tw.Flush()
}
