// Command moonvet machine-checks the repo's determinism invariants: a
// multichecker over the project-specific analyzer suite in
// internal/analysis (wallclock, globalrand, detrange), run over the whole
// module it is started in.
//
// Usage:
//
//	go run ./cmd/moonvet        # check the whole module
//	go run ./cmd/moonvet -list  # describe the analyzers
//
// moonvet exits 0 when the tree is clean, 1 when it has findings, 2 on
// usage or load errors. It takes no package patterns, and no finding can
// be suppressed: a finding is a bug to fix.
package main

import (
	"fmt"
	"os"

	"repro/internal/analysis/moonvet"
)

func main() {
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "moonvet:", err)
		os.Exit(2)
	}
	os.Exit(moonvet.Main(cwd, os.Args[1:], os.Stdout))
}
