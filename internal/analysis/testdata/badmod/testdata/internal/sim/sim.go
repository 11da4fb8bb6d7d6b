// Package sim under testdata is named like a deterministic package and
// reads the wall clock, but the loader skips testdata trees, so moonvet
// never sees it.
package sim

import "time"

// Now reads the wall clock.
func Now() time.Time { return time.Now() }
