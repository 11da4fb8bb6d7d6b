// Package sim violates the wallclock invariant (it is named like a
// deterministic package) and the detrange invariant; moonvet's tests
// assert on both.
package sim

import (
	"time"

	"badmod/internal/util"
)

// Tick reads the wall clock in a deterministic package: flagged.
func Tick() time.Time {
	return time.Now()
}

// Keys collects map keys without sorting: flagged.
func Keys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return util.Identity(keys)
}
