// Package a is the detrange fixture: order-sensitive map-range bodies
// are flagged, the deterministic idioms are not.
package a

import (
	"fmt"
	"sort"
)

// --- flagged patterns ---

func appendKeys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `append to keys in map-iteration order`
	}
	return keys
}

func floatSum(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m {
		total += v // want `float64 accumulation into total in map-iteration order`
	}
	return total
}

func stringConcat(m map[string]string) string {
	out := ""
	for _, v := range m {
		out += v // want `string accumulation into out in map-iteration order`
	}
	return out
}

func firstError(m map[string]float64) error {
	for name, v := range m {
		if v < 0 {
			return fmt.Errorf("bad %s: %v", name, v) // want `return of a map-iteration variable`
		}
	}
	return nil
}

func printAll(m map[string]int) {
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v) // want `Printf called in map-iteration order`
	}
}

type queue struct{ items []int }

func (q *queue) Push(v int) { q.items = append(q.items, v) }

func scheduleAll(q *queue, m map[string]int) {
	for _, v := range m {
		q.Push(v) // want `Push called in map-iteration order`
	}
}

// clock stands in for internal/sim's Simulation, whose every scheduling
// call draws the next order number, and for sched's Admission, whose
// Acquire takes the next FIFO position.
type clock struct{ seq uint64 }

type reservation struct{ seq uint64 }

func (c *clock) After(d float64, name string, fn func()) { c.seq++ }

func (c *clock) ScheduleReserved(r *reservation, name string, fn func()) { c.seq++ }

func (c *clock) Acquire(tenant string, item int) (bool, error) { c.seq++; return true, nil }

func timersInMapOrder(c *clock, m map[string]float64, rs map[string]*reservation) {
	for k, d := range m {
		c.After(d, k, nil) // want `After called in map-iteration order`
	}
	for k, r := range rs {
		c.ScheduleReserved(r, k, nil) // want `ScheduleReserved called in map-iteration order`
	}
}

func admitInMapOrder(c *clock, m map[string]int) {
	for tenant, item := range m {
		c.Acquire(tenant, item) // want `Acquire called in map-iteration order`
	}
}

// --- allowed patterns ---

// sortedKeys is the canonical fix: collect, sort, then iterate the
// slice. The append feeds a sort, and the second loop ranges a slice.
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func printSorted(m map[string]int) {
	for _, k := range sortedKeys(m) {
		fmt.Printf("%s=%d\n", k, m[k])
	}
}

// intCount commutes exactly; integer accumulation is order-insensitive.
func intCount(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// invert writes into another map: keyed state, no observable order.
func invert(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

// groupBy appends into a map entry indexed by the loop key: each key's
// slice sees one ordered append, so iteration order is unobservable.
func groupBy(dst map[string][]int, src map[string][]int) {
	for k, vs := range src {
		dst[k] = append(dst[k], vs...)
	}
}

// contains returns a constant: membership tests commute.
func contains(m map[string]int, want string) bool {
	for k := range m {
		if k == want {
			return true
		}
	}
	return false
}

// localAppend builds and consumes its slice inside one iteration; no
// cross-iteration state escapes in map order.
func localAppend(m map[string][]int) int {
	n := 0
	for _, vs := range m {
		var doubled []int
		for _, v := range vs {
			doubled = append(doubled, 2*v)
		}
		n += len(doubled)
	}
	return n
}
