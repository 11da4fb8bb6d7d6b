package sched

import (
	"strings"
	"testing"
)

// fakeJob is a minimal Job for policy/queue tests.
type fakeJob struct {
	name     string
	done     bool
	attempts Attempts
	priority int
}

func (j *fakeJob) Name() string        { return j.name }
func (j *fakeJob) Done() bool          { return j.done }
func (j *fakeJob) ActiveAttempts() int { return j.attempts.Active() }
func (j *fakeJob) Priority() int       { return j.priority }

func names(jobs []*fakeJob) string {
	parts := make([]string, len(jobs))
	for i, j := range jobs {
		parts[i] = j.name
	}
	return strings.Join(parts, ",")
}

func TestFIFOKeepsSubmissionOrder(t *testing.T) {
	a, b, c := &fakeJob{name: "a"}, &fakeJob{name: "b"}, &fakeJob{name: "c"}
	got := FIFO[*fakeJob]().Order(nil, []*fakeJob{a, b, c})
	if names(got) != "a,b,c" {
		t.Fatalf("FIFO order %s", names(got))
	}
}

func TestFairShareRanksByActiveAttempts(t *testing.T) {
	a := &fakeJob{name: "a", attempts: Attempts{Live: 5}}
	b := &fakeJob{name: "b", attempts: Attempts{Live: 1}}
	c := &fakeJob{name: "c", attempts: Attempts{Live: 5, Inactive: 5}} // active 0
	got := FairShare[*fakeJob]().Order(nil, []*fakeJob{a, b, c})
	if names(got) != "c,b,a" {
		t.Fatalf("fair order %s", names(got))
	}
	// Ties break by submission order.
	d := &fakeJob{name: "d", attempts: Attempts{Live: 1}}
	got = FairShare[*fakeJob]().Order(nil, []*fakeJob{b, d})
	if names(got) != "b,d" {
		t.Fatalf("fair tie order %s", names(got))
	}
}

func TestWeightedFairRanksByRatio(t *testing.T) {
	// a holds 3 attempts at weight 3 (ratio 1); b holds 2 at weight 1
	// (ratio 2): a still wins the next slot.
	a := &fakeJob{name: "a", attempts: Attempts{Live: 3}}
	b := &fakeJob{name: "b", attempts: Attempts{Live: 2}}
	p := WeightedFair[*fakeJob](map[string]float64{"a": 3})
	got := p.Order(nil, []*fakeJob{b, a})
	if names(got) != "a,b" {
		t.Fatalf("weighted order %s", names(got))
	}
	// Nil weights degenerate to fair-share.
	got = WeightedFair[*fakeJob](nil).Order(nil, []*fakeJob{a, b})
	if names(got) != "b,a" {
		t.Fatalf("uniform weighted order %s", names(got))
	}
	// Non-positive weights fall back to 1.
	got = WeightedFair[*fakeJob](map[string]float64{"a": -2}).Order(nil, []*fakeJob{a, b})
	if names(got) != "b,a" {
		t.Fatalf("non-positive weight order %s", names(got))
	}
}

func TestStrictPriorityOrdersHighFirstWithSubmissionTies(t *testing.T) {
	low := &fakeJob{name: "low", priority: 1}
	hi := &fakeJob{name: "hi", priority: 9}
	mid1 := &fakeJob{name: "mid1", priority: 5}
	mid2 := &fakeJob{name: "mid2", priority: 5}
	got := StrictPriority[*fakeJob]().Order(nil, []*fakeJob{low, mid1, hi, mid2})
	if names(got) != "hi,mid1,mid2,low" {
		t.Fatalf("priority order %s", names(got))
	}
	// All-zero priorities degenerate to FIFO.
	a, b := &fakeJob{name: "a"}, &fakeJob{name: "b"}
	got = StrictPriority[*fakeJob]().Order(nil, []*fakeJob{a, b})
	if names(got) != "a,b" {
		t.Fatalf("zero-priority order %s", names(got))
	}
}

func TestPolicyByNameResolvesAndHardErrors(t *testing.T) {
	for name, want := range map[string]string{
		"fifo": "fifo", "fair": "fair", "fairshare": "fair", "fair-share": "fair",
		"weighted": "weighted", "wfair": "weighted", "weighted-fair": "weighted",
		"priority": "priority", "strict-priority": "priority",
	} {
		p, err := PolicyByName[*fakeJob](name)
		if err != nil {
			t.Fatalf("PolicyByName(%q): %v", name, err)
		}
		if p.Name() != want {
			t.Fatalf("PolicyByName(%q).Name() = %q, want %q", name, p.Name(), want)
		}
	}
	for _, bad := range []string{"", "fifoo", "FIFO", "random", "rr"} {
		if _, err := PolicyByName[*fakeJob](bad); err == nil {
			t.Fatalf("PolicyByName(%q) did not error", bad)
		}
	}
	if len(PolicyNames()) != 4 {
		t.Fatalf("PolicyNames() = %v", PolicyNames())
	}
}

func TestQueueRejectsDuplicateLiveNames(t *testing.T) {
	q := NewQueue[*fakeJob](nil, nil)
	a := &fakeJob{name: "a"}
	if err := q.Submit(a); err != nil {
		t.Fatal(err)
	}
	if err := q.Submit(&fakeJob{name: "a"}); err == nil {
		t.Fatal("duplicate live name accepted")
	}
	// A finished job frees its name.
	a.done = true
	if err := q.Submit(&fakeJob{name: "a"}); err != nil {
		t.Fatalf("name of finished job still held: %v", err)
	}
	if q.Len() != 2 || q.Running() != 1 {
		t.Fatalf("len %d running %d", q.Len(), q.Running())
	}
	if latest, ok := q.Latest(); !ok || latest.name != "a" || latest.done {
		t.Fatalf("Latest = %+v, %v", latest, ok)
	}
}

func TestQueueOrderFiltersRunnableAndReusesScratch(t *testing.T) {
	runnable := func(j *fakeJob) bool { return !j.done && j.priority >= 0 }
	q := NewQueue(FairShare[*fakeJob](), runnable)
	a := &fakeJob{name: "a", attempts: Attempts{Live: 2}}
	b := &fakeJob{name: "b"}
	c := &fakeJob{name: "c", priority: -1} // not runnable
	d := &fakeJob{name: "d", done: true}
	for _, j := range []*fakeJob{a, b, c, d} {
		if err := q.Submit(j); err != nil && !j.done {
			t.Fatal(err)
		}
	}
	if got := names(q.Order()); got != "b,a" {
		t.Fatalf("order %s", got)
	}
	// Order allocates only into queue-owned scratch: repeated calls on a
	// steady queue must not allocate.
	allocs := testing.AllocsPerRun(100, func() { q.Order() })
	if allocs != 0 {
		t.Fatalf("Order allocates %v per call", allocs)
	}
}

func TestQueueLatestEmpty(t *testing.T) {
	q := NewQueue[*fakeJob](nil, nil)
	if _, ok := q.Latest(); ok {
		t.Fatal("Latest on empty queue reported ok")
	}
	if got := q.Order(); len(got) != 0 {
		t.Fatalf("Order on empty queue = %v", got)
	}
}

func TestAttemptsAccounting(t *testing.T) {
	var a Attempts
	if !a.Balanced() {
		t.Fatal("zero Attempts not balanced")
	}
	a.Live = 3
	a.Inactive = 1
	if a.Active() != 2 {
		t.Fatalf("Active = %d", a.Active())
	}
	if a.Balanced() {
		t.Fatal("busy Attempts reported balanced")
	}
}

// TestQueueRemoveKeepsOrderAndForgets: the owner's Remove takes exactly the
// job named — by identity, not by name — keeps the rest in submission
// order, and leaves no reference behind in the slot it vacated.
func TestQueueRemoveKeepsOrderAndForgets(t *testing.T) {
	q := NewQueue[*fakeJob](nil, nil)
	a, b, c := &fakeJob{name: "a", done: true}, &fakeJob{name: "b"}, &fakeJob{name: "c"}
	a2 := &fakeJob{name: "a"} // reuses a finished job's name
	for _, j := range []*fakeJob{a, b, c, a2} {
		if err := q.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	backing := q.Jobs()
	if !q.Remove(a) || q.Remove(a) {
		t.Fatal("Remove(a) must succeed once and only once")
	}
	if got := names(q.Jobs()); got != "b,c,a" || q.Jobs()[2] != a2 {
		t.Fatalf("after Remove(a): %s", got)
	}
	if backing[3] != nil {
		t.Fatal("the vacated tail slot still references a job")
	}
	if !q.Remove(c) || q.Len() != 2 || q.Running() != 2 || names(q.Order()) != "b,a" {
		t.Fatalf("after Remove(c): jobs %s, order %s", names(q.Jobs()), names(q.Order()))
	}
	if q.Remove(&fakeJob{name: "b"}) {
		t.Fatal("Remove matched a different job by name")
	}
}
