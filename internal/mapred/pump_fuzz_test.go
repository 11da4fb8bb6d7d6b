package mapred

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// --- the reference -----------------------------------------------------------

// pumpReference is the walk pump replaced, kept as the reference: every map,
// every call, in index order, deciding from state[] and the tasks' own fields
// and never looking at want, backoff or the job's mapReady.
func pumpReference(sh *shuffleState) {
	if sh.finished || sh.in.phase != phaseShuffle || !sh.in.node.Available() {
		return
	}
	now := sh.jt.sim.Now()
	job := sh.in.task.job
	for m := 0; m < len(sh.state) && sh.inflight < sh.jt.cfg.ParallelCopies; m++ {
		st := sh.state[m]
		if st == fetchDone || st == fetchInflight {
			continue
		}
		if st == fetchBackoff {
			if at := sh.failures[m].backoffAt; now < at {
				sh.armRetry(at - now)
				continue
			}
			sh.setState(m, fetchPending)
		}
		mt := job.maps[m]
		if !mt.completed || mt.output == "" {
			continue
		}
		sh.startFetch(m, mt)
	}
	if sh.fetched == len(sh.state) {
		sh.complete()
	}
}

// fetchDoneReference is fetchDone ending in the reference walk.
func fetchDoneReference(sh *shuffleState, m, src int, err error) {
	if sh.finished || sh.state[m] != fetchInflight {
		return
	}
	sh.flows[m] = netmodel.Flow{}
	sh.inflight--
	if err != nil {
		if src >= 0 {
			ff := sh.failuresOf(m)
			ff.sources = append(ff.sources, src)
		}
		sh.fail(m)
	} else {
		sh.setState(m, fetchDone)
		sh.fetched++
	}
	pumpReference(sh)
}

// --- programs ----------------------------------------------------------------

// The fuzzer's bytes decode into a program over one job: a map count, then
// two-byte operations. The job is not submitted — no heartbeat schedules it —
// so the program is the only thing that completes maps and starts reduce
// attempts; fetches, stalls, retry timers and the NameNode run for real.
const (
	opComplete   = iota // map arg completes (again): a new output file, every shuffle pumped
	opRun               // eight maps from arg on complete, one after the other
	opInvalidate        // the JobTracker declares map arg's output lost
	opUnready           // map arg loses its output and no shuffle is told (see apply)
	opLaunch            // reduce task arg%R starts an attempt on node arg/R
	opKill              // the arg-th live attempt is killed
	opAdvance           // the clock moves by pumpSteps[arg]
	opFlip              // volatile node arg goes away, or comes back, at this instant
	opLose              // map arg's output file is deleted in the DFS only
	pumpOpKinds
)

const (
	pumpVolatiles = 5
	pumpNodes     = pumpVolatiles + 1 // and one dedicated node
	pumpReduces   = 3
)

var (
	// pumpMaps are the map counts a program can ask for: around the 64-bit
	// word boundary, a few words, and small enough to finish a shuffle.
	pumpMaps = [8]int{5, 63, 64, 65, 130, 20, 64, 65}
	// pumpSteps are clock advances in seconds, around the periods the shuffle
	// answers to: a 1 s fetch, the 15 s retry interval, the 30 s stall
	// timeout, the NameNode's 60 s hibernate interval.
	pumpSteps = [16]float64{0, 0.5, 1, 1, 2, 3, 5, 10, 15, 15, 20, 30, 45, 60, 100, 300}
)

type pumpOp struct{ kind, arg int }

type pumpProgram struct {
	maps int
	ops  []pumpOp
}

// pumpProg starts a program by hand on pumpMaps[sel] maps; do appends an
// operation and bytes() is the fuzz input that decodes back to it.
func pumpProg(sel int) *pumpProgram { return &pumpProgram{maps: pumpMaps[sel]} }

func (p *pumpProgram) do(kind, arg int) *pumpProgram {
	p.ops = append(p.ops, pumpOp{kind, arg})
	return p
}

func (p *pumpProgram) bytes() []byte {
	sel := 0
	for pumpMaps[sel] != p.maps {
		sel++
	}
	b := []byte{byte(sel)}
	for _, o := range p.ops {
		b = append(b, byte(o.kind), byte(o.arg))
	}
	return b
}

func decodePumpProgram(b []byte) *pumpProgram {
	if len(b) == 0 {
		return pumpProg(0)
	}
	p := pumpProg(int(b[0]) % len(pumpMaps))
	for b = b[1:]; len(b) >= 2 && len(p.ops) < 512; b = b[2:] {
		p.ops = append(p.ops, pumpOp{int(b[0]) % pumpOpKinds, int(b[1])})
	}
	return p
}

// traces turns the program's flips into one outage schedule per volatile
// node: flips depend only on the program's own clock, so they are laid down
// before either world runs, which is how a cluster takes availability.
func (p *pumpProgram) traces() []trace.Trace {
	flips := make([][]float64, pumpVolatiles)
	t := 0.0
	for _, o := range p.ops {
		switch o.kind {
		case opAdvance:
			t += pumpSteps[o.arg%len(pumpSteps)]
		case opFlip:
			id := o.arg % pumpVolatiles
			if k := len(flips[id]); k > 0 && flips[id][k-1] == t {
				flips[id] = flips[id][:k-1] // down and up at one instant: nothing
			} else {
				flips[id] = append(flips[id], t)
			}
		}
	}
	out := make([]trace.Trace, pumpVolatiles)
	for id, ts := range flips {
		out[id].Duration = 1e12
		for i := 0; i < len(ts); i += 2 {
			iv := trace.Interval{Start: ts[i], End: 1e9}
			if i+1 < len(ts) {
				iv.End = ts[i+1]
			}
			out[id].Outages = append(out[id].Outages, iv)
		}
	}
	return out
}

// --- worlds ------------------------------------------------------------------

// pumpCases counts the situations the checked-in corpus is there for.
type pumpCases struct {
	// A pump ran with a map in fetchBackoff that had no output to fetch.
	backoffWithoutOutput int
	// One pump call had fetches fail on the spot for want of a replica and
	// saw two or more maps invalidated by the reports: the first of them
	// changed the sets with later candidates of the same walk still ahead.
	invalidatedMidWalk int
	retriesFired       int
	shufflesCompleted  int
}

// pumpWorld is one full stack — simulator, cluster, fabric, DFS, JobTracker —
// around one hand-made job, whose shuffles are pumped either by pump or, with
// ref set, by pumpReference. Both kinds run the same production code for
// everything else and draw the same event sequence numbers, so anything the
// two walks do differently shows in what the worlds log and end up holding.
type pumpWorld struct {
	t   testing.TB
	ref bool

	s   *sim.Simulation
	c   *cluster.Cluster
	net *netmodel.Network
	fs  *dfs.FileSystem
	jt  *JobTracker
	job *Job

	attempts []*Instance // every reduce attempt started, in start order
	outputs  int         // map output files made so far
	log      []string
	seen     pumpCases
}

func newPumpWorld(t testing.TB, p *pumpProgram, ref bool) *pumpWorld {
	t.Helper()
	w := &pumpWorld{t: t, ref: ref, s: sim.New()}
	w.c = cluster.New(w.s, cluster.Config{VolatileTraces: p.traces(), DedicatedNodes: 1})
	w.net = netmodel.New(w.s, w.c, netmodel.Config{NodeBandwidth: 100, DiskBandwidth: 50, StallTimeout: 30})
	var err error
	if w.fs, err = dfs.New(w.s, w.c, w.net, dfs.DefaultConfig(dfs.ModeMOON)); err != nil {
		t.Fatal(err)
	}
	sched := DefaultSchedConfig(PolicyMOON)
	sched.ParallelCopies = 2 // low, so the walk is cut off at the copy limit often
	if w.jt, err = NewJobTracker(w.s, w.c, w.fs, w.net, sched); err != nil {
		t.Fatal(err)
	}
	// 100-byte partitions: a fetch alone on its NICs takes a second. The
	// reduce compute never ends, so an attempt that finishes its shuffle just
	// sits there until the program kills it.
	cfg := JobConfig{Name: "fz", NumMaps: p.maps, NumReduces: pumpReduces, InputFile: "in",
		MapCPU: 1, ReduceCPU: 1e12, IntermediatePerMap: 100 * pumpReduces,
		IntermediateFactor: dfs.Factor{V: 1}, OutputPerReduce: 1, OutputFactor: dfs.Factor{V: 1}}
	j := &Job{cfg: cfg, fetchReporters: make([]map[int]bool, p.maps), mapReady: make(mapSet, (p.maps+63)/64)}
	for i := 0; i < p.maps; i++ {
		j.maps = append(j.maps, &Task{Type: MapTask, Index: i, job: j})
	}
	for i := 0; i < pumpReduces; i++ {
		j.reduces = append(j.reduces, &Task{Type: ReduceTask, Index: i, job: j})
	}
	w.job = j
	// The attempts are not on their trackers' running lists (the JobTracker
	// would pump them with pump in both worlds when a node returns, and expire
	// them), so the world pumps them itself where trackerChanged would.
	for _, n := range w.c.Nodes {
		n.Watch(func(nd *cluster.Node, available bool) {
			if !available {
				return
			}
			for _, in := range w.attempts {
				if in.node == nd && in.running() && in.phase == phaseShuffle {
					w.pump(in.shuffle)
				}
			}
		})
	}
	return w
}

// seq draws the next event sequence number, which tells how many the world
// has drawn so far. Both worlds call it at the same points.
func (w *pumpWorld) seq() uint64 { return w.s.Reserve(w.s.Now()).Seq() }

func (w *pumpWorld) invalidations() (n int) {
	for _, mt := range w.job.maps {
		n += mt.invalidations
	}
	return n
}

// walk runs one pump call, by whichever walk this world has, and tallies what
// it was called upon to do.
func (w *pumpWorld) walk(sh *shuffleState, call func()) {
	if !sh.finished && sh.in.phase == phaseShuffle && sh.in.node.Available() {
		for m, st := range sh.state {
			if mt := w.job.maps[m]; st == fetchBackoff && (!mt.completed || mt.output == "") {
				w.seen.backoffWithoutOutput++
				break
			}
		}
	}
	noReplica, lost := w.fs.Metrics.FetchFailures, w.invalidations()
	call()
	if w.fs.Metrics.FetchFailures > noReplica && w.invalidations() >= lost+2 {
		w.seen.invalidatedMidWalk++
	}
}

func (w *pumpWorld) pump(sh *shuffleState) {
	if w.ref {
		w.walk(sh, func() { pumpReference(sh) })
	} else {
		w.walk(sh, sh.pump)
	}
}

// hook puts the world between the shuffle and its two callbacks: both worlds
// log each fetch that ends and each retry timer that fires, with the time and
// the sequence numbers drawn so far, and the reference world goes on into the
// reference walk where the other goes on into fetchDone and retryFired.
func (w *pumpWorld) hook(id int, sh *shuffleState) {
	fetchDone, retryFired := sh.onFetch, sh.onRetry
	if w.ref {
		fetchDone = func(m, src int, err error) { fetchDoneReference(sh, m, src, err) }
		retryFired = func() {
			sh.retryEv = sim.Event{}
			pumpReference(sh)
		}
	}
	sh.onFetch = func(m, src int, err error) {
		w.log = append(w.log, fmt.Sprintf("t=%x seq=%d a%d fetch m%d from n%d: %v",
			math.Float64bits(w.s.Now()), w.seq(), id, m, src, err))
		w.walk(sh, func() { fetchDone(m, src, err) })
	}
	sh.onRetry = func() {
		w.log = append(w.log, fmt.Sprintf("t=%x seq=%d a%d retry", math.Float64bits(w.s.Now()), w.seq(), id))
		w.seen.retriesFired++
		w.walk(sh, retryFired)
	}
}

func (w *pumpWorld) completeMap(m int) {
	mt := w.job.maps[m]
	if mt.completed {
		return
	}
	w.outputs++
	name := fmt.Sprintf("fz-map%d-o%d", m, w.outputs)
	if _, err := w.fs.CreateStaged(name, w.job.cfg.IntermediatePerMap, dfs.Opportunistic, dfs.Factor{V: 1}); err != nil {
		w.t.Fatal(err)
	}
	mt.completed, mt.output = true, name
	w.job.mapsCompleted++
	w.job.mapReady.put(m, true)
	// As notifyShuffles does.
	for _, in := range w.attempts {
		if in.running() && in.phase == phaseShuffle {
			w.pump(in.shuffle)
		}
	}
}

// startAttempt is launch and startReduce for a reduce attempt that stays off
// its tracker's running list, short of the first pump.
func (w *pumpWorld) startAttempt(t *Task, node int) *Instance {
	tt := w.jt.trackers[node]
	t.attempts++
	t.job.attempts.Live++
	in := &Instance{task: t, node: tt.node, tracker: tt, attempt: t.attempts,
		startedAt: w.s.Now(), phase: phaseShuffle}
	t.instances = append(t.instances, in)
	in.shuffle = newShuffle(w.jt, in)
	w.attempts = append(w.attempts, in)
	return in
}

func (w *pumpWorld) apply(o pumpOp) {
	j := w.job
	switch o.kind {
	case opComplete:
		w.completeMap(o.arg % len(j.maps))
	case opRun:
		for i := 0; i < 8; i++ {
			w.completeMap((o.arg + i) % len(j.maps))
		}
	case opInvalidate:
		w.jt.invalidateMapOutput(j.maps[o.arg%len(j.maps)])
	case opUnready:
		// What invalidateMapOutput does to the map, without a word to the
		// shuffles. Nothing in the JobTracker does this — it resets every
		// running shuffle's entry along with the map — so it is the one way to
		// a map that is in fetchBackoff somewhere and has no output, which is
		// the case the walk's "| backoff" term exists for.
		if mt := j.maps[o.arg%len(j.maps)]; mt.completed {
			w.fs.Delete(mt.output)
			mt.completed, mt.output = false, ""
			j.mapsCompleted--
			j.mapReady.put(mt.Index, false)
		}
	case opLaunch:
		if t := j.reduces[o.arg%pumpReduces]; !t.completed && len(t.instances) < 2 {
			in := w.startAttempt(t, (o.arg/pumpReduces)%pumpNodes)
			w.hook(len(w.attempts)-1, in.shuffle)
			w.pump(in.shuffle)
		}
	case opKill:
		var live []*Instance
		for _, in := range w.attempts {
			if in.running() {
				live = append(live, in)
			}
		}
		if len(live) > 0 {
			w.jt.killInstance(live[o.arg%len(live)])
		}
	case opLose:
		if mt := j.maps[o.arg%len(j.maps)]; mt.output != "" {
			w.fs.Delete(mt.output) // the next fetch of it fails on the spot
		}
	}
}

// check holds the sets to what state[] and the job's tasks imply, in either
// world (setState keeps them in both).
func (w *pumpWorld) check(after string) {
	t, j := w.t, w.job
	for m, mt := range j.maps {
		if ready := mt.completed && mt.output != ""; j.mapReady.has(m) != ready {
			t.Fatalf("%s: mapReady has m%d = %v, task completed=%v output=%q", after, m, !ready, mt.completed, mt.output)
		}
	}
	if rem := len(j.maps) % 64; rem != 0 && j.mapReady[len(j.mapReady)-1]>>rem != 0 {
		t.Fatalf("%s: mapReady has bits past the last map", after)
	}
	for id, in := range w.attempts {
		sh := in.shuffle
		inflight, fetched := 0, 0
		for m, st := range sh.state {
			if sh.want.has(m) != (st == fetchPending || st == fetchBackoff) || sh.backoff.has(m) != (st == fetchBackoff) {
				t.Fatalf("%s: a%d m%d in state %d, want=%v backoff=%v", after, id, m, st, sh.want.has(m), sh.backoff.has(m))
			}
			if st == fetchBackoff && sh.failures[m] == nil {
				t.Fatalf("%s: a%d m%d in backoff with no failure on record", after, id, m)
			}
			if !sh.finished && (st == fetchInflight) != (sh.flows[m] != netmodel.Flow{}) {
				t.Fatalf("%s: a%d m%d in state %d holds flow %+v", after, id, m, st, sh.flows[m])
			}
			switch st {
			case fetchInflight:
				inflight++
			case fetchDone:
				fetched++
			}
		}
		if (!sh.finished && inflight != sh.inflight) || fetched != sh.fetched {
			t.Fatalf("%s: a%d counts %d in flight and %d fetched, state[] says %d and %d",
				after, id, sh.inflight, sh.fetched, inflight, fetched)
		}
		if rem := len(sh.state) % 64; rem != 0 && (sh.want[len(sh.want)-1]|sh.backoff[len(sh.backoff)-1])>>rem != 0 {
			t.Fatalf("%s: a%d has set bits past the last map", after, id)
		}
	}
}

// snapshot renders everything the walk can have influenced: each attempt's
// states, flows (a handle is a slot and a generation, so equal handles mean
// the fabric was asked for the same flows in the same order), failure records
// and armed retry timer; each map; the DFS and fabric totals; and how many
// events have been drawn and fired.
func (w *pumpWorld) snapshot() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%x seq=%d fired=%d total=%x dfs=%+v\n", math.Float64bits(w.s.Now()), w.seq(), w.s.Fired(),
		math.Float64bits(w.net.TotalBytes()), w.fs.Metrics)
	for m, mt := range w.job.maps {
		if mt.completed || mt.invalidations > 0 {
			fmt.Fprintf(&b, "m%d completed=%v output=%q invalidations=%d\n", m, mt.completed, mt.output, mt.invalidations)
		}
	}
	for id, in := range w.attempts {
		sh := in.shuffle
		fmt.Fprintf(&b, "a%d phase=%d finished=%v fetched=%d inflight=%d retry=%v state=%v flows=%v",
			id, in.phase, sh.finished, sh.fetched, sh.inflight, sh.retryEv.Pending(), sh.state, sh.flows)
		var failed []int
		for m := range sh.failures {
			failed = append(failed, m)
		}
		sort.Ints(failed)
		for _, m := range failed {
			ff := sh.failures[m]
			fmt.Fprintf(&b, " m%d:{%d %x %v}", m, ff.count, math.Float64bits(ff.backoffAt), ff.sources)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// runPumpProgram runs the program in a world pumped by pump and in one pumped
// by pumpReference, and after every operation requires the sets to be in
// step with state[] and the two worlds to have logged and to hold the same.
func runPumpProgram(t testing.TB, p *pumpProgram) pumpCases {
	prod, ref := newPumpWorld(t, p, false), newPumpWorld(t, p, true)
	now := 0.0
	step := func(what string, do func(w *pumpWorld)) {
		for _, w := range []*pumpWorld{prod, ref} {
			do(w)
			w.check(what)
		}
		for i := 0; i < len(prod.log) || i < len(ref.log); i++ {
			var got, want string
			if i < len(prod.log) {
				got = prod.log[i]
			}
			if i < len(ref.log) {
				want = ref.log[i]
			}
			if got != want {
				t.Fatalf("%s: callback %d differs\n  pump:          %s\n  pumpReference: %s\nprogram: %+v", what, i, got, want, *p)
			}
		}
		if got, want := prod.snapshot(), ref.snapshot(); got != want {
			t.Fatalf("%s: the worlds differ\npump:\n%spumpReference:\n%sprogram: %+v", what, got, want, *p)
		}
	}
	for i, o := range p.ops {
		what := fmt.Sprintf("op %d %+v", i, o)
		if o.kind == opAdvance {
			now += pumpSteps[o.arg%len(pumpSteps)]
			step(what, func(w *pumpWorld) { w.s.RunUntil(now) })
			continue
		}
		// Each operation is an event of its own at the program's clock, the
		// way model code runs; flips were laid down with the cluster.
		step(what, func(w *pumpWorld) {
			w.s.Schedule(now, "fuzz.op", func() { w.apply(o) })
			w.s.RunUntil(now)
		})
	}
	// Let every fetch, stall and retry there is play out.
	step("drain", func(w *pumpWorld) { w.s.RunUntil(now + 2e3) })
	for _, in := range prod.attempts {
		if in.phase == phaseCompute {
			prod.seen.shufflesCompleted++
		}
	}
	return prod.seen
}

// --- the fuzz target and its corpus ------------------------------------------

const pumpCorpusDir = "testdata/fuzz/FuzzPumpVsScan"

// pumpSeeds is the checked-in corpus, as programs: the files under
// pumpCorpusDir hold their bytes() (TestPumpCorpus compares), so the fuzzer
// starts from them and `go test` replays them.
var pumpSeeds = map[string]*pumpProgram{
	// Five maps, two attempts of one reduce and one of another; everything
	// completes, one map twice after an invalidation, and one attempt is
	// killed with fetches in flight. Small enough for shuffles to finish.
	"small-job-to-the-end": pumpProg(0).do(opLaunch, 0).do(opComplete, 0).do(opComplete, 1).do(opAdvance, 1).
		do(opLaunch, 3).do(opLaunch, 1).do(opComplete, 2).do(opComplete, 3).do(opInvalidate, 1).do(opAdvance, 4).
		do(opKill, 1).do(opComplete, 1).do(opComplete, 4).do(opAdvance, 7),
	// Map 7's only replica sits on a node that goes away under a fetch: the
	// fetch stalls, fails and backs off. Then the map loses its output behind
	// the shuffle's back, and the retry timer's pump finds a backoff entry
	// with nothing to fetch — before its time is up (it arms the timer again)
	// and after (back to pending, and no fetch). The map completes again and
	// is fetched.
	"backoff-entry-without-output": pumpProg(1).do(opLaunch, 15).do(opComplete, 7).do(opComplete, 9).do(opFlip, 0).
		do(opFlip, 1).do(opFlip, 2).do(opFlip, 3).do(opFlip, 4).do(opAdvance, 11).do(opAdvance, 4).
		do(opFlip, 0).do(opFlip, 1).do(opFlip, 2).do(opFlip, 3).do(opFlip, 4).do(opUnready, 7).do(opComplete, 40).
		do(opAdvance, 7).do(opAdvance, 8).do(opComplete, 7).do(opAdvance, 8),
	// 64 maps, one word. Maps 3, 10, 40 and 50 have their only replicas on
	// nodes that go away for good under the first fetches. The stalled
	// fetches fail; the retries find no replica the attempt has not already
	// failed against and fail on the spot, and by a map's third failure the
	// NameNode — which has the holders hibernating by then — confirms there
	// is none: the report invalidates map 3 in the middle of the walk, with
	// map 10, in the same word, still ahead and about to go the same way.
	"no-replica-invalidates-mid-word": pumpProg(2).do(opLaunch, 15).do(opComplete, 3).do(opComplete, 10).
		do(opComplete, 40).do(opComplete, 50).do(opAdvance, 1).do(opFlip, 0).do(opFlip, 1).do(opFlip, 2).do(opFlip, 3).
		do(opFlip, 4).do(opAdvance, 14).do(opAdvance, 14),
	// 63, 64 and 65 maps: every map completes in runs of eight, three
	// attempts shuffle them at two copies each, a node blinks, and the last
	// maps (62, 63, 64 — the end of one word and the start of the next) are
	// invalidated and completed again.
	"maps-63": wordBoundaryProgram(1),
	"maps-64": wordBoundaryProgram(2),
	"maps-65": wordBoundaryProgram(3),
}

func wordBoundaryProgram(sel int) *pumpProgram {
	p := pumpProg(sel).do(opLaunch, 0).do(opLaunch, 4).do(opLaunch, 17)
	for m := 0; m < 72; m += 8 {
		p.do(opRun, m).do(opAdvance, 5)
	}
	p.do(opFlip, 1).do(opAdvance, 10).do(opFlip, 1).do(opAdvance, 12)
	for _, m := range []int{62, 63, 64} {
		p.do(opInvalidate, m)
	}
	p.do(opAdvance, 2)
	for _, m := range []int{64, 63, 62} {
		p.do(opComplete, m)
	}
	return p.do(opAdvance, 15)
}

// TestPumpCorpus keeps the corpus honest: each file is the program of its
// name, and the programs named after a situation produce it. With
// MOON_WRITE_PUMP_CORPUS set it writes the files instead.
func TestPumpCorpus(t *testing.T) {
	for name, p := range pumpSeeds {
		if got := decodePumpProgram(p.bytes()); got.maps != p.maps || fmt.Sprint(got.ops) != fmt.Sprint(p.ops) {
			t.Fatalf("%s: bytes() does not decode back to the program", name)
		}
		path := filepath.Join(pumpCorpusDir, name)
		file := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", p.bytes())
		if os.Getenv("MOON_WRITE_PUMP_CORPUS") != "" {
			if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != file {
			t.Errorf("%s: the corpus file is not this program (%v)", name, err)
		}
	}

	if seen := runPumpProgram(t, pumpSeeds["small-job-to-the-end"]); seen.shufflesCompleted == 0 {
		t.Error("small-job-to-the-end: no shuffle finished")
	}
	if seen := runPumpProgram(t, pumpSeeds["backoff-entry-without-output"]); seen.backoffWithoutOutput < 2 || seen.retriesFired < 2 {
		t.Errorf("backoff-entry-without-output: %d pumps met a backoff entry without output, %d retry timers fired; want 2 and 2 at least",
			seen.backoffWithoutOutput, seen.retriesFired)
	}
	if seen := runPumpProgram(t, pumpSeeds["no-replica-invalidates-mid-word"]); seen.invalidatedMidWalk == 0 {
		t.Error("no-replica-invalidates-mid-word: no walk saw maps invalidated by on-the-spot failures with candidates ahead")
	}
	for _, name := range []string{"maps-63", "maps-64", "maps-65"} {
		if seen := runPumpProgram(t, pumpSeeds[name]); seen.shufflesCompleted != 3 {
			t.Errorf("%s: %d of 3 shuffles finished", name, seen.shufflesCompleted)
		}
	}
}

// FuzzPumpVsScan decodes the input into an op stream over one job and a few
// reduce attempts — maps complete, are invalidated and complete again, lose
// their output files or their nodes; attempts start, are killed, have their
// own node taken away; the clock moves, so fetches succeed, stall and fail,
// fail on the spot for want of a replica, and retry timers fire — and runs it
// with the shuffles pumped by pump and by the every-map walk pump replaced.
// After each op both must have ended the same fetches and fired the same
// retry timers at the same instants with the same number of event positions
// drawn, hold the same flows, states and failure records, and have want,
// backoff and mapReady equal to what state[] and the job's tasks imply.
func FuzzPumpVsScan(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		runPumpProgram(t, decodePumpProgram(b[:min(len(b), 2<<10)]))
	})
}
