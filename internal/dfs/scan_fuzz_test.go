package dfs

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// scanEveryBlock is the replication scan replicationScan replaced, kept as
// its reference: every block of every file is visited, quiet or not, in the
// two class passes over the files in creation order.
func scanEveryBlock(fs *FileSystem) {
	av := fs.AdaptiveV()
	for _, wantReliable := range []bool{true, false} {
		for _, f := range fs.fileOrder {
			if (f.Class == Reliable) != wantReliable {
				continue
			}
			for _, b := range f.Blocks {
				b.wake()
				fs.scanBlock(f, b, av)
			}
		}
	}
}

// The fuzzer's bytes decode into a program over one NameNode: a header byte
// (mode and stream cap), then two-byte operations. Nothing but the program
// creates, writes, commits and deletes files or takes nodes away; transfers,
// stalls, hibernation, expiry, the p and throttle samplers and the scan run
// for real.
const (
	opCreate   = iota // a staged file: class, factor and block count from arg
	opWrite           // a two-block write from node arg&7: class and factor from the rest
	opDelete          // the arg-th file made is deleted
	opCommit          // the arg-th file made is committed
	opAdvance         // the clock moves by scanSteps[arg]
	opFlip            // volatile node arg goes away, or comes back, at this instant
	opThrottle        // dedicated node arg&1 is throttled (arg&2) or released
	opEstimate        // the p window is filled with scanPs[arg], which moves AdaptiveV
	opDrop            // file arg&15 loses the replica at position arg>>4 of its first block
	opCancel          // the arg-th write is canceled
	scanOpKinds
)

const (
	scanVolatiles = 6
	scanDedicated = 2
	scanNodes     = scanVolatiles + scanDedicated
)

var (
	// scanSteps are clock advances in seconds around the periods the NameNode
	// answers to: the 3 s scan, a 10 s block transfer, the 60 s hibernate
	// interval, stall timeout and back-off, and the 300 s expiry.
	scanSteps   = [16]float64{0, 0.5, 1, 1, 2, 3, 5, 10, 15, 30, 45, 60, 61, 100, 300, 2000}
	scanFactors = [4]Factor{{D: 1, V: 1}, {D: 1, V: 2}, {V: 2}, {D: 1, V: 3}}
	scanPs      = [8]float64{0, 0.05, 0.2, 0.35, 0.5, 0.7, 0.9, 1}
)

type scanOp struct{ kind, arg int }

type scanProgram struct {
	header int // bits 0-1: 3 is Hadoop mode, else MOON; bit 2: 3 streams, else 1
	ops    []scanOp
}

// scanProg starts a program by hand; do appends an operation and bytes() is
// the fuzz input that decodes back to it.
func scanProg(header int) *scanProgram { return &scanProgram{header: header} }

const (
	moonOneStream    = 0
	moonThreeStreams = 4
	hadoopThree      = 7
)

func (p *scanProgram) do(kind, arg int) *scanProgram {
	p.ops = append(p.ops, scanOp{kind, arg})
	return p
}

func (p *scanProgram) bytes() []byte {
	b := []byte{byte(p.header)}
	for _, o := range p.ops {
		b = append(b, byte(o.kind), byte(o.arg))
	}
	return b
}

func decodeScanProgram(b []byte) *scanProgram {
	if len(b) == 0 {
		return scanProg(0)
	}
	p := scanProg(int(b[0]) % 8)
	for b = b[1:]; len(b) >= 2 && len(p.ops) < 256; b = b[2:] {
		p.ops = append(p.ops, scanOp{int(b[0]) % scanOpKinds, int(b[1])})
	}
	return p
}

// traces turns the program's flips into one outage schedule per volatile
// node: flips depend only on the program's own clock, so they are laid down
// before either world runs, which is how a cluster takes availability.
func (p *scanProgram) traces() []trace.Trace {
	flips := make([][]float64, scanVolatiles)
	t := 0.0
	for _, o := range p.ops {
		switch o.kind {
		case opAdvance:
			t += scanSteps[o.arg%len(scanSteps)]
		case opFlip:
			id := o.arg % scanVolatiles
			if k := len(flips[id]); k > 0 && flips[id][k-1] == t {
				flips[id] = flips[id][:k-1] // down and up at one instant: nothing
			} else {
				flips[id] = append(flips[id], t)
			}
		}
	}
	out := make([]trace.Trace, scanVolatiles)
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

// scanCases counts the situations the checked-in corpus is there for, as the
// world that skips quiet blocks meets them.
type scanCases struct {
	// A node came back from the dead with a block of a deleted file still on
	// its disk (and re-reported only what the namespace holds).
	deletedNotReRegistered int
	// Commit woke quiet blocks, and a block it woke changed replicas after.
	commitWokeQuiet, commitActed int
	// A scan found AdaptiveV moved, and a block that was quiet took a branch.
	adaptiveWoke int
	// A node hibernated: some quiet blocks woke and others stayed quiet.
	hibernateWokeSome int
	// A scan left a dedicated deficit alone because the tier was throttled.
	throttledDeficit int
	// A scan ended with the stream cap reached and a deficit not served.
	streamCapped int
	// A re-replication failed on a block that had gone quiet behind it.
	failedWhileQuiet int
	// A re-replication landed on a block whose file had been deleted.
	outlivedDelete int
	expirations    int
	writesDone     int
}

// scanWorld is one full stack — simulator, cluster, fabric, NameNode — whose
// replication scan is either replicationScan or, with ref set,
// scanEveryBlock. Both kinds run the same production code for everything else
// and draw the same event sequence numbers, so a visit the skip should not
// have skipped shows in what the worlds hold.
type scanWorld struct {
	t   testing.TB
	ref bool

	s   *sim.Simulation
	c   *cluster.Cluster
	net *netmodel.Network
	fs  *FileSystem

	files  []*File // every file made, deleted ones too
	writes []*WriteOp
	log    []string

	// wantReReg is what Metrics.ReRegistrations has to be by the rule the
	// node lists replaced: a node back from the dead re-reports each block of
	// the namespace it has on disk and is not registered for.
	wantReReg int
	// deletedOn counts, per node, blocks of deleted files that were on its
	// disk when the file went.
	deletedOn [scanNodes]int
	// committed are quiet blocks a Commit woke, with their replicas then;
	// orphaned are blocks with a re-replication in flight when their file was
	// deleted, likewise.
	committed, orphaned []wokenBlock
	seen                scanCases
}

type wokenBlock struct {
	b      *Block
	before []int
}

func newScanWorld(t testing.TB, p *scanProgram, ref bool) *scanWorld {
	t.Helper()
	w := &scanWorld{t: t, ref: ref, s: sim.New()}
	w.c = cluster.New(w.s, cluster.Config{VolatileTraces: p.traces(), DedicatedNodes: scanDedicated})
	// Before the NameNode's own watcher, so a return is seen with the node
	// still dead in its books.
	for _, n := range w.c.Nodes {
		n.Watch(func(nd *cluster.Node, available bool) {
			if !available || w.fs.dn[nd.ID].state != DNDead {
				return
			}
			for _, f := range w.fs.fileOrder {
				for _, b := range f.Blocks {
					if b.diskIndex(nd.ID) >= 0 && !slices.Contains(b.replicas, nd.ID) {
						w.wantReReg++
					}
				}
			}
			if w.deletedOn[nd.ID] > 0 {
				w.seen.deletedNotReRegistered++
			}
		})
	}
	// 1000-byte blocks at 100 B/s: a transfer alone on its NICs takes 10 s.
	w.net = netmodel.New(w.s, w.c, netmodel.Config{NodeBandwidth: 100, DiskBandwidth: 200, StallTimeout: 60})
	mode := ModeMOON
	if p.header&3 == 3 {
		mode = ModeHadoop
	}
	cfg := DefaultConfig(mode)
	cfg.BlockSize = 1000
	cfg.NodeExpiryInterval = 300
	cfg.MaxReplicationStreams = 1 + p.header&4/2
	var err error
	if w.fs, err = New(w.s, w.c, w.net, cfg); err != nil {
		t.Fatal(err)
	}
	if ref {
		w.fs.scan = func() { w.scanned(func() { scanEveryBlock(w.fs) }) }
	} else {
		w.fs.scan = func() { w.scanned(w.fs.replicationScan) }
	}
	return w
}

// seq draws the next event sequence number, which tells how many the world
// has drawn so far. Both worlds call it at the same points.
func (w *scanWorld) seq() uint64 { return w.s.Reserve(w.s.Now()).Seq() }

// deficit reports whether a visit of the block now would find it short of
// dedicated or of volatile (in Hadoop mode, any) replicas, pending
// re-replications counted, and whether it would visit it at all.
func (w *scanWorld) deficit(f *File, b *Block, av int) (dedicated, volatile, visited bool) {
	fs := w.fs
	if f.underConstruction || fs.sim.Now() < b.repRetryAt {
		return false, false, false
	}
	c := fs.census(b)
	needD, needV := fs.required(f, c, av)
	d, v := fs.counted(f, c)
	if fs.cfg.Mode == ModeHadoop {
		return false, d+v+b.pendingRep < needD+needV, true
	}
	return d+b.pendingRep < needD, v+b.pendingRep < needV, true
}

func (w *scanWorld) quietBlocks() []*Block {
	var quiet []*Block
	for _, f := range w.fs.fileOrder {
		for _, b := range f.Blocks {
			if b.quiet {
				quiet = append(quiet, b)
			}
		}
	}
	return quiet
}

// scanned runs one scan, by whichever walk this world has, and tallies what
// it was called upon to do.
func (w *scanWorld) scanned(scan func()) {
	fs := w.fs
	av := fs.AdaptiveV()
	var quiet, throttled []*Block
	if av != fs.scanAV {
		quiet = w.quietBlocks()
	}
	if fs.cfg.Mode == ModeMOON && fs.allDedicatedThrottled() {
		for _, f := range fs.fileOrder {
			for _, b := range f.Blocks {
				if short, _, visited := w.deficit(f, b, av); visited && short && f.Class == Opportunistic {
					throttled = append(throttled, b)
				}
			}
		}
	}
	scan()
	for _, b := range quiet {
		if !b.quiet {
			w.seen.adaptiveWoke++
		}
	}
	for _, b := range throttled {
		if b.quiet {
			w.t.Fatalf("t=%v: %v is quiet with a dedicated deficit the throttled tier declined", w.s.Now(), b.ID)
		}
		w.seen.throttledDeficit++
	}
	if fs.repStreams >= fs.cfg.MaxReplicationStreams {
		for _, f := range fs.fileOrder {
			for _, b := range f.Blocks {
				if d, v, visited := w.deficit(f, b, av); visited && (d || v) && fs.pickSource(b) >= 0 {
					w.seen.streamCapped++
				}
			}
		}
	}
}

func (w *scanWorld) file(arg int) *File {
	if len(w.files) == 0 {
		return nil
	}
	return w.files[arg%len(w.files)]
}

func (w *scanWorld) apply(o scanOp) {
	fs := w.fs
	switch o.kind {
	case opCreate:
		name := fmt.Sprintf("f%d", len(w.files))
		f, err := fs.CreateStaged(name, float64(1000*(1+o.arg>>3&3%3)), FileClass(o.arg&1), scanFactors[o.arg>>1&3])
		if err != nil {
			w.t.Fatal(err)
		}
		w.files = append(w.files, f)
	case opWrite:
		name := fmt.Sprintf("f%d", len(w.files))
		op, err := fs.Write(w.c.Node(o.arg&7), name, 1500, FileClass(o.arg>>3&1), scanFactors[o.arg>>4&3], func(err error) {
			w.seen.writesDone++
			w.log = append(w.log, fmt.Sprintf("%s written: t=%x seq=%d err=%v", name, math.Float64bits(w.s.Now()), w.seq(), err))
		})
		if err != nil {
			w.t.Fatal(err)
		}
		w.files = append(w.files, fs.File(name))
		w.writes = append(w.writes, op)
	case opDelete:
		if f := w.file(o.arg); f != nil && !f.deleted {
			for _, b := range f.Blocks {
				for _, r := range b.disk {
					w.deletedOn[r.node]++
				}
				if b.pendingRep > 0 {
					w.orphaned = append(w.orphaned, wokenBlock{b, slices.Clone(b.replicas)})
				}
			}
			fs.Delete(f.Name)
		}
	case opCommit:
		if f := w.file(o.arg); f != nil && !f.deleted {
			for _, b := range f.Blocks {
				if b.quiet && !w.ref {
					w.seen.commitWokeQuiet++
					w.committed = append(w.committed, wokenBlock{b, slices.Clone(b.replicas)})
				}
			}
			if err := fs.Commit(f.Name); err != nil {
				w.t.Fatal(err)
			}
		}
	case opThrottle:
		fs.SetThrottledForTest(scanVolatiles+o.arg&1, o.arg&2 != 0)
	case opEstimate:
		for i := range fs.pSamples {
			fs.pSamples[i] = scanPs[o.arg%len(scanPs)]
		}
		fs.pCount = len(fs.pSamples)
	case opDrop:
		if f := w.file(o.arg & 15); f != nil && !f.deleted {
			if b := f.Blocks[0]; len(b.replicas) > 0 {
				fs.dropReplica(b, b.replicas[o.arg>>4%len(b.replicas)])
			}
		}
	case opCancel:
		if len(w.writes) > 0 {
			w.writes[o.arg%len(w.writes)].Cancel()
		}
	}
}

// check holds the skip's bookkeeping and the node lists to what the
// namespace implies. It passes in either world: the reference scan ignores
// the quiet marks, the hooks keep them all the same.
func (w *scanWorld) check(after string) {
	t, fs := w.t, w.fs
	refs := 0
	for _, f := range fs.fileOrder {
		if f.deleted || fs.files[f.Name] != f {
			t.Fatalf("%s: %s is walked and is deleted or not the file of its name", after, f.Name)
		}
		awake := 0
		for _, b := range f.Blocks {
			if !b.quiet {
				awake++
			} else if d, v, visited := w.deficit(f, b, fs.scanAV); !w.ref && (!visited || d || v) {
				t.Fatalf("%s: %v is quiet: visited=%v, dedicated deficit %v, volatile deficit %v", after, b.ID, visited, d, v)
			} else if !w.ref && b.pendingRep == 0 {
				// No deficit; no excess either.
				c := fs.census(b)
				needD, needV := fs.required(f, c, fs.scanAV)
				cd, cv := fs.counted(f, c)
				if fs.cfg.Mode == ModeHadoop {
					cd, cv, needD, needV = 0, cd+cv, 0, needD+needV
				}
				if cd > needD || cv > needV {
					t.Fatalf("%s: %v is quiet with {%d,%d} counted for {%d,%d}", after, b.ID, cd, cv, needD, needV)
				}
			}
			for i, r := range b.disk {
				if v := fs.dn[r.node]; int(r.pos) >= len(v.blocks) || v.blocks[r.pos] != b {
					t.Fatalf("%s: %v says it is block %d of node %d, and is not", after, b.ID, r.pos, r.node)
				}
				if slices.ContainsFunc(b.disk[:i], func(o diskRef) bool { return o.node == r.node }) {
					t.Fatalf("%s: %v lists node %d twice", after, b.ID, r.node)
				}
			}
			refs += len(b.disk)
			for _, id := range b.replicas {
				if b.diskIndex(id) < 0 {
					t.Fatalf("%s: %v is registered on node %d and not on its disk", after, b.ID, id)
				}
				if fs.dn[id].state == DNDead {
					t.Fatalf("%s: %v is registered on node %d, which is dead", after, b.ID, id)
				}
			}
		}
		if f.awake != awake {
			t.Fatalf("%s: %s counts %d awake blocks and has %d", after, f.Name, f.awake, awake)
		}
	}
	for id, v := range fs.dn {
		refs -= len(v.blocks)
		for _, b := range v.blocks {
			if b.file.deleted {
				t.Fatalf("%s: node %d lists %v of a deleted file", after, id, b.ID)
			}
			if v.state != DNDead && !slices.Contains(b.replicas, id) {
				t.Fatalf("%s: node %d (%v) has %v on disk and is not registered for it", after, id, v.state, b.ID)
			}
		}
	}
	if refs != 0 {
		t.Fatalf("%s: blocks list %d more nodes than nodes list blocks", after, refs)
	}
	for _, f := range w.files {
		for _, b := range f.Blocks {
			if f.deleted && len(b.disk) > 0 {
				t.Fatalf("%s: %v of a deleted file is still on %d disks", after, b.ID, len(b.disk))
			}
		}
	}
	if fs.Metrics.ReRegistrations != w.wantReReg {
		t.Fatalf("%s: %d re-registrations, a walk of the namespace at each return makes it %d",
			after, fs.Metrics.ReRegistrations, w.wantReReg)
	}
}

// snapshot renders everything the scan can have influenced: the NameNode's
// counters, cursors and streams, what it thinks of each node, and each file
// ever made with every block's replicas and scan state; and how many events
// have been drawn and fired.
func (w *scanWorld) snapshot() string {
	fs := w.fs
	var b strings.Builder
	fmt.Fprintf(&b, "t=%x seq=%d fired=%d total=%x dfs=%+v cursors=%d,%d streams=%d nodes=", math.Float64bits(w.s.Now()),
		w.seq(), w.s.Fired(), math.Float64bits(w.net.TotalBytes()), fs.Metrics, fs.cursorV, fs.cursorD, fs.repStreams)
	for _, v := range fs.dn {
		fmt.Fprintf(&b, "%d/%v ", v.state, v.throttled)
	}
	b.WriteByte('\n')
	for _, f := range w.files {
		fmt.Fprintf(&b, "%s %v exists=%v building=%v replicated=%v", f.Name, f.Class, fs.Exists(f.Name),
			f.underConstruction, fs.FileFullyReplicated(f.Name))
		for _, blk := range f.Blocks {
			fmt.Fprintf(&b, " %v pending=%d retry=%x", blk.replicas, blk.pendingRep, math.Float64bits(blk.repRetryAt))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// runScanProgram runs the program in a world scanned by replicationScan and
// in one scanned by scanEveryBlock, and after every operation requires the
// bookkeeping to be in step with the namespace and the two worlds to have
// logged and to hold the same.
func runScanProgram(t testing.TB, p *scanProgram) scanCases {
	prod, ref := newScanWorld(t, p, false), newScanWorld(t, p, true)
	now := 0.0
	step := func(what string, do func(w *scanWorld)) {
		quiet, hibernations := prod.quietBlocks(), prod.fs.Metrics.Hibernations
		for _, w := range []*scanWorld{prod, ref} {
			do(w)
			w.check(what)
		}
		if !slices.Equal(prod.log, ref.log) {
			t.Fatalf("%s: the logs differ\nreplicationScan: %v\nscanEveryBlock:  %v\nprogram: %+v", what, prod.log, ref.log, *p)
		}
		if got, want := prod.snapshot(), ref.snapshot(); got != want {
			t.Fatalf("%s: the worlds differ\nreplicationScan:\n%sscanEveryBlock:\n%sprogram: %+v", what, got, want, *p)
		}
		if prod.fs.Metrics.Hibernations > hibernations {
			woke := slices.ContainsFunc(quiet, func(b *Block) bool { return !b.quiet })
			slept := slices.ContainsFunc(quiet, func(b *Block) bool { return b.quiet })
			if woke && slept {
				prod.seen.hibernateWokeSome++
			}
		}
		for _, b := range quiet {
			if b.repRetryAt > prod.s.Now() {
				prod.seen.failedWhileQuiet++
			}
		}
	}
	for i, o := range p.ops {
		what := fmt.Sprintf("op %d %+v", i, o)
		if o.kind == opAdvance {
			now += scanSteps[o.arg%len(scanSteps)]
			step(what, func(w *scanWorld) { w.s.RunUntil(now) })
			continue
		}
		// Each operation is an event of its own at the program's clock, the
		// way model code runs; flips were laid down with the cluster.
		step(what, func(w *scanWorld) {
			w.s.Schedule(now, "fuzz.op", func() { w.apply(o) })
			w.s.RunUntil(now)
		})
	}
	// Let every transfer, back-off and expiry there is play out.
	step("drain", func(w *scanWorld) { w.s.RunUntil(now + 1e3) })
	for _, c := range prod.committed {
		if !slices.Equal(c.b.replicas, c.before) {
			prod.seen.commitActed++
		}
	}
	for _, o := range prod.orphaned {
		if len(o.b.replicas) > len(o.before) {
			prod.seen.outlivedDelete++
		}
	}
	prod.seen.expirations = prod.fs.Metrics.Expirations
	return prod.seen
}

// --- the fuzz target and its corpus ------------------------------------------

const scanCorpusDir = "testdata/fuzz/FuzzScanVsEveryBlock"

// Arguments of the operations the seeds use. A staged file's replicas go to
// the nodes the cursors are at: the n-th {0,2} file made lands on volatile
// nodes n and n+1 (mod 6).
const (
	opportunistic11 = 0 // opCreate: one block, {1,1}, opportunistic
	opportunistic02 = 4 // one block, {0,2}, opportunistic
	reliable02      = 5
	throttleOn      = 2
	secs1, secs3    = 2, 5 // indices into scanSteps
	secs10, secs15  = 7, 8
	secs45, secs60  = 10, 11
	secs300         = 14
)

// scanSeeds is the checked-in corpus, as programs: the files under
// scanCorpusDir hold their bytes() (TestScanCorpus compares), so the fuzzer
// starts from them and `go test` replays them.
var scanSeeds = map[string]*scanProgram{
	// Six {0,2} files, so f0 and f5 both have a copy on node 0, which goes
	// away at t=1, hibernates at 61 (both are re-replicated) and is dead at
	// 301. f0 is deleted; node 0 returns at 304 and re-reports f5's block
	// alone. (A flip happens when the clock reaches it: in the advance before.)
	"deleted-file-not-reregistered": scanProg(moonThreeStreams).do(opCreate, opportunistic02).do(opCreate, opportunistic02).
		do(opCreate, opportunistic02).do(opCreate, opportunistic02).do(opCreate, opportunistic02).do(opCreate, opportunistic02).
		do(opAdvance, secs1).do(opFlip, 0).do(opAdvance, secs300).do(opDelete, 0).do(opAdvance, secs3).
		do(opFlip, 0).do(opAdvance, secs1).do(opAdvance, secs15),
	// f0 {0,2} sits on nodes 0 and 1; node 0 hibernates and the block, an
	// opportunistic one with no dedicated copy, gets a third holder and goes
	// quiet at two live copies. Commit makes it reliable: the hibernating
	// copy counts again, which is one too many, and the next scan trims.
	"commit-wakes-quiet": scanProg(moonThreeStreams).do(opCreate, opportunistic02).do(opCreate, reliable02).
		do(opAdvance, secs1).do(opFlip, 0).do(opAdvance, secs60).do(opAdvance, secs15).do(opAdvance, secs3).
		do(opCommit, 0).do(opAdvance, secs3).do(opAdvance, secs3),
	// f0 {1,1} loses its dedicated copy; the scan at t=3 starts a new one
	// and, with that in flight, the scan at t=6 finds nothing to add and
	// leaves the block quiet. Then p reads 0.7: AdaptiveV goes 1 → 6, and a
	// block with no dedicated copy wants six volatile ones at the next scan.
	"adaptive-v-moves": scanProg(moonThreeStreams).do(opCreate, opportunistic11).do(opCreate, opportunistic02).
		do(opDrop, 0).do(opAdvance, secs3).do(opAdvance, secs3).do(opEstimate, 5).do(opAdvance, secs3).
		do(opAdvance, secs15).do(opEstimate, 0).do(opAdvance, secs60),
	// Three {0,2} files on nodes {0,1}, {1,2}, {2,3}, all quiet by t=46. Node
	// 0, away since t=1, hibernates at t=61, where an advance ends, between
	// two scans: f0 is awake, the others sleep on; the scan at t=63
	// re-replicates f0.
	"hibernate-wakes-holders-only": scanProg(moonThreeStreams).do(opCreate, opportunistic02).do(opCreate, opportunistic02).
		do(opCreate, opportunistic02).do(opAdvance, secs1).do(opFlip, 0).do(opAdvance, secs45).do(opAdvance, secs15).
		do(opAdvance, secs3).do(opAdvance, secs15).do(opFlip, 0).do(opAdvance, secs15),
	// Both dedicated nodes are throttled when f0 {1,1} loses its dedicated
	// copy: scan after scan declines to replace it, and the block must stay
	// awake through all of them, for the release at t=10 tells nobody. The
	// scan at t=12 places the copy.
	"throttled-deficit-stays-awake": scanProg(moonThreeStreams).do(opCreate, opportunistic11).do(opThrottle, throttleOn).
		do(opThrottle, throttleOn|1).do(opDrop, 0).do(opAdvance, secs10).do(opThrottle, 1).do(opAdvance, secs3).
		do(opAdvance, secs15),
	// One stream, three files that go quiet and then each lose a replica (the
	// loss has to wake them): the stream goes to f0,
	// then f1, then f2, in creation order, and the files turned away still
	// rotate the volatile cursor at every scan.
	"stream-cap-tie-break": scanProg(moonOneStream).do(opCreate, opportunistic02).do(opCreate, opportunistic02).
		do(opCreate, opportunistic02).do(opAdvance, secs3).do(opDrop, 0).do(opDrop, 1).do(opDrop, 2).do(opAdvance, secs3).
		do(opAdvance, secs10).do(opAdvance, secs10).do(opAdvance, secs15),
	// f0 {0,2} loses its copy on node 1 and the scan at t=3 sends a new one
	// there; with that in flight the block goes quiet at t=6. Node 1 goes away
	// at t=7, holding no block: the transfer fails at t=67, which is the only
	// thing to wake f0, backs it off to t=127, and the scan at t=129 tries
	// again.
	"failed-replication-wakes": scanProg(moonThreeStreams).do(opCreate, opportunistic02).do(opDrop, 1<<4).
		do(opAdvance, secs3).do(opAdvance, secs3).do(opAdvance, secs1).do(opFlip, 1).do(opAdvance, secs60).
		do(opAdvance, secs60).do(opAdvance, secs15),
	// f0's re-replication to node 1, started at t=3, is still running when
	// the file is deleted; it lands at t=13 on a block no DataNode may list.
	"transfer-outlives-delete": scanProg(moonThreeStreams).do(opCreate, opportunistic02).do(opCreate, opportunistic02).
		do(opDrop, 1<<4).do(opAdvance, secs3).do(opDelete, 0).do(opAdvance, secs15),
	// Stock HDFS: no hibernation, any node will do. Node 1 is away from t=1,
	// dead at 301 (its blocks re-replicated then), back at 304 with its disk,
	// and the surplus is trimmed. Two writes run through it, one canceled.
	"hadoop-expire-and-return": scanProg(hadoopThree).do(opCreate, reliable02).do(opCreate, reliable02).
		do(opWrite, 2|1<<4).do(opWrite, 3|2<<4).do(opAdvance, secs1).do(opFlip, 1).do(opCancel, 1).do(opAdvance, secs300).
		do(opAdvance, secs3).do(opFlip, 1).do(opAdvance, secs15).do(opAdvance, secs60),
}

// TestScanCorpus keeps the corpus honest: each file is the program of its
// name, and the programs named after a situation produce it. With
// MOON_WRITE_SCAN_CORPUS set it writes the files instead.
func TestScanCorpus(t *testing.T) {
	for name, p := range scanSeeds {
		if got := decodeScanProgram(p.bytes()); got.header != p.header || fmt.Sprint(got.ops) != fmt.Sprint(p.ops) {
			t.Fatalf("%s: bytes() does not decode back to the program", name)
		}
		path := filepath.Join(scanCorpusDir, name)
		file := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", p.bytes())
		if os.Getenv("MOON_WRITE_SCAN_CORPUS") != "" {
			if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != file {
			t.Errorf("%s: the corpus file is not this program (%v)", name, err)
		}
	}

	reaches := func(name string, reached func(scanCases) bool) {
		t.Helper()
		if seen := runScanProgram(t, scanSeeds[name]); !reached(seen) {
			t.Errorf("%s does not reach its case: %+v", name, seen)
		}
	}
	reaches("deleted-file-not-reregistered", func(c scanCases) bool { return c.deletedNotReRegistered == 1 && c.expirations == 1 })
	reaches("commit-wakes-quiet", func(c scanCases) bool { return c.commitWokeQuiet == 1 && c.commitActed == 1 })
	reaches("adaptive-v-moves", func(c scanCases) bool { return c.adaptiveWoke > 0 })
	reaches("hibernate-wakes-holders-only", func(c scanCases) bool { return c.hibernateWokeSome == 1 })
	reaches("throttled-deficit-stays-awake", func(c scanCases) bool { return c.throttledDeficit >= 3 })
	reaches("stream-cap-tie-break", func(c scanCases) bool { return c.streamCapped >= 3 })
	reaches("failed-replication-wakes", func(c scanCases) bool { return c.failedWhileQuiet == 1 })
	reaches("transfer-outlives-delete", func(c scanCases) bool { return c.outlivedDelete == 1 })
	reaches("hadoop-expire-and-return", func(c scanCases) bool { return c.expirations == 1 && c.writesDone == 2 })
}

// FuzzScanVsEveryBlock decodes the input into an op stream over one NameNode
// — files are staged, written, committed and deleted; volatile nodes go away
// long enough to hibernate and to expire, and come back; replicas are lost,
// re-replications fail and back off; the dedicated tier is throttled and
// released; the p estimate moves AdaptiveV — and runs it with the scan that
// skips quiet blocks and with the one that visits every block. After each op
// both must hold the same counters, cursors, streams, node states and, for
// every block of every file ever made, the same replicas, pending count and
// back-off time, with the same number of events drawn and fired; every quiet
// block must be one a visit would leave alone, and the node lists must be
// what the namespace implies.
func FuzzScanVsEveryBlock(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		runScanProgram(t, decodeScanProgram(b[:min(len(b), 1<<10)]))
	})
}
