package dfs

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// repRetryBackoff is how long a failed re-replication waits before the
// scan retries the block (seconds).
const repRetryBackoff = 60

// Metrics counts DFS-level events of interest to the paper's evaluation.
type Metrics struct {
	ReplicationsIssued int     // re-replication transfers started
	ReplicationBytes   float64 // bytes moved by re-replication
	ThrashReplications int     // re-replications for nodes that later returned
	DedicatedDeclines  int     // opportunistic writes declined by throttling
	AdaptiveRaises     int     // writes whose volatile degree was raised to v'
	Hibernations       int     // DataNode hibernate transitions
	Expirations        int     // DataNode dead declarations
	ReRegistrations    int     // blocks re-registered by returning dead nodes
	TrimmedReplicas    int     // excess replicas removed
	WriteRetries       int     // block write pipeline retries
	ReadStalls         int     // reads that failed on a stalled source
	FetchFailures      int     // reads failed for lack of live replicas
}

// FileSystem is the simulated DFS: one NameNode plus one DataNode per
// cluster node.
type FileSystem struct {
	sim *sim.Simulation
	cl  *cluster.Cluster
	net *netmodel.Network
	cfg Config

	// files finds a file by name; fileOrder lists the same files in creation
	// order, which is the order every NameNode pass walks them in (and so the
	// tie-break of the replication stream cap).
	files     map[string]*File
	fileOrder []*File

	dn []*dnView
	// dedicated and volatile are the node ids of each tier, ascending:
	// placement and the throttle monitor walk a tier, not the fleet.
	dedicated, volatile []int

	// NameNode's unavailability estimate: ring of samples of the
	// fraction of volatile DataNodes down.
	pSamples []float64
	pCount   int
	pNext    int

	// repStreams counts re-replication transfers in flight, fleet-wide (the
	// per-block scan state lives on the Block).
	repStreams int

	cursorV, cursorD int

	// scan is what the scan ticker runs: replicationScan, except in the test
	// that holds it against a scan with no skipping. scanAV is the AdaptiveV
	// the last scan ran under; when it moves, every block is due a visit.
	scan   func()
	scanAV int

	// scanTargets is the reusable target buffer for replication-scan
	// placement (scanBlock consumes each choice before the next call).
	scanTargets []int

	Metrics Metrics
	inst    fsInstruments
}

// fsInstruments mirrors the Metrics counters onto the metrics bus (plus
// read/write byte timelines the aggregate struct never tracked). All
// handles are nil without a collector, and nil handles no-op.
type fsInstruments struct {
	repIssued     *metrics.Counter
	repBytes      *metrics.Counter
	thrash        *metrics.Counter
	declines      *metrics.Counter
	raises        *metrics.Counter
	hibernations  *metrics.Counter
	expirations   *metrics.Counter
	reRegs        *metrics.Counter
	trims         *metrics.Counter
	writeRetries  *metrics.Counter
	readStalls    *metrics.Counter
	fetchFailures *metrics.Counter
	writeBytes    *metrics.Counter
	readBytes     *metrics.Counter
	scanVisited   *metrics.Counter
	scanSkipped   *metrics.Counter
	probes        *metrics.Counter
}

// Instrument registers DFS observability on c: replication traffic (bytes
// and transfers, time-bucketed), placement retries, throttling declines and
// adaptive-degree raises, hibernate/expire transitions, re-registrations,
// trims, and the unreachable-read failure modes (stalls and no-replica
// fetch failures), plus client read/write byte timelines, and what the
// NameNode's own bookkeeping costs: blocks the replication scan visited and
// skipped, and DataNode records placement probed.
func (fs *FileSystem) Instrument(c *metrics.Collector) {
	if c == nil {
		return
	}
	fs.inst = fsInstruments{
		repIssued:     c.TimedCounter(metrics.LayerDFS, "replications_issued", ""),
		repBytes:      c.TimedCounter(metrics.LayerDFS, "replication_bytes", ""),
		thrash:        c.Counter(metrics.LayerDFS, "thrash_replications", ""),
		declines:      c.TimedCounter(metrics.LayerDFS, "dedicated_declines", ""),
		raises:        c.Counter(metrics.LayerDFS, "adaptive_raises", ""),
		hibernations:  c.TimedCounter(metrics.LayerDFS, "hibernations", ""),
		expirations:   c.TimedCounter(metrics.LayerDFS, "expirations", ""),
		reRegs:        c.Counter(metrics.LayerDFS, "re_registrations", ""),
		trims:         c.Counter(metrics.LayerDFS, "trimmed_replicas", ""),
		writeRetries:  c.TimedCounter(metrics.LayerDFS, "write_retries", ""),
		readStalls:    c.TimedCounter(metrics.LayerDFS, "read_stalls", ""),
		fetchFailures: c.TimedCounter(metrics.LayerDFS, "fetch_failures", ""),
		writeBytes:    c.TimedCounter(metrics.LayerDFS, "write_bytes", ""),
		readBytes:     c.TimedCounter(metrics.LayerDFS, "read_bytes", ""),
		scanVisited:   c.Counter(metrics.LayerDFS, "scan_blocks_visited", ""),
		scanSkipped:   c.Counter(metrics.LayerDFS, "scan_blocks_skipped", ""),
		probes:        c.Counter(metrics.LayerDFS, "placement_probes", ""),
	}
}

// New builds the file system over the cluster and network and starts the
// NameNode's periodic services (replication scan, p estimator, throttling
// monitor, expiry tracking).
func New(s *sim.Simulation, cl *cluster.Cluster, net *netmodel.Network, cfg Config) (*FileSystem, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	fs := &FileSystem{
		sim:      s,
		cl:       cl,
		net:      net,
		cfg:      cfg,
		files:    make(map[string]*File),
		pSamples: make([]float64, pWindow),
	}
	for _, n := range cl.Nodes {
		v := &dnView{node: n, dedicated: n.IsDedicated()}
		fs.dn = append(fs.dn, v)
		if v.dedicated {
			fs.dedicated = append(fs.dedicated, n.ID)
		} else {
			fs.volatile = append(fs.volatile, n.ID)
		}
		n.Watch(fs.nodeChanged)
	}
	fs.scan = fs.replicationScan
	s.Ticker(replicationScanInterval, "dfs.scan", func() { fs.scan() })
	s.Ticker(pSampleInterval, "dfs.psample", fs.sampleP)
	s.Ticker(throttleSampleInterval, "dfs.throttle", fs.sampleThrottle)
	return fs, nil
}

// dnView is the NameNode's record of one DataNode.
type dnView struct {
	node *cluster.Node
	// dedicated caches node.IsDedicated(), which never changes: the replica
	// census reads it once per replica per scanned block.
	dedicated   bool
	state       DNState
	hibernateEv sim.Event
	expiryEv    sim.Event

	// Throttling state (dedicated nodes only).
	bwWindow     []float64
	lastConsumed float64
	throttled    bool

	// wasDead marks a node whose replicas were deregistered, for the
	// thrashing metric and block re-report on return.
	deadSince float64

	// blocks are the blocks on the node's disk (of files not deleted), in no
	// particular order: those registered on it while the NameNode does not
	// think it dead, and the ones it re-reports when it returns from that.
	blocks []*Block
}

// wakeBlocks has the next scan visit every block the node holds: what the
// NameNode thinks of the node, which the replica census reads, has changed.
func (v *dnView) wakeBlocks() {
	for _, b := range v.blocks {
		b.wake()
	}
}

// View returns the NameNode's state for a DataNode.
func (fs *FileSystem) View(nodeID int) DNState { return fs.dn[nodeID].state }

// Throttled reports whether the dedicated DataNode is currently declining
// opportunistic writes.
func (fs *FileSystem) Throttled(nodeID int) bool { return fs.dn[nodeID].throttled }

// Config returns the effective configuration.
func (fs *FileSystem) Config() Config { return fs.cfg }

// nodeChanged tracks heartbeat loss and recovery.
func (fs *FileSystem) nodeChanged(n *cluster.Node, available bool) {
	v := fs.dn[n.ID]
	if !available {
		if fs.cfg.Mode == ModeMOON && fs.cfg.NodeHibernateInterval > 0 {
			v.hibernateEv = fs.sim.After(fs.cfg.NodeHibernateInterval, "dfs.hibernate", func() {
				if v.state == DNLive {
					v.state = DNHibernate
					v.wakeBlocks()
					fs.Metrics.Hibernations++
					fs.inst.hibernations.IncAt(fs.sim.Now())
				}
			})
		}
		v.expiryEv = fs.sim.After(fs.cfg.NodeExpiryInterval, "dfs.expire", func() {
			fs.expire(v)
		})
		return
	}
	fs.sim.Cancel(v.hibernateEv)
	fs.sim.Cancel(v.expiryEv)
	v.hibernateEv, v.expiryEv = sim.Event{}, sim.Event{}
	if v.state == DNLive {
		return
	}
	wasDead := v.state == DNDead
	v.state = DNLive
	v.wakeBlocks()
	if wasDead {
		fs.reRegister(v)
	}
}

// expire declares the DataNode dead and deregisters its replicas (the data
// stays on disk and is re-reported if the node returns).
func (fs *FileSystem) expire(v *dnView) {
	if v.state == DNDead {
		return
	}
	v.state = DNDead
	v.deadSince = fs.sim.Now()
	fs.Metrics.Expirations++
	fs.inst.expirations.IncAt(v.deadSince)
	for _, b := range v.blocks {
		removeInt(&b.replicas, v.node.ID)
		b.wake()
	}
}

// reRegister re-adds the block replicas still on a returning node's disk
// (nodeChanged has woken them).
func (fs *FileSystem) reRegister(v *dnView) {
	id := v.node.ID
	for _, b := range v.blocks {
		if !containsInt(b.replicas, id) {
			b.replicas = append(b.replicas, id)
			fs.Metrics.ReRegistrations++
			fs.inst.reRegs.Inc()
		}
	}
}

// registerReplica records a completed replica write. A write that outlived
// its file's Delete still lands on the block, which nothing can reach, but
// not on the node's list, which expire and reRegister walk.
func (fs *FileSystem) registerReplica(b *Block, nodeID int) {
	if !b.file.deleted {
		fs.putOnDisk(b, nodeID)
	}
	if !containsInt(b.replicas, nodeID) {
		b.replicas = append(b.replicas, nodeID)
	}
	b.wake()
}

// dropReplica removes a replica both from registration and disk.
func (fs *FileSystem) dropReplica(b *Block, nodeID int) {
	removeInt(&b.replicas, nodeID)
	fs.takeOffDisk(b, nodeID)
	b.wake()
}

// putOnDisk lists the block on the node and the node on the block, once.
func (fs *FileSystem) putOnDisk(b *Block, nodeID int) {
	if b.diskIndex(nodeID) >= 0 {
		return
	}
	v := fs.dn[nodeID]
	b.disk = append(b.disk, diskRef{node: int32(nodeID), pos: int32(len(v.blocks))})
	v.blocks = append(v.blocks, b)
}

// takeOffDisk undoes putOnDisk: the node's last block moves into the gap.
func (fs *FileSystem) takeOffDisk(b *Block, nodeID int) {
	i := b.diskIndex(nodeID)
	if i < 0 {
		return
	}
	v, pos := fs.dn[nodeID], b.disk[i].pos
	end := len(v.blocks) - 1
	moved := v.blocks[end]
	v.blocks[pos] = moved
	moved.disk[moved.diskIndex(nodeID)].pos = pos
	v.blocks[end] = nil
	v.blocks = v.blocks[:end]
	b.disk[i] = b.disk[len(b.disk)-1]
	b.disk = b.disk[:len(b.disk)-1]
}

// liveReplicas returns the replica node IDs the NameNode would serve from:
// registered on a DataNode it believes live.
func (fs *FileSystem) liveReplicas(b *Block) []int {
	var out []int
	for _, id := range b.replicas {
		if fs.dn[id].state == DNLive {
			out = append(out, id)
		}
	}
	return out
}

// HasLiveReplica reports whether any replica of the block is currently
// servable — the query MOON's JobTracker issues after repeated fetch
// failures to decide whether to re-execute the producing Map task.
func (fs *FileSystem) HasLiveReplica(id BlockID) bool {
	b := fs.lookupBlock(id)
	if b == nil {
		return false
	}
	for _, rid := range b.replicas {
		if fs.dn[rid].state == DNLive {
			return true
		}
	}
	return false
}

// FileFullyReplicated reports whether every block of the file meets its
// replication factor on live nodes. MOON marks a job complete only once its
// output file reaches this state.
func (fs *FileSystem) FileFullyReplicated(name string) bool {
	f := fs.files[name]
	if f == nil {
		return false
	}
	av := fs.AdaptiveV()
	for _, b := range f.Blocks {
		c := fs.census(b)
		needD, needV := fs.required(f, c, av)
		d, v := fs.counted(f, c)
		if fs.cfg.Mode == ModeHadoop {
			if d+v < needD+needV {
				return false
			}
		} else if d < needD || v < needV {
			return false
		}
	}
	return true
}

// File returns the file record, or nil.
func (fs *FileSystem) File(name string) *File { return fs.files[name] }

// Exists reports whether the file exists.
func (fs *FileSystem) Exists(name string) bool { return fs.files[name] != nil }

func (fs *FileSystem) lookupBlock(id BlockID) *Block {
	f := fs.files[id.File]
	if f == nil || id.Index < 0 || id.Index >= len(f.Blocks) {
		return nil
	}
	return f.Blocks[id.Index]
}

// createFile registers a new empty file and its block skeleton.
func (fs *FileSystem) createFile(name string, size float64, class FileClass, factor Factor) (*File, error) {
	if fs.files[name] != nil {
		return nil, fmt.Errorf("%w: %s", ErrExists, name)
	}
	if err := factor.Validate(); err != nil {
		return nil, err
	}
	if size <= 0 {
		return nil, fmt.Errorf("dfs: file %s size %v must be positive", name, size)
	}
	f := &File{Name: name, Class: class, Factor: factor}
	nblocks := int(math.Ceil(size / fs.cfg.BlockSize))
	rem := size
	for i := 0; i < nblocks; i++ {
		bs := math.Min(rem, fs.cfg.BlockSize)
		f.Blocks = append(f.Blocks, &Block{
			ID:   BlockID{File: name, Index: i},
			Size: bs,
			file: f,
		})
		rem -= bs
	}
	f.awake = nblocks
	fs.files[name] = f
	fs.fileOrder = append(fs.fileOrder, f)
	return f, nil
}

// CreateStaged creates a file and instantly materializes its replicas per
// the placement policy, with no simulated I/O cost. It models input data
// staged before the job starts (the paper stages inputs with the tools
// shipped with Hadoop before measuring).
func (fs *FileSystem) CreateStaged(name string, size float64, class FileClass, factor Factor) (*File, error) {
	f, err := fs.createFile(name, size, class, factor)
	if err != nil {
		return nil, err
	}
	av := fs.AdaptiveV()
	for _, b := range f.Blocks {
		needD, needV := fs.required(f, fs.census(b), av)
		if fs.cfg.Mode == ModeHadoop {
			for _, t := range fs.chooseAny(nil, needD+needV, nil) {
				fs.registerReplica(b, t)
			}
			continue
		}
		for _, t := range fs.chooseDedicated(nil, needD, nil) {
			fs.registerReplica(b, t)
		}
		for _, t := range fs.chooseVolatile(nil, needV, nil) {
			fs.registerReplica(b, t)
		}
	}
	return f, nil
}

// Delete removes the file and all replicas: no DataNode lists its blocks any
// more, so a node that expires or returns later neither deregisters nor
// re-reports them.
func (fs *FileSystem) Delete(name string) {
	f := fs.files[name]
	if f == nil {
		return
	}
	f.deleted = true
	for _, b := range f.Blocks {
		for len(b.disk) > 0 {
			fs.takeOffDisk(b, int(b.disk[0].node))
		}
	}
	delete(fs.files, name)
	i := slices.Index(fs.fileOrder, f)
	fs.fileOrder = slices.Delete(fs.fileOrder, i, i+1)
}

// Commit converts an opportunistic output file to reliable (MOON does this
// when all Reduce tasks of a job finish); the replication scan then tops up
// missing dedicated copies.
func (fs *FileSystem) Commit(name string) error {
	f := fs.files[name]
	if f == nil {
		return fmt.Errorf("%w: %s", ErrUnknownFile, name)
	}
	f.Class = Reliable
	f.committed = true
	f.wake()
	return nil
}

// BlockLocations returns the node IDs holding live replicas of a block, for
// locality-aware task placement.
func (fs *FileSystem) BlockLocations(id BlockID) []int {
	b := fs.lookupBlock(id)
	if b == nil {
		return nil
	}
	return fs.liveReplicas(b)
}

// HasReplicaOn reports whether the node holds a live replica of the block —
// the allocation-free locality test the scheduler runs for every pending
// map on every heartbeat.
func (fs *FileSystem) HasReplicaOn(id BlockID, nodeID int) bool {
	b := fs.lookupBlock(id)
	if b == nil {
		return false
	}
	for _, rid := range b.replicas {
		if rid == nodeID && fs.dn[rid].state == DNLive {
			return true
		}
	}
	return false
}

// --- NameNode periodic services -------------------------------------------

// sampleP records the instantaneous fraction of unavailable volatile nodes;
// EstimateP averages the window (the paper's "monitor the fraction of
// unavailable DataNodes during the past interval I").
func (fs *FileSystem) sampleP() {
	fs.pSamples[fs.pNext] = fs.cl.VolatileUnavailableFraction()
	fs.pNext = (fs.pNext + 1) % len(fs.pSamples)
	if fs.pCount < len(fs.pSamples) {
		fs.pCount++
	}
}

// EstimateP returns the NameNode's current estimate of the volatile-node
// unavailability rate p.
func (fs *FileSystem) EstimateP() float64 {
	if fs.pCount == 0 {
		return fs.cl.VolatileUnavailableFraction()
	}
	sum := 0.0
	for i := 0; i < fs.pCount; i++ {
		sum += fs.pSamples[i]
	}
	return sum / float64(fs.pCount)
}

// AdaptiveV returns the smallest volatile replication degree v' such that
// 1 - p^v' exceeds the availability target, clamped to [1, MaxAdaptiveV].
func (fs *FileSystem) AdaptiveV() int {
	p := fs.EstimateP()
	if p <= 0 {
		return 1
	}
	if p >= 1 {
		return fs.cfg.MaxAdaptiveV
	}
	// 1 - p^v > target  <=>  v > log(1-target)/log(p).
	v := int(math.Floor(math.Log(1-fs.cfg.AvailabilityTarget)/math.Log(p))) + 1
	if v < 1 {
		v = 1
	}
	if v > fs.cfg.MaxAdaptiveV {
		v = fs.cfg.MaxAdaptiveV
	}
	return v
}

// replicaCensus is one pass over a block's registered replicas, by what the
// NameNode believes of each holder. Both the replica targets (required) and
// the counts held against them (counted) derive from it, so a scan reads a
// block's replica list once.
type replicaCensus struct {
	liveD int // on live dedicated DataNodes
	liveV int // on live volatile DataNodes
	hibV  int // on hibernating volatile DataNodes
}

func (fs *FileSystem) census(b *Block) (c replicaCensus) {
	for _, id := range b.replicas {
		switch view := fs.dn[id]; {
		case view.state == DNLive && view.dedicated:
			c.liveD++
		case view.state == DNLive:
			c.liveV++
		case view.state == DNHibernate && !view.dedicated:
			c.hibV++
		}
	}
	return c
}

// required returns the dedicated/volatile replica targets for a block of f
// under the current policy, av being the current AdaptiveV (a caller with
// many blocks to ask about computes it once). For Hadoop mode the two counts
// collapse into a single total (reported as needV with needD = 0).
func (fs *FileSystem) required(f *File, c replicaCensus, av int) (needD, needV int) {
	if fs.cfg.Mode == ModeHadoop {
		return 0, f.Factor.D + f.Factor.V
	}
	needD, needV = f.Factor.D, f.Factor.V
	if f.Class == Opportunistic && needD > 0 && c.liveD == 0 {
		// No dedicated copy: availability rests on volatile replicas, so
		// the volatile degree adapts to v'.
		if av > needV {
			needV = av
		}
	}
	return needD, needV
}

// counted returns the dedicated and volatile replicas that count towards a
// block of f's targets. In MOON mode, volatile replicas on *hibernating*
// nodes still count unless the block belongs to an opportunistic file
// without a live dedicated copy — the paper's rule: "only opportunistic
// files without dedicated replicas will be re-replicated" when nodes
// hibernate, which is what prevents replication thrashing on transient
// outages.
func (fs *FileSystem) counted(f *File, c replicaCensus) (d, v int) {
	d, v = c.liveD, c.liveV
	if fs.cfg.Mode == ModeMOON && (f.Class == Reliable || c.liveD > 0) {
		v += c.hibV
	}
	return d, v
}

// countLive is counted over a fresh census of the block.
func (fs *FileSystem) countLive(b *Block) (d, v int) {
	return fs.counted(b.file, fs.census(b))
}

// replicationScan walks the blocks that are not quiet, re-replicating
// under-replicated ones (reliable files first) and trimming excess replicas,
// in the order a walk of every block would reach them.
func (fs *FileSystem) replicationScan() {
	av := fs.AdaptiveV()
	if av != fs.scanAV {
		// The volatile target of every opportunistic block without a
		// dedicated copy just moved.
		fs.scanAV = av
		for _, f := range fs.fileOrder {
			f.wake()
		}
	}
	visited, skipped := 0, 0
	// Two passes: reliable files have priority for replication streams.
	for _, wantReliable := range []bool{true, false} {
		for _, f := range fs.fileOrder {
			if (f.Class == Reliable) != wantReliable {
				continue
			}
			if f.awake == 0 {
				skipped += len(f.Blocks)
				continue
			}
			for _, b := range f.Blocks {
				if b.quiet {
					skipped++
					continue
				}
				visited++
				fs.scanBlock(f, b, av)
			}
		}
	}
	fs.inst.scanVisited.Add(float64(visited))
	fs.inst.scanSkipped.Add(float64(skipped))
}

// scanBlock is one visit. A visit that takes no branch below leaves the block
// quiet; every input of those branches has a hook that wakes it (Block.wake's
// callers), except time running into a back-off and the dedicated tier's
// throttling, and a block waiting on either stays awake.
func (fs *FileSystem) scanBlock(f *File, b *Block, av int) {
	if f.underConstruction {
		return
	}
	if fs.sim.Now() < b.repRetryAt {
		return
	}
	c := fs.census(b)
	needD, needV := fs.required(f, c, av)
	d, v := fs.counted(f, c)
	pend := b.pendingRep
	quiet := true

	if fs.cfg.Mode == ModeHadoop {
		total, needTotal := d+v, needD+needV
		switch {
		case total+pend < needTotal:
			quiet = false
			fs.scanTargets = fs.chooseAny(fs.scanTargets[:0], 1, b.replicas)
			fs.issueReplication(b, fs.scanTargets)
		case total > needTotal && pend == 0:
			quiet = false
			fs.trimExcess(b, total-needTotal, false)
		}
	} else {
		// MOON: dedicated deficit first (a reliable file's dedicated write is
		// always honored; opportunistic dedicated copies are best-effort and
		// skipped while the dedicated tier is throttled).
		if d+pend < needD {
			quiet = false
			if f.Class == Reliable || !fs.allDedicatedThrottled() {
				fs.scanTargets = fs.chooseDedicated(fs.scanTargets[:0], 1, b.replicas)
				fs.issueReplication(b, fs.scanTargets)
			}
		}
		if v+pend < needV {
			quiet = false
			fs.scanTargets = fs.chooseVolatile(fs.scanTargets[:0], 1, b.replicas)
			fs.issueReplication(b, fs.scanTargets)
		}
		if v > needV && pend == 0 {
			quiet = false
			fs.trimExcess(b, v-needV, true)
		}
		if d > needD && pend == 0 {
			quiet = false
			fs.trimDedicatedExcess(b, d-needD)
		}
	}
	if quiet {
		b.quiet = true
		f.awake--
	}
}

// trimDedicatedExcess removes surplus dedicated replicas (can arise when a
// relay write and an earlier scan both placed dedicated copies).
func (fs *FileSystem) trimDedicatedExcess(b *Block, n int) {
	for i := len(b.replicas) - 1; i >= 0 && n > 0; i-- {
		id := b.replicas[i]
		if !fs.dn[id].dedicated {
			continue
		}
		fs.dropReplica(b, id)
		fs.Metrics.TrimmedReplicas++
		fs.inst.trims.Inc()
		n--
	}
}

// issueReplication starts one re-replication transfer to the first target,
// respecting the global stream cap.
func (fs *FileSystem) issueReplication(b *Block, targets []int) {
	if len(targets) == 0 || fs.repStreams >= fs.cfg.MaxReplicationStreams {
		return
	}
	src := fs.pickSource(b)
	if src < 0 {
		return
	}
	dst := targets[0]
	b.pendingRep++
	fs.repStreams++
	fs.Metrics.ReplicationsIssued++
	fs.inst.repIssued.IncAt(fs.sim.Now())
	srcDown := !fs.dn[src].node.Available()
	fs.net.Transfer(fs.dn[src].node, fs.dn[dst].node, b.Size, func(err error) {
		fs.repStreams--
		b.pendingRep--
		b.wake()
		if err != nil {
			// Back the block off before retrying: the failure usually
			// means an endpoint is silently gone, and immediate retries
			// through the same stale view just stall again.
			b.repRetryAt = fs.sim.Now() + repRetryBackoff
			return
		}
		fs.Metrics.ReplicationBytes += b.Size
		fs.inst.repBytes.AddAt(fs.sim.Now(), b.Size)
		if srcDown || fs.dn[src].state == DNDead {
			// Replicated a block whose holder was only transiently away.
			fs.Metrics.ThrashReplications++
			fs.inst.thrash.Inc()
		}
		fs.registerReplica(b, dst)
	})
}

// trimExcess deregisters n excess replicas; volatileOnly restricts trimming
// to volatile holders (MOON never gives up dedicated copies).
func (fs *FileSystem) trimExcess(b *Block, n int, volatileOnly bool) {
	for i := len(b.replicas) - 1; i >= 0 && n > 0; i-- {
		id := b.replicas[i]
		if volatileOnly && fs.dn[id].dedicated {
			continue
		}
		fs.dropReplica(b, id)
		fs.Metrics.TrimmedReplicas++
		fs.inst.trims.Inc()
		n--
	}
}

// pickSource chooses the least-loaded live replica holder, preferring
// volatile sources so replication reads spare the dedicated tier (the
// paper's read prioritization applied to replication traffic).
func (fs *FileSystem) pickSource(b *Block) int {
	best, bestKey := -1, [2]int{1 << 30, 1 << 30}
	for _, id := range b.replicas {
		if fs.dn[id].state != DNLive {
			continue
		}
		tier := 0
		if fs.cfg.Mode == ModeMOON && fs.dn[id].dedicated {
			tier = 1
		}
		key := [2]int{tier*1000000 + fs.net.ActiveFlows(id), id}
		if best == -1 || key[0] < bestKey[0] || (key[0] == bestKey[0] && key[1] < bestKey[1]) {
			best, bestKey = id, key
		}
	}
	return best
}

// --- helpers ---------------------------------------------------------------

func containsInt(s []int, x int) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}

func removeInt(s *[]int, x int) {
	for i, v := range *s {
		if v == x {
			*s = append((*s)[:i], (*s)[i+1:]...)
			return
		}
	}
}

// SetThrottledForTest pins a dedicated node's throttle state; test hook.
func (fs *FileSystem) SetThrottledForTest(nodeID int, throttled bool) {
	fs.dn[nodeID].throttled = throttled
}
