// Package dfs implements the block-based distributed file system of the
// MOON reproduction: a Hadoop-0.17-style NameNode/DataNode design extended
// with the paper's multi-dimensional replication service.
//
// MOON's extensions over stock HDFS, all implemented here and selectable
// per Config:
//
//   - replication factors are pairs {d,v} — d copies on dedicated
//     DataNodes, v on volatile ones — instead of a single number;
//   - files are classed *reliable* (never lost; always keep dedicated
//     copies) or *opportunistic* (transient; dedicated copies best-effort);
//   - writes of opportunistic data to dedicated nodes are declined when the
//     dedicated tier is saturated, detected by the sliding-window
//     throttling of Algorithm 1, and the volatile degree is then adapted to
//     v' with 1-p^v' above the availability goal, where p is the measured
//     node-unavailability rate;
//   - reads from volatile clients prefer volatile replicas so the small
//     dedicated tier is not crushed by read traffic;
//   - a *hibernate* DataNode state (reached after NodeHibernateInterval
//     without heartbeats, well before NodeExpiryInterval) suppresses both
//     I/O to the node and re-replication of blocks that still have a
//     dedicated copy, eliminating the replication thrashing that transient
//     outages cause in stock HDFS.
//
// The NameNode's replication scan runs every replicationScanInterval and
// visits the blocks something has touched since it last looked. A block whose
// visit found nothing to do — no deficit, no excess, not under construction,
// not backing off — is *quiet*, and stays skipped until one of the things a
// visit reads changes: its replica list, the NameNode's state for one of its
// holders (hibernate, return, expiry), its re-replications in flight or its
// back-off time, its file's class or construction flag, or the value of
// AdaptiveV, which the scan reads once at its top (a move wakes every block).
// A block with a dedicated deficit the throttled tier will not take stays
// awake, because throttling changes without telling anybody. Each file counts
// its awake blocks, so a quiet file costs one comparison. The blocks that are
// visited are visited in the order a full walk would reach them — reliable
// files first, files in creation order (a list; the map by name serves
// lookups only), blocks by index — because that order is the stream cap's
// tie-break and every visit of a block in deficit rotates a placement cursor.
// A visit hashes nothing and reads the replica list once (census), and a
// DataNode's record lists the blocks on its disk, so a node that hibernates,
// expires or returns touches its own blocks and no others.
package dfs

import (
	"errors"
	"fmt"
)

// FileClass distinguishes MOON's two file categories.
type FileClass int

const (
	// Opportunistic files hold transient data (intermediate results, and
	// output data before job commit); they tolerate temporary
	// unavailability and may lack dedicated copies.
	Opportunistic FileClass = iota
	// Reliable files must never be lost; at least one dedicated copy is
	// maintained at all times (input and job system data).
	Reliable
)

func (c FileClass) String() string {
	if c == Reliable {
		return "reliable"
	}
	return "opportunistic"
}

// Factor is MOON's two-dimensional replication factor {d,v}.
type Factor struct {
	D int // copies on dedicated DataNodes
	V int // copies on volatile DataNodes
}

func (f Factor) String() string { return fmt.Sprintf("{%d,%d}", f.D, f.V) }

// Validate rejects factors that can never be satisfied.
func (f Factor) Validate() error {
	if f.D < 0 || f.V < 0 || f.D+f.V == 0 {
		return fmt.Errorf("dfs: invalid replication factor %v", f)
	}
	return nil
}

// BlockID names one block of one file.
type BlockID struct {
	File  string
	Index int
}

func (id BlockID) String() string { return fmt.Sprintf("%s[%d]", id.File, id.Index) }

// Block is the NameNode's record of one block.
type Block struct {
	ID   BlockID
	Size float64 // bytes

	// replicas are the DataNode IDs the NameNode currently counts as
	// holding the block (registered replicas). Order is creation order.
	replicas []int
	// disk lists the DataNodes that hold the block physically, a superset of
	// replicas: a node declared dead keeps its data and re-reports it on
	// return. Each entry also says where the block sits in that node's own
	// list, so taking it out of both costs the block's replica count.
	disk []diskRef

	// Replication-scan state, on the block so the scan finds it without a
	// lookup: pendingRep counts re-replications in flight, so scans don't
	// double-issue; repRetryAt is when a block whose last re-replication
	// failed may be tried again (stalled transfers must not be re-issued
	// every scan, or a churning fleet drowns in I/O to dead nodes). A
	// transfer that outlives its file's Delete updates a block no scan can
	// reach any more.
	pendingRep int
	repRetryAt float64
	// quiet: the last scan visit found nothing to do and nothing a visit
	// reads has changed since, so scans skip the block (see wake).
	quiet bool

	file *File
}

// diskRef is one physical copy of a block: the DataNode, and the block's
// index in that node's dnView.blocks.
type diskRef struct {
	node, pos int32
}

// diskIndex is the index in b.disk of the copy on the node, or -1.
func (b *Block) diskIndex(nodeID int) int {
	for i, r := range b.disk {
		if int(r.node) == nodeID {
			return i
		}
	}
	return -1
}

// wake has the next scan visit the block again. Everything that changes what
// scanBlock reads of a block calls it.
func (b *Block) wake() {
	if b.quiet {
		b.quiet = false
		b.file.awake++
	}
}

// File is the NameNode's record of one file.
type File struct {
	Name   string
	Class  FileClass
	Factor Factor
	Blocks []*Block

	// committed marks an output file converted opportunistic→reliable.
	committed bool
	// underConstruction suppresses the replication monitor while a
	// WriteOp is still placing replicas (as for HDFS files being
	// written).
	underConstruction bool
	// awake counts the blocks the next replication scan will visit.
	awake int
	// deleted files are out of the namespace; a transfer that outlives one
	// must not list its block on a DataNode again.
	deleted bool
}

func (f *File) wake() {
	for _, b := range f.Blocks {
		b.wake()
	}
}

// Size returns the file's total bytes.
func (f *File) Size() float64 {
	s := 0.0
	for _, b := range f.Blocks {
		s += b.Size
	}
	return s
}

// Errors surfaced to DFS clients.
var (
	// ErrNoReplica means no live replica of the requested block exists
	// right now (the Reduce "fetch failure" condition).
	ErrNoReplica = errors.New("dfs: no live replica available")
	// ErrWriteFailed means a write ran out of placement retries.
	ErrWriteFailed = errors.New("dfs: write failed after retries")
	// ErrUnknownFile is returned for operations on nonexistent files.
	ErrUnknownFile = errors.New("dfs: unknown file")
	// ErrExists is returned when creating a file that already exists.
	ErrExists = errors.New("dfs: file exists")
)

// DNState is the NameNode's view of a DataNode.
type DNState int

const (
	// DNLive: heartbeats current; replicas served and counted.
	DNLive DNState = iota
	// DNHibernate (MOON only): no heartbeats for NodeHibernateInterval;
	// the node receives no I/O, but its replicas still count for blocks
	// that have a dedicated copy.
	DNHibernate
	// DNDead: no heartbeats for NodeExpiryInterval; replicas
	// deregistered and re-replicated.
	DNDead
)

func (s DNState) String() string {
	switch s {
	case DNLive:
		return "live"
	case DNHibernate:
		return "hibernate"
	case DNDead:
		return "dead"
	default:
		return fmt.Sprintf("DNState(%d)", int(s))
	}
}
