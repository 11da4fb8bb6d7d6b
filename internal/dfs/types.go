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
// The NameNode's replication scan visits every block of every file every
// ReplicationScanInterval, so what it needs per visit sits where the walk
// already is. Files are walked through a list in creation order (the map by
// name serves lookups only); a block's scan state — re-replications in
// flight, and the time before which a failed one is not retried — is two
// fields of the Block; and one pass over a block's replica list (census)
// yields the live-dedicated, live-volatile and hibernating-volatile counts
// from which both the replica targets and the counts held against them are
// derived. A visit hashes nothing and reads the replica list once.
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
	// onDisk tracks physical presence per node, which outlives NameNode
	// registration: a node declared dead keeps its data and re-reports it
	// on return.
	onDisk map[int]bool

	// Replication-scan state, on the block so the scan finds it without a
	// lookup: pendingRep counts re-replications in flight, so scans don't
	// double-issue; repRetryAt is when a block whose last re-replication
	// failed may be tried again (stalled transfers must not be re-issued
	// every scan, or a churning fleet drowns in I/O to dead nodes). A
	// transfer that outlives its file's Delete updates a block no scan can
	// reach any more.
	pendingRep int
	repRetryAt float64

	file *File
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
