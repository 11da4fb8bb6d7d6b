package dfs

import (
	"slices"

	"repro/internal/cluster"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// WriteOp is an in-flight file write: blocks are written in order, and each
// block's replicas are written as a sequential relay pipeline (writer →
// first holder → second holder → …), so higher replication degrees lengthen
// the producing task exactly as in the paper's Table II.
type WriteOp struct {
	fs   *FileSystem
	file *File
	from *cluster.Node
	done func(error)

	blockIdx int
	attempts int
	failed   []int // nodes that failed a stage for the current block

	// avoid and targets are reusable buffers for plan(): the relay plan is
	// recomputed after every replica write, so it must not allocate.
	avoid   []int
	targets []int

	curFlow netmodel.Flow
	backoff sim.Event
	stopped bool
}

// Write creates the file and starts writing it from the given node.
// done fires exactly once: nil on success, ErrWriteFailed when placement
// retries are exhausted, or netmodel.ErrCanceled after Cancel.
func (fs *FileSystem) Write(from *cluster.Node, name string, size float64, class FileClass, factor Factor, done func(error)) (*WriteOp, error) {
	f, err := fs.createFile(name, size, class, factor)
	if err != nil {
		return nil, err
	}
	f.underConstruction = true
	op := &WriteOp{fs: fs, file: f, from: from, done: done}
	op.startBlock()
	return op, nil
}

// Cancel aborts the write; already-written replicas remain until the file
// is deleted. done receives netmodel.ErrCanceled.
func (op *WriteOp) Cancel() {
	if op.stopped {
		return
	}
	op.finish(netmodel.ErrCanceled)
}

func (op *WriteOp) finish(err error) {
	if op.stopped {
		return
	}
	op.stopped = true
	op.file.underConstruction = false
	f := op.curFlow
	op.curFlow = netmodel.Flow{}
	op.fs.net.Cancel(f)
	op.fs.sim.Cancel(op.backoff)
	op.backoff = sim.Event{}
	if op.done != nil {
		op.done(err)
	}
}

func (op *WriteOp) startBlock() {
	if op.stopped {
		return
	}
	if op.blockIdx >= len(op.file.Blocks) {
		op.finish(nil)
		return
	}
	op.attempts = 0
	op.failed = nil
	op.writeStage()
}

// plan returns the remaining targets for the current block, excluding
// holders and failed nodes. The returned slice aliases op.targets and is
// valid until the next plan() call; the relay order is local copy first,
// then dedicated (anchor the copy early), then the remaining volatile
// holders.
func (op *WriteOp) plan() []int {
	fs := op.fs
	b := op.file.Blocks[op.blockIdx]
	// Holders plus nodes that failed a stage of this block, copied into a
	// reusable buffer so the append never aliases b.replicas.
	op.avoid = append(op.avoid[:0], b.replicas...)
	avoid := append(op.avoid, op.failed...)
	op.avoid = avoid

	// The writer's local copy always comes first (it is the task's own
	// disk) unless the node already holds the block or failed. The choose
	// helpers skip anything already in the plan, so targets doubles as its
	// own exclusion list.
	targets := op.targets[:0]
	localD, localV := 0, 0
	if !slices.Contains(avoid, op.from.ID) {
		targets = append(targets, op.from.ID)
		if op.from.IsDedicated() {
			localD++
		} else {
			localV++
		}
	}

	if fs.cfg.Mode == ModeHadoop {
		total := op.file.Factor.D + op.file.Factor.V
		have := len(b.replicas) + len(targets)
		targets = fs.chooseAny(targets, total-have, avoid)
		op.targets = targets
		return targets
	}

	// Existing replica counts (live view) plus the planned local copy.
	d, v := fs.countLive(b)
	d += localD
	v += localV

	needD := op.file.Factor.D
	needV := op.file.Factor.V

	// Dedicated copies: reliable writes are always satisfied on dedicated
	// nodes; opportunistic writes are declined while the tier is
	// saturated, and the volatile degree adapts to compensate.
	if op.file.Class == Reliable {
		targets = fs.chooseDedicated(targets, needD-d, avoid)
	} else {
		for i := 0; i < needD-d; i++ {
			id := fs.pickUnthrottledDedicated(avoid, targets)
			if id < 0 {
				fs.Metrics.DedicatedDeclines++
				fs.inst.declines.IncAt(fs.sim.Now())
				if av := fs.AdaptiveV(); av > needV {
					needV = av
					fs.Metrics.AdaptiveRaises++
					fs.inst.raises.Inc()
				}
				break
			}
			targets = append(targets, id)
		}
	}

	targets = fs.chooseVolatile(targets, needV-v, avoid)
	op.targets = targets
	return targets
}

// writeStage writes the next replica of the current block, relaying from
// the most recently written holder.
func (op *WriteOp) writeStage() {
	if op.stopped {
		return
	}
	fs := op.fs
	b := op.file.Blocks[op.blockIdx]
	targets := op.plan()
	if len(targets) == 0 {
		// Nothing left to place: the block met its factor (or no
		// eligible nodes exist — the replication scan will finish the
		// job). Move on.
		op.blockIdx++
		op.startBlock()
		return
	}
	dst := fs.dn[targets[0]].node

	// Relay source: the last holder written for this block, else the
	// writer itself.
	src := op.from
	if n := len(b.replicas); n > 0 {
		last := b.replicas[n-1]
		if fs.dn[last].state == DNLive {
			src = fs.dn[last].node
		}
	}

	op.curFlow = fs.net.Transfer(src, dst, b.Size, func(err error) {
		op.curFlow = netmodel.Flow{}
		if op.stopped {
			return
		}
		if err != nil {
			op.stageFailed(dst.ID)
			return
		}
		fs.registerReplica(b, dst.ID)
		fs.inst.writeBytes.AddAt(fs.sim.Now(), b.Size)
		// More replicas of this block, or next block.
		if len(op.plan()) > 0 {
			op.writeStage()
		} else {
			op.blockIdx++
			op.startBlock()
		}
	})
}

// stageFailed retries the block after a backoff, excluding the failed
// target.
func (op *WriteOp) stageFailed(failedNode int) {
	fs := op.fs
	fs.Metrics.WriteRetries++
	fs.inst.writeRetries.IncAt(fs.sim.Now())
	op.attempts++
	if op.attempts > writeRetries {
		op.finish(ErrWriteFailed)
		return
	}
	if !slices.Contains(op.failed, failedNode) {
		op.failed = append(op.failed, failedNode)
	}
	op.backoff = fs.sim.After(writeRetryBackoff, "dfs.writeRetry", func() {
		op.backoff = sim.Event{}
		op.writeStage()
	})
}
