package mapred

import (
	"repro/internal/cluster"
	"repro/internal/sim"
)

// TaskTracker is the per-node worker agent: it runs attempts in the node's
// slots (SchedConfig's, alike on every node). The JobTracker detects
// suspension and expiry from missing heartbeats.
type TaskTracker struct {
	node *cluster.Node

	running []*Instance

	// JobTracker-side detection events, armed when heartbeats stop.
	suspendEv sim.Event
	expireEv  sim.Event
}

// usedSlots counts running instances of the given type.
func (tt *TaskTracker) usedSlots(typ TaskType) int {
	n := 0
	for _, in := range tt.running {
		if in.task.Type == typ {
			n++
		}
	}
	return n
}

// freeSlots returns tt's open slots of the given type; a tracker whose node
// is down (so also an expired one) offers none.
func (jt *JobTracker) freeSlots(tt *TaskTracker, typ TaskType) int {
	if !tt.node.Available() {
		return 0
	}
	if typ == MapTask {
		return jt.cfg.MapSlotsPerNode - tt.usedSlots(MapTask)
	}
	return jt.cfg.ReduceSlotsPerNode - tt.usedSlots(ReduceTask)
}

func (tt *TaskTracker) remove(in *Instance) {
	for i, x := range tt.running {
		if x == in {
			tt.running = append(tt.running[:i], tt.running[i+1:]...)
			return
		}
	}
}
