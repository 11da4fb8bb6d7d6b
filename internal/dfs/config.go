package dfs

import "fmt"

// Mode selects the stock-Hadoop policies or the MOON extensions.
type Mode int

const (
	// ModeHadoop reproduces HDFS 0.17 behaviour: one-dimensional
	// replication (Factor.V total copies on any nodes), no hibernate
	// state, no throttling, no read prioritization, no adaptive degree.
	ModeHadoop Mode = iota
	// ModeMOON enables every extension from the paper.
	ModeMOON
)

func (m Mode) String() string {
	if m == ModeMOON {
		return "moon"
	}
	return "hadoop"
}

// Config parameterizes the file system. Every field is used as given: start
// from DefaultConfig and change what differs.
type Config struct {
	Mode Mode

	// BlockSize is the fixed block size in bytes (Hadoop 0.17: 64 MB).
	BlockSize float64

	// NodeExpiryInterval: a DataNode silent this long is declared dead
	// and its replicas are deregistered and re-replicated.
	NodeExpiryInterval float64

	// NodeHibernateInterval (MOON): a DataNode silent this long enters
	// hibernate — much shorter than NodeExpiryInterval. Zero means no
	// hibernate state.
	NodeHibernateInterval float64

	// MaxReplicationStreams caps concurrent re-replication transfers.
	MaxReplicationStreams int

	// AvailabilityTarget is the user-defined QoS level for opportunistic
	// files without dedicated copies (paper example: 0.9): the adaptive
	// volatile degree v' satisfies 1 - p^v' > AvailabilityTarget.
	AvailabilityTarget float64

	// MaxAdaptiveV clamps the adaptive degree (replication storms guard).
	MaxAdaptiveV int
}

// Settings of the NameNode that no experiment of the paper varies.
const (
	// replicationScanInterval is the under-replication scan period
	// (seconds).
	replicationScanInterval = 3

	// The NameNode samples the fraction of unavailable volatile DataNodes
	// every pSampleInterval seconds; the last pWindow samples form the
	// estimate of p (the "past interval I" of the paper).
	pSampleInterval = 30
	pWindow         = 20

	// Throttling (Algorithm 1) of dedicated DataNodes: a bandwidth sample
	// every throttleSampleInterval seconds, compared against the average
	// of the last throttleWindow (W) samples with relative margin
	// throttleThreshold (Tb).
	throttleSampleInterval = 10
	throttleWindow         = 6
	throttleThreshold      = 0.15
	// throttleFloor (bytes/s, half a 1 GbE NIC's payload rate): a node is
	// only eligible for the throttled state while its measured bandwidth
	// reaches this floor. Algorithm 1 compares a sample against the window
	// average, which at light load would flag any small plateau as
	// saturation; the floor restricts the detector to the saturation
	// regime the paper designed it for.
	throttleFloor = 58e6

	// A block write retries placement up to writeRetries times, pausing
	// writeRetryBackoff seconds before each, before the write fails.
	writeRetries      = 20
	writeRetryBackoff = 5
)

// DefaultConfig returns the parameters used throughout the paper's
// evaluation for the given mode.
func DefaultConfig(mode Mode) Config {
	cfg := Config{
		Mode:                  mode,
		BlockSize:             64e6,
		NodeExpiryInterval:    600,
		NodeHibernateInterval: 60,
		MaxReplicationStreams: 8,
		AvailabilityTarget:    0.9,
		MaxAdaptiveV:          6,
	}
	if mode == ModeHadoop {
		cfg.NodeHibernateInterval = 0 // no hibernate state
	} else {
		// MOON pairs the short hibernate interval with a long expiry:
		// hibernate already suppresses I/O to silent nodes, so declaring
		// them dead can wait until the outage is clearly not transient
		// (mirroring MOON's 30-minute TrackerExpiryInterval). A short
		// expiry would re-replicate every block of every node whose
		// owner steps away for ten minutes — the replication thrashing
		// the hibernate state exists to avoid.
		cfg.NodeExpiryInterval = 1800
	}
	return cfg
}

// Validate rejects incoherent configurations (NaN included).
func (c Config) Validate() error {
	if !(c.BlockSize > 0) {
		return fmt.Errorf("dfs: block size %v", c.BlockSize)
	}
	if !(c.NodeExpiryInterval > 0) {
		return fmt.Errorf("dfs: expiry interval %v must be positive", c.NodeExpiryInterval)
	}
	if c.Mode == ModeMOON && !(c.NodeHibernateInterval < c.NodeExpiryInterval) {
		return fmt.Errorf("dfs: hibernate interval %v must be < expiry interval %v",
			c.NodeHibernateInterval, c.NodeExpiryInterval)
	}
	if !(c.AvailabilityTarget >= 0 && c.AvailabilityTarget < 1) {
		return fmt.Errorf("dfs: availability target %v outside [0,1)", c.AvailabilityTarget)
	}
	if c.MaxAdaptiveV < 1 || c.MaxReplicationStreams < 1 {
		return fmt.Errorf("dfs: max adaptive v %d and max replication streams %d must be >= 1",
			c.MaxAdaptiveV, c.MaxReplicationStreams)
	}
	return nil
}
