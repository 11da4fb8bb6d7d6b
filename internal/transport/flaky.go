package transport

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Partition is one timed partition window, relative to the transport's
// creation: while active, every message on a link touching one of Addrs
// (either end; empty means all links) is silently dropped — both
// directions, like a real network cut. Connections stay up; the messages
// just vanish.
type Partition struct {
	Start    time.Duration
	Duration time.Duration
	// Addrs lists the affected endpoint addresses; empty partitions
	// everything.
	Addrs []string
}

// FaultConfig parameterizes deterministic fault injection. Every
// per-message decision is a pure function of (Seed, connection, message
// sequence number), so the same seed over the same traffic yields the
// identical fault schedule — chaos runs are reproducible.
type FaultConfig struct {
	// Seed selects the fault schedule.
	Seed uint64
	// DropRate / DupRate / DelayRate / ResetRate are per-message
	// probabilities in [0, 1].
	DropRate  float64
	DupRate   float64
	DelayRate float64
	// Delay is how late a delay-selected message is delivered.
	Delay time.Duration
	// ResetRate kills the connection instead of sending: the send fails
	// with ErrReset and the conn is closed (both directions).
	ResetRate float64
	// Partitions are the timed windows during which matching links drop
	// every message.
	Partitions []Partition
}

// Validate rejects out-of-range rates and malformed windows.
func (f FaultConfig) Validate() error {
	// Ordered so the reported rate is deterministic when several are
	// invalid (detrange-pinned).
	for _, p := range []struct {
		name string
		r    float64
	}{
		{"DropRate", f.DropRate}, {"DupRate", f.DupRate},
		{"DelayRate", f.DelayRate}, {"ResetRate", f.ResetRate},
	} {
		if p.r < 0 || p.r > 1 || math.IsNaN(p.r) {
			return fmt.Errorf("transport: %s %v outside [0, 1]", p.name, p.r)
		}
	}
	if f.Delay < 0 {
		return fmt.Errorf("transport: Delay must be >= 0 (got %v)", f.Delay)
	}
	if f.DelayRate > 0 && f.Delay == 0 {
		return fmt.Errorf("transport: DelayRate %v needs Delay > 0", f.DelayRate)
	}
	for i, p := range f.Partitions {
		if p.Start < 0 || p.Duration <= 0 {
			return fmt.Errorf("transport: partition %d window [start %v, duration %v] (want start >= 0, duration > 0)",
				i, p.Start, p.Duration)
		}
	}
	return nil
}

// Flaky wraps a transport with seeded fault injection on every Send. The
// wrapped transport's own counters keep counting; engine metrics read the
// outermost Stats.
type Flaky struct {
	inner Transport
	cfg   FaultConfig
	start time.Time
	st    stats

	// dialSeq numbers the connections of each (from, to) pair so a redial
	// gets a fresh, still-deterministic fault stream.
	mu      sync.Mutex
	dialSeq map[string]uint64
}

// NewFlaky wraps inner with the validated fault configuration. Partition
// windows start counting at this call.
func NewFlaky(inner Transport, cfg FaultConfig) (*Flaky, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Flaky{
		inner:   inner,
		cfg:     cfg,
		start:   time.Now(),
		dialSeq: make(map[string]uint64),
	}, nil
}

// Listen wraps the inner listener so accepted connections inject faults on
// their sends too (faults are injected sender-side, per direction).
func (f *Flaky) Listen(addr string) (Listener, error) {
	l, err := f.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &flakyListener{f: f, inner: l}, nil
}

// Dial dials through the inner transport and wraps the connection.
func (f *Flaky) Dial(from, to string, timeout time.Duration) (Conn, error) {
	c, err := f.inner.Dial(from, to, timeout)
	if err != nil {
		return nil, err
	}
	f.st.dials.Add(1)
	return &flakyConn{f: f, inner: c, id: f.connID("dial", from, to)}, nil
}

// Stats snapshots the injection counters (Sends counts attempted sends,
// including the dropped ones).
func (f *Flaky) Stats() Stats { return f.st.snapshot() }

// connID derives the deterministic fault-stream identity of one wrapped
// connection from its direction, endpoints, and per-pair dial count.
func (f *Flaky) connID(side, local, remote string) uint64 {
	key := side + "|" + local + "|" + remote
	f.mu.Lock()
	n := f.dialSeq[key]
	f.dialSeq[key] = n + 1
	f.mu.Unlock()
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	return mix64(f.cfg.Seed ^ h.Sum64() ^ n*0x9e3779b97f4a7c15)
}

// partitioned reports whether a link touching (a, b) is inside an active
// partition window.
func (f *Flaky) partitioned(a, b string) bool {
	if len(f.cfg.Partitions) == 0 {
		return false
	}
	now := time.Since(f.start)
	for _, p := range f.cfg.Partitions {
		if now < p.Start || now >= p.Start+p.Duration {
			continue
		}
		if len(p.Addrs) == 0 {
			return true
		}
		for _, addr := range p.Addrs {
			if addr == a || addr == b {
				return true
			}
		}
	}
	return false
}

type flakyListener struct {
	f     *Flaky
	inner Listener
}

func (l *flakyListener) Close() error { return l.inner.Close() }

func (l *flakyListener) Accept(timeout time.Duration) (Conn, error) {
	c, err := l.inner.Accept(timeout)
	if err != nil {
		return nil, err
	}
	return &flakyConn{f: l.f, inner: c, id: l.f.connID("accept", c.LocalAddr(), c.RemoteAddr())}, nil
}

type flakyConn struct {
	f      *Flaky
	inner  Conn
	id     uint64
	seq    atomic.Uint64
	closed atomic.Bool
}

func (c *flakyConn) LocalAddr() string  { return c.inner.LocalAddr() }
func (c *flakyConn) RemoteAddr() string { return c.inner.RemoteAddr() }

func (c *flakyConn) Close() error {
	c.closed.Store(true)
	return c.inner.Close()
}

func (c *flakyConn) Recv(timeout time.Duration) (any, error) {
	return c.inner.Recv(timeout)
}

// Send rolls the message's fate from (conn id, seq): partition and drop
// vanish it, reset kills the connection, delay delivers late, dup delivers
// twice. The decision order is fixed, so a schedule is one deterministic
// sequence per connection.
func (c *flakyConn) Send(payload any, timeout time.Duration) error {
	if c.closed.Load() {
		return ErrClosed
	}
	f := c.f
	f.st.sends.Add(1)
	seq := c.seq.Add(1)

	if f.partitioned(c.LocalAddr(), c.RemoteAddr()) {
		f.st.drops.Add(1)
		return nil // vanished; the sender cannot tell
	}

	base := c.id ^ seq*0x9e3779b97f4a7c15
	if unit(mix64(base+1)) < f.cfg.ResetRate {
		f.st.resets.Add(1)
		c.closed.Store(true)
		_ = c.inner.Close()
		return ErrReset
	}
	if unit(mix64(base+2)) < f.cfg.DropRate {
		f.st.drops.Add(1)
		return nil
	}
	dup := unit(mix64(base+3)) < f.cfg.DupRate
	if unit(mix64(base+4)) < f.cfg.DelayRate {
		f.st.delays.Add(1)
		if dup {
			f.st.dups.Add(1)
		}
		// Fire-and-forget late delivery; a conn closed in the meantime
		// just swallows it, like any in-flight packet at teardown.
		time.AfterFunc(f.cfg.Delay, func() {
			_ = c.inner.Send(payload, timeout)
			if dup {
				_ = c.inner.Send(payload, timeout)
			}
		})
		return nil
	}
	if err := c.inner.Send(payload, timeout); err != nil {
		return err
	}
	if dup {
		f.st.dups.Add(1)
		_ = c.inner.Send(payload, timeout)
	}
	return nil
}

// mix64 is the splitmix64 finalizer (same mixer as internal/rng's seeding
// path): a stateless uniform hash, the source of every fault decision.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// unit maps a hash to [0, 1) with 53-bit precision.
func unit(v uint64) float64 { return float64(v>>11) / (1 << 53) }
