// Package transport is the message layer under the live engine's
// master↔worker protocol: a small, connection-oriented interface with
// per-operation deadlines, plus two implementations. Loopback is the
// zero-fault default — buffered in-process channels, so an engine built on
// it behaves exactly like one wired with bare channels. Flaky wraps any
// transport with deterministic, seeded fault injection (message drops,
// delays, duplication, connection resets, timed partition windows) so
// failure-handling code can be exercised reproducibly under -race.
//
// Payloads are passed as Go values, not bytes: the package models an
// unreliable message fabric, not a wire format. Serialization (and real
// sockets) is the remaining half of the distributed-engine roadmap item.
package transport

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// The transport error vocabulary. Callers branch on these with errors.Is:
// timeouts are retryable, closes and resets end the connection, and a
// missing listener means the peer has not (re)started yet.
var (
	ErrTimeout    = errors.New("transport: operation timed out")
	ErrClosed     = errors.New("transport: connection closed")
	ErrReset      = errors.New("transport: connection reset by fault injection")
	ErrNoListener = errors.New("transport: no listener at address")
)

// Conn is one bidirectional message connection. Send and Recv take
// per-operation deadlines; a zero or negative timeout fails immediately
// with ErrTimeout unless the operation can complete without blocking.
// Conns are safe for one sender and one receiver goroutine per direction.
type Conn interface {
	Send(payload any, timeout time.Duration) error
	Recv(timeout time.Duration) (any, error)
	LocalAddr() string
	RemoteAddr() string
	Close() error
}

// Listener accepts inbound connections at one address.
type Listener interface {
	Accept(timeout time.Duration) (Conn, error)
	Close() error
}

// Transport creates listeners and dials connections. Dial carries the
// caller's own address (loopback has no ambient identity), which is also
// what partition windows match against.
type Transport interface {
	Listen(addr string) (Listener, error)
	Dial(from, to string, timeout time.Duration) (Conn, error)
	// Stats returns a snapshot of the transport's traffic counters.
	Stats() Stats
}

// Stats counts a transport's traffic and injected faults. Loopback only
// moves Dials and Sends; the fault counters belong to Flaky.
type Stats struct {
	Dials  int64 // connections dialed
	Sends  int64 // messages submitted for delivery
	Drops  int64 // messages silently discarded (drop rate or partition)
	Dups   int64 // messages delivered twice
	Delays int64 // messages delivered late
	Resets int64 // connections killed mid-flight
}

// stats is the shared atomic backing of Stats snapshots.
type stats struct {
	dials, sends, drops, dups, delays, resets atomic.Int64
}

func (s *stats) snapshot() Stats {
	return Stats{
		Dials:  s.dials.Load(),
		Sends:  s.sends.Load(),
		Drops:  s.drops.Load(),
		Dups:   s.dups.Load(),
		Delays: s.delays.Load(),
		Resets: s.resets.Load(),
	}
}

// LinkConfig gathers every knob of the engine's failure-handling protocol,
// in the style of the paper's CLUSTER_LINK_* / COORDINATOR_* family. The
// zero value is not valid; start from DefaultLinkConfig.
type LinkConfig struct {
	// ConnectTimeout bounds one dial (including the hello/welcome
	// handshake's per-message operations).
	ConnectTimeout time.Duration
	// SendTimeout / RecvTimeout bound one message send / receive.
	SendTimeout time.Duration
	RecvTimeout time.Duration
	// HeartbeatInterval is the worker's lease-refresh period.
	HeartbeatInterval time.Duration
	// LeaseDuration is how long a heartbeat keeps a volatile worker's
	// lease fresh; a worker silent longer is treated as suspended and its
	// tasks become eligible for backup copies.
	LeaseDuration time.Duration
	// MaxRetries bounds the resends of one unacknowledged message (0
	// keeps the default; retries back off exponentially from
	// RetryBackoff). A message still unacknowledged after the last resend
	// is abandoned: the master force-retires the attempt, the worker
	// reconnects under a fresh session.
	MaxRetries int
	// RetryBackoff is the initial resend backoff; it doubles per retry.
	RetryBackoff time.Duration
	// SessionExpiry evicts a session silent this long: the connection is
	// closed and the worker must rejoin under a new session ID, its
	// in-flight results discarded. Zero disables expiry (a returning
	// worker resumes its session, the pre-transport behavior).
	SessionExpiry time.Duration
}

// DefaultLinkConfig mirrors the engine's millisecond-scale defaults:
// heartbeats at 10 ms against a 50 ms lease, 50 ms per-operation
// deadlines, three retries from a 2 ms backoff, and no session expiry.
func DefaultLinkConfig() LinkConfig {
	return LinkConfig{
		ConnectTimeout:    50 * time.Millisecond,
		SendTimeout:       50 * time.Millisecond,
		RecvTimeout:       50 * time.Millisecond,
		HeartbeatInterval: 10 * time.Millisecond,
		LeaseDuration:     50 * time.Millisecond,
		MaxRetries:        3,
		RetryBackoff:      2 * time.Millisecond,
	}
}

// Validate rejects configurations under which the protocol cannot work: a
// heartbeat period at or beyond the lease makes every fresh lease expire
// before its next refresh, and a session expiry shorter than the lease
// would evict workers the lease still trusts.
func (l LinkConfig) Validate() error {
	// Ordered so the reported knob is deterministic when several are
	// invalid (detrange-pinned).
	for _, p := range []struct {
		name string
		d    time.Duration
	}{
		{"ConnectTimeout", l.ConnectTimeout},
		{"SendTimeout", l.SendTimeout},
		{"RecvTimeout", l.RecvTimeout},
		{"HeartbeatInterval", l.HeartbeatInterval},
		{"LeaseDuration", l.LeaseDuration},
		{"RetryBackoff", l.RetryBackoff},
	} {
		if p.d <= 0 {
			return fmt.Errorf("transport: %s must be positive (got %v)", p.name, p.d)
		}
	}
	if l.MaxRetries < 0 {
		return fmt.Errorf("transport: MaxRetries must be >= 0 (got %d)", l.MaxRetries)
	}
	if l.HeartbeatInterval >= l.LeaseDuration {
		return fmt.Errorf("transport: HeartbeatInterval %v >= LeaseDuration %v (a fresh lease would expire before its next refresh)",
			l.HeartbeatInterval, l.LeaseDuration)
	}
	if l.SessionExpiry < 0 {
		return fmt.Errorf("transport: SessionExpiry must be >= 0 (got %v)", l.SessionExpiry)
	}
	if l.SessionExpiry > 0 && l.SessionExpiry < l.LeaseDuration {
		return fmt.Errorf("transport: SessionExpiry %v < LeaseDuration %v (sessions would expire while their lease is still trusted)",
			l.SessionExpiry, l.LeaseDuration)
	}
	return nil
}
