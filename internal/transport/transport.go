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
