package transport

import (
	"fmt"
	"sync"
	"time"
)

// Loopback is the in-process, zero-fault transport: bounded in-memory
// queues under the Conn interface. Messages are never lost, duplicated or
// reordered, so an engine wired through it behaves exactly like one wired
// with bare channels — the default that keeps every quiet-cluster golden
// byte-identical.
type Loopback struct {
	mu        sync.Mutex
	listeners map[string]*loopListener
	st        stats
}

// NewLoopback returns an empty loopback fabric. Addresses are arbitrary
// strings scoped to this instance.
func NewLoopback() *Loopback {
	return &Loopback{listeners: make(map[string]*loopListener)}
}

// Listen claims an address.
func (t *Loopback) Listen(addr string) (Listener, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.listeners[addr]; ok {
		return nil, fmt.Errorf("transport: address %q already has a listener", addr)
	}
	l := &loopListener{
		t:       t,
		addr:    addr,
		accepts: make(chan Conn, 64),
		done:    make(chan struct{}),
	}
	t.listeners[addr] = l
	return l, nil
}

// Dial connects to a listening address; the from address is the caller's
// identity (fault injection matches partitions against both ends).
func (t *Loopback) Dial(from, to string, timeout time.Duration) (Conn, error) {
	t.mu.Lock()
	l := t.listeners[to]
	t.mu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoListener, to)
	}

	fwd, bwd := newPipe(), newPipe()
	dialer := &loopConn{local: from, remote: to, in: bwd, out: fwd, st: &t.st}
	acceptee := &loopConn{local: to, remote: from, in: fwd, out: bwd, st: &t.st}

	select {
	case l.accepts <- acceptee:
	case <-l.done:
		return nil, fmt.Errorf("%w: %q", ErrNoListener, to)
	default:
		// Accept queue full: wait out the timeout like a SYN backlog.
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		select {
		case l.accepts <- acceptee:
		case <-l.done:
			return nil, fmt.Errorf("%w: %q", ErrNoListener, to)
		case <-timer.C:
			return nil, ErrTimeout
		}
	}
	t.st.dials.Add(1)
	return dialer, nil
}

// Stats snapshots the fabric's counters (loopback only moves Dials and
// Sends).
func (t *Loopback) Stats() Stats { return t.st.snapshot() }

type loopListener struct {
	t       *Loopback
	addr    string
	accepts chan Conn
	done    chan struct{}
	once    sync.Once
	timer   *time.Timer // the acceptor's (a listener has one), reused by every blocking Accept
}

func (l *loopListener) Accept(timeout time.Duration) (Conn, error) {
	select {
	case c := <-l.accepts:
		return c, nil
	case <-l.done:
		return nil, ErrClosed
	default:
	}
	if timeout <= 0 {
		return nil, ErrTimeout
	}
	timer := arm(&l.timer, timeout)
	defer timer.Stop()
	select {
	case c := <-l.accepts:
		return c, nil
	case <-l.done:
		return nil, ErrClosed
	case <-timer.C:
		return nil, ErrTimeout
	}
}

func (l *loopListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.t.mu.Lock()
		delete(l.t.listeners, l.addr)
		l.t.mu.Unlock()
	})
	return nil
}

// pipeDepth is how many messages one direction holds before Send waits.
const pipeDepth = 256

// pipe is one direction of a loopback connection: a FIFO of at most
// pipeDepth messages whose ring grows with what it holds, so a connection
// dialled for one request and one reply (a shuffle fetch) pays for two
// slots and not for pipeDepth. done covers the whole connection (either
// endpoint closing kills both directions), but buffered messages stay
// readable after close so an in-flight reply is not lost to a racing Close.
type pipe struct {
	mu   sync.Mutex
	ring []any // a power of two long; doubles up to pipeDepth
	head int
	n    int

	// One-token signals for the blocking paths: a put leaves ready, a take
	// leaves room. One token wakes one waiter, which is all a direction has
	// (Conn: one sender, one receiver).
	ready, room chan struct{}

	done  chan struct{}
	once  sync.Once
	timer *time.Timer // the receiver's, reused by every blocking Recv
}

// arm returns *t set to fire after d, made on first use. Timer channels
// are synchronous since Go 1.23: a Reset timer delivers no earlier fire.
func arm(t **time.Timer, d time.Duration) *time.Timer {
	if *t == nil {
		*t = time.NewTimer(d)
	} else {
		(*t).Reset(d)
	}
	return *t
}

func newPipe() *pipe {
	return &pipe{ready: make(chan struct{}, 1), room: make(chan struct{}, 1), done: make(chan struct{})}
}

func (p *pipe) close() { p.once.Do(func() { close(p.done) }) }

func (p *pipe) closed() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

func poke(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// put appends v unless the pipe is full.
func (p *pipe) put(v any) bool {
	p.mu.Lock()
	if p.n == len(p.ring) {
		if p.n == pipeDepth {
			p.mu.Unlock()
			return false
		}
		grown := make([]any, max(2, 2*p.n))
		for i := 0; i < p.n; i++ {
			grown[i] = p.ring[(p.head+i)&(p.n-1)]
		}
		p.ring, p.head = grown, 0
	}
	p.ring[(p.head+p.n)&(len(p.ring)-1)] = v
	p.n++
	p.mu.Unlock()
	poke(p.ready)
	return true
}

// take removes the oldest message, if there is one.
func (p *pipe) take() (any, bool) {
	p.mu.Lock()
	if p.n == 0 {
		p.mu.Unlock()
		return nil, false
	}
	v := p.ring[p.head]
	p.ring[p.head] = nil
	p.head = (p.head + 1) & (len(p.ring) - 1)
	p.n--
	p.mu.Unlock()
	poke(p.room)
	return v, true
}

type loopConn struct {
	local, remote string
	in, out       *pipe
	st            *stats
}

func (c *loopConn) LocalAddr() string  { return c.local }
func (c *loopConn) RemoteAddr() string { return c.remote }

func (c *loopConn) Close() error {
	c.in.close()
	c.out.close()
	return nil
}

func (c *loopConn) Send(payload any, timeout time.Duration) error {
	c.st.sends.Add(1)
	if c.out.closed() {
		return ErrClosed
	}
	if c.out.put(payload) {
		return nil
	}
	if timeout <= 0 {
		return ErrTimeout
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		select {
		case <-c.out.room:
			if c.out.put(payload) {
				return nil
			}
		case <-c.out.done:
			return ErrClosed
		case <-timer.C:
			return ErrTimeout
		}
	}
}

func (c *loopConn) Recv(timeout time.Duration) (any, error) {
	if m, ok := c.in.take(); ok {
		return m, nil
	}
	if c.in.closed() {
		return nil, ErrClosed
	}
	if timeout <= 0 {
		return nil, ErrTimeout
	}
	timer := arm(&c.in.timer, timeout)
	defer timer.Stop()
	for {
		select {
		case <-c.in.ready:
			if m, ok := c.in.take(); ok {
				return m, nil
			}
		case <-c.in.done:
			// Drain any message that raced the close.
			if m, ok := c.in.take(); ok {
				return m, nil
			}
			return nil, ErrClosed
		case <-timer.C:
			return nil, ErrTimeout
		}
	}
}
