package transport

import (
	"errors"
	"testing"
	"time"
)

func TestLoopbackSendRecv(t *testing.T) {
	tr := NewLoopback()
	lis, err := tr.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := tr.Dial("cli", "srv", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := lis.Accept(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if conn.LocalAddr() != "cli" || conn.RemoteAddr() != "srv" {
		t.Fatalf("dialer addrs %q→%q", conn.LocalAddr(), conn.RemoteAddr())
	}
	if srv.LocalAddr() != "srv" || srv.RemoteAddr() != "cli" {
		t.Fatalf("acceptee addrs %q→%q", srv.LocalAddr(), srv.RemoteAddr())
	}

	if err := conn.Send("ping", time.Second); err != nil {
		t.Fatal(err)
	}
	m, err := srv.Recv(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if m != "ping" {
		t.Fatalf("got %v", m)
	}
	if err := srv.Send("pong", time.Second); err != nil {
		t.Fatal(err)
	}
	if m, err = conn.Recv(time.Second); err != nil || m != "pong" {
		t.Fatalf("reply %v, %v", m, err)
	}

	st := tr.Stats()
	if st.Dials != 1 || st.Sends != 2 || st.Drops != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestLoopbackTimeoutsAndClose(t *testing.T) {
	tr := NewLoopback()
	lis, _ := tr.Listen("srv")

	if _, err := tr.Dial("cli", "nowhere", 10*time.Millisecond); !errors.Is(err, ErrNoListener) {
		t.Fatalf("dial to nowhere: %v", err)
	}
	if _, err := lis.Accept(5 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("accept on idle listener: %v", err)
	}

	conn, _ := tr.Dial("cli", "srv", time.Second)
	srv, _ := lis.Accept(time.Second)
	if _, err := srv.Recv(5 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("recv on empty conn: %v", err)
	}

	// A buffered message survives the peer's close; afterwards the conn
	// reports closed both ways.
	if err := conn.Send("last", time.Second); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if m, err := srv.Recv(time.Second); err != nil || m != "last" {
		t.Fatalf("drain after close: %v, %v", m, err)
	}
	if _, err := srv.Recv(5 * time.Millisecond); !errors.Is(err, ErrClosed) {
		t.Fatalf("recv after close: %v", err)
	}
	if err := srv.Send("x", 5*time.Millisecond); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v", err)
	}

	lis.Close()
	if _, err := tr.Dial("cli", "srv", 5*time.Millisecond); !errors.Is(err, ErrNoListener) {
		t.Fatalf("dial to closed listener: %v", err)
	}
}

func TestLoopbackRejectsDuplicateListen(t *testing.T) {
	tr := NewLoopback()
	if _, err := tr.Listen("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Listen("a"); err == nil {
		t.Fatal("duplicate listen accepted")
	}
}

// TestLoopbackPipeGrowsInOrderAndStopsAtDepth: a direction costs what it
// holds — it starts at two slots and doubles — keeps FIFO order across
// growth and wrap-around, and at pipeDepth makes Send wait for a Recv.
func TestLoopbackPipeGrowsInOrderAndStopsAtDepth(t *testing.T) {
	tr := NewLoopback()
	lis, _ := tr.Listen("srv")
	defer lis.Close()
	conn, err := tr.Dial("cli", "srv", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	srv, _ := lis.Accept(time.Second)
	out := conn.(*loopConn).out
	if len(out.ring) != 0 {
		t.Fatalf("a dialled pipe starts with %d slots", len(out.ring))
	}

	next, want := 0, 0
	send := func(n int) {
		t.Helper()
		for ; n > 0; n-- {
			if err := conn.Send(next, 0); err != nil {
				t.Fatalf("send %d: %v", next, err)
			}
			next++
		}
	}
	recv := func(n int) {
		t.Helper()
		for ; n > 0; n-- {
			if m, err := srv.Recv(0); err != nil || m != want {
				t.Fatalf("recv: %v, %v; want %d", m, err, want)
			}
			want++
		}
	}
	send(2)
	if len(out.ring) != 2 {
		t.Fatalf("two messages took %d slots", len(out.ring))
	}
	recv(1) // head is now off zero: the next growth copies a wrapped ring
	send(6)
	recv(3)
	send(pipeDepth - 4)
	if err := conn.Send(-1, 5*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("send into a full pipe: %v", err)
	}
	if len(out.ring) != pipeDepth {
		t.Fatalf("a full pipe has %d slots", len(out.ring))
	}
	// A Recv makes room for a Send that is already waiting.
	sent := make(chan error, 1)
	go func() { sent <- conn.Send(next, time.Second) }()
	recv(1)
	if err := <-sent; err != nil {
		t.Fatalf("send after room was made: %v", err)
	}
	next++
	recv(pipeDepth)
	if _, err := srv.Recv(0); !errors.Is(err, ErrTimeout) {
		t.Fatalf("recv from an empty pipe: %v", err)
	}
}
