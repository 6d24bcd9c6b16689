package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// What a call reuses between round trips (a pooled call record) and what a
// request shares with no other (its handler's context), held to the
// behaviour a fresh record and a context tree per request gave.

// gateCtx is an already cancelled context whose Done, asked for by a call
// as it starts to wait for its reply, holds the call there until the test
// opens the gate: the test can then put the reply in the call's record
// first, so that the call finds its reply and its cancellation both ready.
type gateCtx struct {
	context.Context
	once    sync.Once
	waiting chan struct{} // closed when the call asks for Done
	open    chan struct{} // Done returns once this is closed
}

func newGateCtx() *gateCtx {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return &gateCtx{Context: ctx, waiting: make(chan struct{}), open: make(chan struct{})}
}

func (g *gateCtx) Done() <-chan struct{} {
	g.once.Do(func() { close(g.waiting) })
	<-g.open
	return g.Context.Done()
}

// nextRequest reads the next request frame, skipping the cancels a client
// sends for calls it gave up on.
func nextRequest(p *rawPeer) wire.Frame {
	p.t.Helper()
	for {
		if f := p.next(); f.Type == wire.FrameRequest {
			return f
		} else if f.Type != wire.FrameCancel {
			p.t.Fatalf("scripted server got %s frame, want a request", f.Type)
		}
	}
}

// TestPooledCallRecordNeverCarriesStaleReply: a call record goes back to the
// pool only after its call received its own reply. The reply of a call
// that gives up just as it arrives, and the closed channel of a call that
// failPending failed, never reach the next call that takes a record; and
// a stale reply planted in a pooled record is refused by its request id.
// Each round runs the next call on the goroutine that made the last one,
// so that it most likely takes the record that call left in the pool.
//
// Caught, in 40 runs each: "put back on abandon" 40, "no request-id check"
// 40, and "put back after failPending" 40 (the reused closed channel fails
// a healthy call with ErrClosed, or a reply to it panics the read loop).
func TestPooledCallRecordNeverCarriesStaleReply(t *testing.T) {
	addr, accepted := rawServer(t)
	conn, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	c := conn.(*tcpConn)
	var p *rawPeer
	select {
	case nc := <-accepted:
		t.Cleanup(func() { nc.Close() })
		p = newRawPeer(t, nc)
	case <-time.After(10 * time.Second):
		t.Fatal("client never connected")
	}
	reply := func(id uint64, body string) {
		p.send(wire.Frame{Type: wire.FrameResponse, RequestID: id, Payload: []byte(body)})
	}

	// A reply and its caller's cancellation, ready together: the call
	// picks either, at random, and the next call on the connection gets
	// its own reply.
	const rounds = 64
	gates := make(chan *gateCtx)
	results := make(chan callResult)
	go func() {
		for i := 0; i < rounds; i++ {
			g := newGateCtx()
			gates <- g
			out, err := conn.Call(g, "get", nil)
			results <- callResult{out, err}
			out, err = conn.Call(context.Background(), "get", nil)
			results <- callResult{out, err}
		}
	}()
	abandoned := 0
	for i := 0; i < rounds; i++ {
		g := <-gates
		req := nextRequest(p)
		<-g.waiting
		c.mu.Lock()
		pc := c.pending[req.RequestID]
		c.mu.Unlock()
		reply(req.RequestID, fmt.Sprint("first ", i))
		for len(pc.ch) == 0 {
			time.Sleep(20 * time.Microsecond)
		}
		close(g.open)
		switch r := await(t, results); {
		case errors.Is(r.err, context.Canceled):
			abandoned++
		case r.err != nil || string(r.out) != fmt.Sprint("first ", i):
			t.Fatalf("round %d: racing call = %q, %v", i, r.out, r.err)
		}
		next := nextRequest(p)
		reply(next.RequestID, fmt.Sprint("second ", i))
		if r := await(t, results); r.err != nil || string(r.out) != fmt.Sprint("second ", i) {
			t.Fatalf("round %d (%d calls gave up so far): next call = %q, %v, want %q",
				i, abandoned, r.out, r.err, fmt.Sprint("second ", i))
		}
	}
	if abandoned == 0 {
		t.Fatal("no call gave up with its reply ready: the race never ran")
	}

	// A call failed by its connection's teardown, then one on a healthy
	// connection from the same goroutine.
	block := make(chan struct{})
	defer close(block)
	started := make(chan struct{}, 1)
	srv, err := ListenTCP("127.0.0.1:0", func(ctx context.Context, _ string, _ []byte) ([]byte, error) {
		started <- struct{}{}
		<-block
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	doomed := make(chan Conn)
	go func() {
		for i := 0; i < 16; i++ {
			dc, err := DialTCP(srv.Addr())
			if err != nil {
				results <- callResult{nil, err}
				return
			}
			doomed <- dc
			_, err = dc.Call(context.Background(), "block", nil)
			results <- callResult{nil, err}
			out, err := conn.Call(context.Background(), "get", nil)
			results <- callResult{out, err}
		}
	}()
	for i := 0; i < 16; i++ {
		dc := <-doomed
		<-started
		dc.Close()
		if r := await(t, results); !errors.Is(r.err, ErrClosed) {
			t.Fatalf("call on a closed connection: %v, want ErrClosed", r.err)
		}
		next := nextRequest(p)
		reply(next.RequestID, "healthy")
		if r := await(t, results); r.err != nil || string(r.out) != "healthy" {
			t.Fatalf("round %d: call on a healthy connection after a teardown = %q, %v", i, r.out, r.err)
		}
	}

	// A stale reply planted in the record the next call most likely takes.
	refused := 0
	go func() {
		for i := 0; i < 32; i++ {
			pc := clientCalls.Get().(*clientCall)
			pc.ch <- wire.Frame{Type: wire.FrameResponse, RequestID: 1 << 50, Payload: []byte("stale")}
			clientCalls.Put(pc)
			out, err := conn.Call(context.Background(), "get", nil)
			results <- callResult{out, err}
		}
	}()
	for i := 0; i < 32; i++ {
		reply(nextRequest(p).RequestID, "fresh")
		switch r := await(t, results); {
		case r.err != nil:
			refused++
		case string(r.out) != "fresh":
			t.Fatalf("round %d: a planted reply came back as the result: %q", i, r.out)
		}
	}
	if refused == 0 {
		t.Fatal("no call took the record with the planted reply")
	}
}

// TestHandlerContextOverTCP: a non-streamed handler's context carries the
// frame's chain, has no deadline, and ends when the caller gives up
// (FrameCancel) and when the server closes.
//
// Caught, 5 of 5 runs each: "FrameCancel misses the request's context",
// "no cancelAll at teardown".
func TestHandlerContextOverTCP(t *testing.T) {
	type seen struct {
		chain       string
		hasDeadline bool
	}
	started := make(chan seen, 2)
	released := make(chan error, 2)
	srv, err := ListenTCP("127.0.0.1:0", func(ctx context.Context, _ string, _ []byte) ([]byte, error) {
		_, ok := ctx.Deadline()
		started <- seen{ChainFrom(ctx), ok}
		<-ctx.Done()
		released <- ctx.Err()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	t.Cleanup(func() {
		if !closed {
			srv.Close()
		}
	})
	conn, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	wait := func(what string) error {
		t.Helper()
		select {
		case err := <-released:
			return err
		case <-time.After(5 * time.Second):
			t.Fatalf("%s did not release the handler", what)
			return nil
		}
	}

	ctx, cancel := context.WithCancel(WithChain(context.Background(), "host:42"))
	go conn.Call(ctx, "block", nil)
	if s := <-started; s.chain != "host:42" || s.hasDeadline {
		t.Fatalf("handler context: chain %q, deadline %v; want host:42 and none", s.chain, s.hasDeadline)
	}
	cancel()
	if err := wait("the caller's cancel"); !errors.Is(err, context.Canceled) {
		t.Fatalf("after the caller's cancel: Err = %v", err)
	}

	go conn.Call(context.Background(), "block", nil)
	if s := <-started; s.chain != "" {
		t.Fatalf("a request without a chain reads %q", s.chain)
	}
	go func() { srv.Close() }()
	closed = true
	if err := wait("the server's Close"); !errors.Is(err, context.Canceled) {
		t.Fatalf("after Close: Err = %v", err)
	}
}
