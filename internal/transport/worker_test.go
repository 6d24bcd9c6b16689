package transport

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// A TCP server hands each request to a parked handler worker (tcp.go,
// parkedWorkers). These tests hold what the hand-off must keep: the
// reuse itself, a read loop that never runs a handler, the cap on parked
// workers, a teardown that ends them, and a context per request.

// goroutineID reads the calling goroutine's id from its stack header.
func goroutineID() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

// waitParked waits until goroutine id is blocked on a channel receive (a
// worker parked for its next request) or has exited.
func waitParked(t *testing.T, id uint64) {
	t.Helper()
	head := fmt.Sprintf("goroutine %d [", id)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		buf := make([]byte, 1<<20)
		all := string(buf[:runtime.Stack(buf, true)])
		i := strings.Index(all, head)
		if i < 0 || strings.HasPrefix(all[i+len(head):], "chan receive") {
			return
		}
	}
	t.Fatalf("handler goroutine %d neither parked nor exited", id)
}

// workerServer serves h over loopback TCP and dials it once.
func workerServer(t *testing.T, h Handler) (Listener, Conn) {
	t.Helper()
	srv, err := ListenTCP("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	conn, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return srv, conn
}

// waitGoroutines polls until at most limit goroutines run, and returns the
// last count.
func waitGoroutines(limit int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > limit && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(5 * time.Millisecond)
	}
	return n
}

// TestSequentialCallsShareAWorker: calls made one after another on one
// connection all run on the goroutine that served the first.
//
// Caught, 5 of 5 runs: "a goroutine per request".
func TestSequentialCallsShareAWorker(t *testing.T) {
	ids := make(chan uint64, 1)
	_, conn := workerServer(t, func(context.Context, string, []byte) ([]byte, error) {
		ids <- goroutineID()
		return nil, nil
	})
	var first uint64
	for i := 0; i < 32; i++ {
		if _, err := conn.Call(context.Background(), "id", nil); err != nil {
			t.Fatal(err)
		}
		id := <-ids
		if i == 0 {
			first = id
		} else if id != first {
			t.Fatalf("call %d ran on goroutine %d, the first on %d", i, id, first)
		}
		waitParked(t, id)
	}
}

// TestBlockedHandlerLeavesConnectionServing: while one handler on a
// connection blocks, the next request on that connection is answered.
//
// Caught, 5 of 5 runs: "the read loop runs the handler itself when no
// worker is parked".
func TestBlockedHandlerLeavesConnectionServing(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	_, conn := workerServer(t, func(_ context.Context, verb string, _ []byte) ([]byte, error) {
		if verb == "block" {
			started <- struct{}{}
			<-release
		}
		return []byte(verb), nil
	})
	blocked := make(chan callResult, 1)
	go func() {
		out, err := conn.Call(context.Background(), "block", nil)
		blocked <- callResult{out, err}
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := conn.Call(ctx, "echo", nil)
	close(release)
	if err != nil || string(out) != "echo" {
		t.Fatalf("call beside a blocked handler = %q, %v", out, err)
	}
	if r := await(t, blocked); r.err != nil || string(r.out) != "block" {
		t.Fatalf("released call = %q, %v", r.out, r.err)
	}
}

// TestBurstLeavesAtMostKParked: 64 handlers blocked at once take 64
// workers; once they are released and drained, at most parkedWorkers stay.
//
// Caught, 5 of 5 runs: "no cap on parked workers" (63 stay).
func TestBurstLeavesAtMostKParked(t *testing.T) {
	const burst = 64
	var started sync.WaitGroup
	started.Add(burst)
	release := make(chan struct{})
	_, conn := workerServer(t, func(_ context.Context, verb string, _ []byte) ([]byte, error) {
		if verb == "block" {
			started.Done()
			<-release
		}
		return nil, nil
	})
	if _, err := conn.Call(context.Background(), "warm", nil); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine() // the warm call's worker among them

	var calls sync.WaitGroup
	errs := make(chan error, burst)
	for i := 0; i < burst; i++ {
		calls.Add(1)
		go func() {
			defer calls.Done()
			if _, err := conn.Call(context.Background(), "block", nil); err != nil {
				errs <- err
			}
		}()
	}
	started.Wait()
	close(release)
	calls.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := waitGoroutines(base + parkedWorkers); n > base+parkedWorkers {
		t.Fatalf("%d goroutines above the baseline after the burst drained; at most %d workers may park",
			n-base, parkedWorkers)
	}
}

// TestCloseEndsParkedWorkers: a server's Close returns once every worker
// of its connections has exited, and the goroutine count is back at its
// baseline.
//
// Caught, 5 of 5 runs: "a parked worker that ignores the closed park"
// (Close never returns).
func TestCloseEndsParkedWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	const width = 8
	var started sync.WaitGroup
	started.Add(width)
	srv, err := ListenTCP("127.0.0.1:0", func(_ context.Context, verb string, _ []byte) ([]byte, error) {
		if verb == "wide" {
			started.Done()
			started.Wait() // every call holds a worker of its own
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var calls sync.WaitGroup
	for i := 0; i < width; i++ {
		calls.Add(1)
		go func() {
			defer calls.Done()
			if _, err := conn.Call(context.Background(), "wide", nil); err != nil {
				t.Error(err)
			}
		}()
	}
	calls.Wait()
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return: a parked worker outlived its connection")
	}
	conn.Close()
	if n := waitGoroutines(base); n > base {
		t.Fatalf("%d goroutines above the baseline after Close", n-base)
	}
}

// TestFinishedRequestCancelSparesTheNext: a FrameCancel for a request that
// has been answered, sent before and while the next request on the same
// worker runs, leaves that request's context alive.
//
// Caught, 5 of 5 runs: "a worker keeps one context and resets it for
// each request".
func TestFinishedRequestCancelSparesTheNext(t *testing.T) {
	ids := make(chan uint64, 2)
	gate := make(chan struct{})
	srv, _ := workerServer(t, func(ctx context.Context, verb string, _ []byte) ([]byte, error) {
		ids <- goroutineID()
		if verb == "hold" {
			<-gate
		}
		return []byte(fmt.Sprint(ctx.Err())), nil
	})
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	p := newRawPeer(t, nc)
	cancelFirst := wire.Frame{Type: wire.FrameCancel, RequestID: 1}

	p.send(wire.Frame{Type: wire.FrameRequest, RequestID: 1, Verb: "first"})
	p.expect(wire.FrameResponse, 1)
	first := <-ids
	waitParked(t, first)
	p.send(cancelFirst, wire.Frame{Type: wire.FrameRequest, RequestID: 2, Verb: "hold"})
	if next := <-ids; next != first {
		close(gate)
		t.Fatalf("the next request ran on goroutine %d, not on the parked worker %d", next, first)
	}
	p.send(cancelFirst)
	p.sync()
	close(gate)
	if f := p.expect(wire.FrameResponse, 2); string(f.Payload) != "<nil>" {
		t.Fatalf("the next request's context ended: %s", f.Payload)
	}
}
